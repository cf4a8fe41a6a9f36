// FaultInjector: arms a FaultPlan on a Simulator and intercepts its data
// path through the sim::FaultHooks interface.
//
// Every fault activation/deactivation travels through Simulator::call_at —
// i.e. through the same deterministic EventQueue as the traffic itself — and
// all randomness (per-packet corruption coin flips, damage draws) comes from
// one seeded stream consumed in event order, so a (plan, seed) pair replays
// bit-identically.
//
// The simulator carries no wire bytes, so corruption is modeled by its
// outcome: a damaged packet fails the receiver's CRC or length check and
// is dropped (the RC transport's retransmission recovers it). Every damage
// model the injector draws is one the link layer's checks always catch;
// on_link_rx names the reason for each.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "faults/fault_plan.hpp"
#include "network/graph.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ibarb::faults {

struct FaultStats {
  std::uint64_t link_down_events = 0;
  std::uint64_t link_up_events = 0;
  std::uint64_t stuck_windows = 0;
  std::uint64_t slow_windows = 0;
  std::uint64_t overload_bursts = 0;
  std::uint64_t corrupt_attempts = 0;  ///< Packets picked for corruption.
  std::uint64_t crc_rejected = 0;      ///< ... detected and dropped.
  /// ... delivered despite damage. 0 by construction: every damage model
  /// is always detected (on_link_rx). Kept in reports and snapshots.
  std::uint64_t crc_escaped = 0;
  std::uint64_t dropped_packets = 0;   ///< Silent drop-window losses.
  std::uint64_t flushed_packets = 0;   ///< Discarded from downed ports.
};

class FaultInjector final : public sim::FaultHooks {
 public:
  /// Registers a telemetry probe publishing "faults.*" counters into the
  /// simulator's registry; the destructor removes it. Throws
  /// std::invalid_argument, naming the event, when a port fault targets no
  /// wired port of `graph` or an overload targets no flow already added to
  /// `sim`.
  FaultInjector(sim::Simulator& sim, const network::FabricGraph& graph,
                FaultPlan plan, std::uint64_t seed);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every plan event on the simulator clock and attaches the
  /// hooks. Call once, before running.
  void arm();

  /// Observer for route-relevant health transitions (flap/stuck/slow):
  /// healthy=false when the fault engages, true when it clears. This is
  /// what the RecoveryCoordinator subscribes to (the modeled trap).
  using LinkStateListener = std::function<void(
      iba::NodeId node, iba::PortIndex port, bool healthy, iba::Cycle now)>;
  void set_link_state_listener(LinkStateListener listener) {
    listener_ = std::move(listener);
  }

  const FaultStats& stats() const noexcept { return stats_; }
  const FaultPlan& plan() const noexcept { return plan_; }
  bool link_is_down(iba::NodeId node, iba::PortIndex port) const;

  /// True when no fault window is currently engaged on any port. The churn
  /// engine only snapshots at quiescent ticks, so a restored world can arm
  /// the plan's tail events on a fresh injector and replay identically.
  bool quiescent() const noexcept;

  /// Restores the counters published by the "faults.*" probe, so a world
  /// rebuilt from a snapshot reports the same totals as the original.
  void restore_stats(const FaultStats& stats) noexcept { stats_ = stats; }

  // sim::FaultHooks
  bool may_transmit(iba::NodeId node, iba::PortIndex port) override;
  iba::Cycle stretch_serialization(iba::NodeId node, iba::PortIndex port,
                                   iba::Cycle cycles) override;
  RxVerdict on_link_rx(iba::NodeId node, iba::PortIndex port,
                       const iba::Packet& p) override;

 private:
  struct PortFaultState {
    int down = 0;   ///< Nesting count of active link-down windows.
    int stuck = 0;  ///< Nesting count of active stuck windows.
    std::vector<double> corrupt;  ///< Active corruption probabilities.
    std::vector<double> drop;     ///< Active drop probabilities.
    std::vector<double> slow;     ///< Active slowdown factors.
  };

  static std::uint32_t key(iba::NodeId node, iba::PortIndex port) {
    return (static_cast<std::uint32_t>(node) << 8) | port;
  }
  PortFaultState& state(iba::NodeId node, iba::PortIndex port) {
    return ports_[key(node, port)];
  }
  const PortFaultState* find_state(iba::NodeId node,
                                   iba::PortIndex port) const;

  void engage(const FaultEvent& ev);
  void disengage(const FaultEvent& ev);
  void set_link_down(iba::NodeId node, iba::PortIndex port, bool down);
  void notify(iba::NodeId node, iba::PortIndex port, bool healthy);

  sim::Simulator& sim_;
  const network::FabricGraph& graph_;
  FaultPlan plan_;
  util::Xoshiro256 rng_;
  std::map<std::uint32_t, PortFaultState> ports_;
  LinkStateListener listener_;
  FaultStats stats_;
  bool armed_ = false;
  obs::TelemetryRegistry::ProbeId probe_ = 0;
};

}  // namespace ibarb::faults
