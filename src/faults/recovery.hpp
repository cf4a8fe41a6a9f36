// RecoveryCoordinator: the control-plane reaction to injected faults.
//
// Subscribes to the FaultInjector's link-state transitions (the modeled
// trap). After a fixed reaction delay (kSmReactionDelay) it drives the
// recovery chain:
//
//   1. SubnetManager::resweep over the degraded topology — a discovery
//      sweep that counts its directed-route probes, fresh up*/down* routes,
//      LFT reprogramming;
//   2. every tracked connection whose reservation path no longer matches
//      the new routes is released and re-admitted over them — through the
//      bit-reversal fill, so Theorem-1 invariants hold through the churn;
//   3. guaranteed (DBTS/DB) re-admissions use graceful degradation: they
//      may shed best-effort connections, and are suspended only when no
//      path or capacity exists at any price (counted; shedding a guaranteed
//      class while sheddable capacity remains would be a guarantee
//      revocation, and the bench asserts it never happens);
//   4. on repair, suspended and shed connections are re-admitted.
//
// Everything runs through Simulator::call_at, so recovery is part of the
// same deterministic event order as the faults and the traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "faults/fault_injector.hpp"
#include "network/graph.hpp"
#include "qos/admission.hpp"
#include "sim/simulator.hpp"
#include "subnet/subnet_manager.hpp"

namespace ibarb::faults {

/// Flow sentinel for tracked connections that have no simulated packet flow
/// (the churn service admits reservations without driving traffic). All
/// sim flow operations are skipped for such connections.
inline constexpr std::uint32_t kNoFlow = 0xffffffffu;

/// Trap propagation + SM scheduling latency before the re-sweep starts.
inline constexpr iba::Cycle kSmReactionDelay = 20'000;
/// Modeled per-SMP cost added to the recovery-latency metric: the sweep
/// counts its probes (ResweepReport::smps_sent) but sends none on the
/// simulated wire.
inline constexpr iba::Cycle kMadCycles = 16;

struct RecoveryStats {
  std::uint64_t resweeps = 0;
  std::uint64_t failed_resweeps = 0;  ///< Partitioned or unroutable.
  std::uint64_t smps_sent = 0;
  std::uint64_t rerouted = 0;         ///< Released + re-admitted connections.
  std::uint64_t suspended = 0;        ///< Stopped: no path or no capacity.
  std::uint64_t suspended_guaranteed = 0;   ///< ... of which DBTS/DB.
  std::uint64_t suspended_best_effort = 0;  ///< ... of which sheddable BE.
  std::uint64_t restored = 0;         ///< Resumed after repair.
  std::uint64_t shed_best_effort = 0; ///< BE victims of degradation.
  /// In-flight packets abandoned on rerouted connections' old paths (their
  /// VL weight left with the reservation; queued packets would starve).
  std::uint64_t purged_in_flight = 0;
  /// Guaranteed connections refused while sheddable best-effort capacity
  /// remained on their path. The degradation policy makes this impossible;
  /// the fault benches assert it stays zero.
  std::uint64_t guarantee_revocations = 0;
  iba::Cycle last_recovery_latency = 0;
  iba::Cycle max_recovery_latency = 0;
};

class RecoveryCoordinator {
 public:
  /// Registers a telemetry probe publishing "recovery.*" counters into the
  /// simulator's registry; the destructor removes it.
  RecoveryCoordinator(sim::Simulator& sim, const network::FabricGraph& graph,
                      subnet::SubnetManager& sm,
                      qos::AdmissionControl& admission,
                      FaultInjector& injector);
  ~RecoveryCoordinator();

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  /// Registers an admitted guaranteed (DBTS/DB) connection and its flow
  /// (kNoFlow for flowless churn-service connections).
  void track(qos::ConnectionId id, std::uint32_t flow);
  /// Registers an admitted best-effort connection (sheddable).
  void track_best_effort(qos::ConnectionId id, std::uint32_t flow);
  /// Stops tracking a connection (e.g. torn down by the churn engine, or
  /// shed by the engine's own degradation and forgotten). Order of the
  /// remaining entries — which fixes repair processing order — is preserved.
  /// Unknown ids are ignored.
  void untrack(qos::ConnectionId id);

  /// Observer for connection-id changes the coordinator makes on its own:
  /// readmission maps old_id -> new_id; suspension and shedding map
  /// old_id -> 0. The churn engine uses this to keep its target set honest.
  using ChangeListener =
      std::function<void(qos::ConnectionId old_id, qos::ConnectionId new_id)>;
  void set_change_listener(ChangeListener listener) {
    change_listener_ = std::move(listener);
  }

  const RecoveryStats& stats() const noexcept { return stats_; }

  /// Tracked connections currently suspended (no path/capacity).
  unsigned suspended_now() const;

  /// No repair scheduled and no port currently reported unhealthy: the
  /// coordinator holds no pending work a snapshot would have to capture.
  bool quiescent() const noexcept {
    return !repair_pending_ && avoid_.empty();
  }

  /// One tracked connection. Snapshot support: the tracked set in its exact
  /// vector order (the order decides repair processing, so a restored world
  /// must reproduce it).
  struct Tracked {
    qos::ConnectionId id = 0;
    std::uint32_t flow = kNoFlow;
    bool guaranteed = false;
    bool active = true;
    qos::ConnectionRequest request;
  };
  const std::vector<Tracked>& export_tracked() const { return tracked_; }
  /// Replaces the tracked set. Only valid while quiescent().
  void import_tracked(const std::vector<Tracked>& tracked);
  void restore_stats(const RecoveryStats& stats) noexcept { stats_ = stats; }

 private:
  void on_link_state(iba::NodeId node, iba::PortIndex port, bool healthy,
                     iba::Cycle now);
  void repair(iba::Cycle fault_time);
  bool path_matches_routes(const Tracked& t) const;
  bool path_touches_blocked(const Tracked& t);
  bool readmit(Tracked& t, bool count_as_restore);
  void suspend(Tracked& t, bool routes_ok);
  void audit();

  sim::Simulator& sim_;
  const network::FabricGraph& graph_;
  subnet::SubnetManager& sm_;
  qos::AdmissionControl& admission_;
  FaultInjector& injector_;

  std::vector<Tracked> tracked_;
  ChangeListener change_listener_;
  std::vector<network::PortRef> avoid_;  ///< Ports reported unhealthy.
  bool repair_pending_ = false;
  iba::Cycle first_trap_ = 0;
  RecoveryStats stats_;
  obs::TelemetryRegistry::ProbeId probe_ = 0;
};

}  // namespace ibarb::faults
