// Fault plans: a deterministic, seedable schedule of hardware faults.
//
// A FaultPlan is pure data — a time-sorted list of FaultEvents — parsed
// from a compact CLI spec or synthesized as a "random storm" from a seed.
// The FaultInjector arms the plan on the simulator's EventQueue, so replay
// is bit-identical for a given (plan, seed) regardless of wall-clock, job
// count, or host. docs/FAULTS.md documents the spec grammar.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "iba/types.hpp"
#include "network/graph.hpp"

namespace ibarb::faults {

enum class FaultKind : std::uint8_t {
  kLinkFlap,  ///< Link at (node, port) down at `at`, up after `duration`.
  kCorrupt,   ///< Packets received at (node, port) are corrupted on the wire
              ///< with `probability` and dropped as CRC-detected.
  kDrop,      ///< Packets received at (node, port) vanish with `probability`.
  kStuck,     ///< (node, port) stops transmitting for the window.
  kSlow,      ///< (node, port) serializes `factor` times slower.
  kOverload,  ///< Flow `flow` sends at `factor` times its nominal rate —
              ///< the paper's "misbehaving source".
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkFlap;
  iba::Cycle at = 0;
  iba::Cycle duration = 0;  ///< 0 = permanent (never repairs).
  iba::NodeId node = iba::kInvalidNode;
  iba::PortIndex port = 0;
  std::uint32_t flow = 0;     ///< kOverload: simulator flow index.
  double probability = 1.0;   ///< kCorrupt / kDrop per-packet chance.
  double factor = 1.0;        ///< kSlow slowdown / kOverload rate multiple.
};

/// Shape of a synthesized fault storm (see FaultPlan::random_storm). Each
/// kind's severity is a fixed kStorm* constant in fault_plan.cpp.
struct StormConfig {
  std::uint64_t seed = 1;
  iba::Cycle start = 0;
  iba::Cycle length = 1'000'000;
  /// Route-around faults (flap/stuck/slow) are laid out in disjoint time
  /// slots so the fabric never loses two links at once and each repair
  /// completes before the next fault hits.
  unsigned link_flaps = 2;
  unsigned stuck_ports = 1;
  unsigned slow_ports = 1;
  unsigned corrupt_windows = 2;
  unsigned drop_windows = 1;
  unsigned overload_bursts = 2;
  /// kOverload targets are drawn from flows [first_flow, first_flow+flows).
  /// With flows == 0 no overload events are generated.
  std::uint32_t first_flow = 0;
  std::uint32_t flows = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  /// Stable-sorts the events by activation time.
  explicit FaultPlan(std::vector<FaultEvent> events);

  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }

  /// Merges another plan's events into this one (re-sorts).
  void merge(const FaultPlan& other);

  /// Parses the compact spec grammar, e.g.
  ///   "linkflap@1000000+500000:3.2;corrupt@2000000+100000:5.1:0.02"
  /// Event:   kind '@' at ['+' duration] ':' target [':' value]
  /// Target:  node '.' port   (port faults)  |  'f' flow  (overload)
  /// Value:   probability (corrupt/drop) or factor (slow/overload).
  /// Separators: ';' or ','. Throws std::invalid_argument, naming the
  /// token and its offset, on bad input: a number that does not fit its
  /// field, at + duration past the cycle counter, a NaN or infinite value,
  /// a probability outside [0, 1] or a factor below 1.
  static FaultPlan parse(std::string_view spec);

  /// The plan re-serialized in the parse() grammar (reproduction recipes).
  std::string describe() const;

  /// Deterministic storm over the fabric: targets only switch-switch links
  /// for route-around faults (hosts are single-homed, so downing a host
  /// uplink just partitions that host).
  static FaultPlan random_storm(const network::FabricGraph& graph,
                                const StormConfig& cfg);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace ibarb::faults
