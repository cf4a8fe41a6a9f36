// Host (channel adapter) state and traffic-flow descriptors.
//
// A host has a single port: the injection side mirrors a switch output port
// (per-VL source queues, its own VLArbitrationTable arbiter, credits toward
// the switch input buffer); the receive side is an instantaneous sink that
// returns credits as soon as a packet lands.
#pragma once

#include <cstdint>

#include "sim/switch.hpp"
#include "util/rng.hpp"

namespace ibarb::sim {

enum class GeneratorKind : std::uint8_t {
  kCbr,      ///< Fixed inter-packet interval (drift-free nominal clock).
  kPoisson,  ///< Exponential intervals with the given mean.
  kOnOffVbr, ///< Bursts at peak rate separated by silences (same mean rate).
};

struct FlowSpec {
  iba::NodeId src_host = iba::kInvalidNode;
  iba::NodeId dst_host = iba::kInvalidNode;
  iba::ServiceLevel sl = 0;
  std::uint32_t payload_bytes = 256;
  iba::Cycle interval = 1000;       ///< Nominal mean inter-packet time.
  GeneratorKind kind = GeneratorKind::kCbr;
  iba::Cycle start_offset = 0;
  iba::Cycle deadline = 0;          ///< End-to-end guarantee (metrics).
  bool qos = true;                  ///< False for best-effort background.
  bool management = false;          ///< VL15 traffic.
  /// Externally driven flow: the simulator registers the connection (so
  /// metrics and routing apply) but never self-generates packets — a
  /// transport layer injects them via Simulator::inject_external. The
  /// `interval` still serves as the nominal inter-arrival time for metrics.
  bool external = false;
  std::uint64_t seed = 0;

  // kOnOffVbr shape: packets per burst (geometric mean) and the fraction of
  // time spent bursting; peak interval = interval * on_fraction.
  double burst_mean_packets = 16.0;
  double on_fraction = 0.25;
};

/// A flow's per-packet record: everything on_generate and a CBR reschedule
/// read, in half a cache line (the fabric may hold tens of thousands of
/// flows, and each generation touches one at random). The FlowSpec is not
/// kept: add_flow moves its fields here, into FlowCold, and into the
/// flow's ConnectionMetrics.
struct alignas(32) FlowState {
  iba::Cycle next_nominal = 0;   ///< CBR drift-free clock.
  /// FlowSpec::interval divided by the overdrive (set_flow_overdrive).
  iba::Cycle interval = 0;
  std::uint32_t next_sequence = 0;
  std::uint32_t payload_bytes = 0;
  iba::Lid src = iba::kInvalidLid;  ///< Source host LID (node id + 1).
  iba::Lid dst = iba::kInvalidLid;  ///< Destination host LID.
  iba::ServiceLevel sl = 0;
  GeneratorKind kind = GeneratorKind::kCbr;
  bool stopped : 1 = false;      ///< Set by Simulator::stop_flow.
  /// True while a kGenerate event for this flow sits in the queue. Lets
  /// resume_flow avoid double-scheduling the generator chain.
  bool scheduled : 1 = false;
  bool management : 1 = false;   ///< VL15 traffic.
  bool external : 1 = false;     ///< FlowSpec::external.
};
static_assert(sizeof(FlowState) <= 64, "one flow record per cache line");

/// What only Poisson and VBR flows and set_flow_overdrive read, kept apart
/// from the per-packet record (same index).
struct FlowCold {
  util::Xoshiro256 rng{0};
  iba::Cycle interval = 0;  ///< FlowSpec::interval, before any overdrive.
  double burst_mean_packets = 16.0;  ///< kOnOffVbr shape (FlowSpec).
  double on_fraction = 0.25;
  std::uint32_t burst_left = 0;  ///< kOnOffVbr packets left in this burst.
};

struct HostState {
  iba::NodeId node = iba::kInvalidNode;
  OutputPort out;  ///< Injection port (port 0); source queues unbounded.
};

}  // namespace ibarb::sim
