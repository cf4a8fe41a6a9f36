// Switch-affine network partitioning for the parallel simulator core.
//
// The fabric is split into `shards` contiguous blocks of switches (switch id
// order); every host is assigned to the shard of its uplink switch, so a
// host<->switch link is never a cut edge and the only cross-shard traffic is
// switch-to-switch packet delivery plus the matching upstream credit
// returns. The cut edges and the link model give the conservative
// synchronization window ("lookahead"): no event executed at time t on one
// shard can schedule an event before t + lookahead on another, so shards may
// run [W, W + lookahead) windows in parallel with a barrier in between and
// still merge cross-shard events in deterministic (time, seq) order.
//
// See docs/PARALLEL.md for the derivation and the determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "iba/link.hpp"
#include "iba/packet.hpp"
#include "network/graph.hpp"

namespace ibarb::sim {

/// Hosts per shard follow their uplink switch; make_switch_affine rejects
/// fabrics larger than this — a sanity bound far above the paper's network
/// sizes, so a mis-scaled generator fails loudly instead of silently
/// building gigantic per-node tables.
inline constexpr std::size_t kMaxPartitionNodes = 4096;

struct Partition {
  unsigned shards = 1;
  /// node id -> owning shard.
  std::vector<std::uint32_t> shard_of;

  /// One directed cut edge: the wire from `node`'s output `port` into a
  /// switch owned by another shard.
  struct Cut {
    iba::NodeId node = 0;
    iba::PortIndex port = 0;
    iba::Link link{};
    std::uint32_t from = 0;  ///< Producing shard.
    std::uint32_t to = 0;    ///< Consuming shard.
    /// Fastest wire rate among the *downstream* switch's connected output
    /// ports — bounds how soon a packet entering that switch can finish a
    /// crossbar transfer and release credits back across the cut.
    iba::LinkRate best_downstream_rate = iba::LinkRate::k1x;
  };
  std::vector<Cut> cuts;
};

/// Parameters the lookahead window depends on (the admitted flow set and
/// the crossbar timing constants of iba/types.hpp; tests vary them).
struct LookaheadModel {
  /// Smallest wire size (payload + header) any flow can put on a cut link.
  std::uint32_t min_wire_bytes = iba::kPacketOverheadBytes;
  iba::Cycle crossbar_delay = 0;
  double crossbar_speedup = 1.0;
};

/// Splits the graph into `shards` switch-affine blocks. Returns an engaged
/// partition, or disengages `partition` and fills `error` when the fabric
/// cannot be sharded (fewer than 2 switches per the clamp, more nodes than
/// the key width allows, or an unconnected host). `shards` is clamped to the
/// switch count; the result's `shards` field holds the effective count.
struct PartitionResult {
  bool ok = false;
  Partition partition;
  std::string error;
};
PartitionResult make_switch_affine(const network::FabricGraph& graph,
                                   unsigned shards);

/// Forward lookahead of one cut edge: cycles between the event that starts a
/// transmission on the upstream port and the earliest cross-shard delivery
/// it can cause (serialization of the smallest admitted packet plus wire
/// propagation).
iba::Cycle forward_latency(const iba::Link& link, std::uint32_t wire_bytes);

/// Reverse lookahead of one cut edge: the earliest a packet arriving at the
/// downstream switch can bounce an upstream credit release back across the
/// cut (crossbar pipeline delay plus the sped-up transfer of the smallest
/// packet on the switch's fastest output).
iba::Cycle reverse_latency(const Partition::Cut& cut, const LookaheadModel& m);

/// The safe parallel window width: min over every cut edge of
/// min(forward, reverse) latency. At least 1 for any physical link model
/// (serialization of a nonzero wire size is >= 1 cycle); callers must still
/// run the zero-lookahead guard because fault/experiment link models are
/// caller-supplied.
iba::Cycle safe_window(const Partition& p, const LookaheadModel& m);

/// Zero-lookahead guard: evaluates `latency` on every cut edge and returns a
/// non-empty diagnostic naming the first zero-latency cut (the topology must
/// then fall back to --shards 1). `latency` is injectable so tests can feed
/// a pathological link model; the simulator passes the min of
/// forward_latency and reverse_latency.
std::string zero_lookahead_error(
    const Partition& p,
    const std::function<iba::Cycle(const Partition::Cut&)>& latency);

}  // namespace ibarb::sim
