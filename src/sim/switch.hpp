// Switch and port state for the DES model (paper §4.1):
//
//  * 8-port switches; each physical port has an input side (per-VL buffers
//    whose space is advertised as credits) and an output side (per-VL queues
//    scheduled by a VLArbitrationTable arbiter).
//  * Multiplexed crossbar: at most one VL of each input port may be feeding
//    the crossbar, and at most one VL of each output port may be receiving
//    from it, at any time. Link transmission is a separate resource.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "iba/arbiter.hpp"
#include "iba/flow_control.hpp"
#include "iba/link.hpp"
#include "iba/sl_to_vl.hpp"
#include "network/graph.hpp"
#include "sim/buffer.hpp"

namespace ibarb::sim {

struct OutputPort {
  PortBuffers queues;                 ///< Per-VL output queues.
  iba::VlArbiter arbiter;
  iba::SlToVlMappingTable sl_map;     ///< Applied when enqueueing here: the
                                      ///< VL the packet uses on this link.
  iba::CreditTracker credits;         ///< Free space at the peer's input.
  iba::Link link;
  network::PortRef peer;              ///< Downstream (node, port).
  std::uint32_t flat_id = 0;          ///< Metrics index.
  bool wired = false;
  bool tx_busy = false;               ///< Serializing onto the link.
  bool xbar_rx_busy = false;          ///< Receiving from the crossbar.
  /// Head-of-VL packets held back for lack of downstream credits, summed
  /// over every readiness scan (telemetry: credit back-pressure intensity).
  std::uint64_t credit_stalls = 0;

  /// Eligible head-packet sizes per VL for the arbiter: nonempty queue with
  /// enough downstream credits.
  iba::ReadyBytes ready_bytes() {
    iba::ReadyBytes ready{};
    std::uint16_t occ = queues.occupancy();
    while (occ != 0) {
      const auto v =
          static_cast<iba::VirtualLane>(std::countr_zero(occ));
      occ &= static_cast<std::uint16_t>(occ - 1);
      const auto bytes = queues.front(v).wire_bytes();
      if (credits.can_send(v, bytes)) {
        ready[v] = bytes;
      } else {
        ++credit_stalls;
      }
    }
    return ready;
  }
};

struct InputPort {
  PortBuffers buffers;   ///< Finite; capacity == advertised credits.
  bool wired = false;
  bool xbar_tx_busy = false;        ///< Feeding the crossbar.
};

/// Which (input, VL, output) transfer starts next — and every round-robin /
/// priority pointer that decision needs — lives in the switch's
/// sched::CrossbarScheduler, not here (see src/sched/crossbar.hpp).
struct SwitchState {
  iba::NodeId node = iba::kInvalidNode;
  std::vector<InputPort> in;
  std::vector<OutputPort> out;
  /// Linear forwarding table indexed by destination LID: the output port for
  /// every host LID. Seeded from Routes at construction and overwritten by
  /// the subnet manager's Set(LinearForwardingTable) MADs.
  std::vector<iba::PortIndex> lft;
};

}  // namespace ibarb::sim
