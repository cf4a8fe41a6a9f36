// Switch and port state for the DES model (paper §4.1):
//
//  * 8-port switches; each physical port has an input side (per-VL buffers
//    whose space is advertised as credits) and an output side (per-VL queues
//    scheduled by a VLArbitrationTable arbiter).
//  * Multiplexed crossbar: at most one VL of each input port may be feeding
//    the crossbar, and at most one VL of each output port may be receiving
//    from it, at any time. Link transmission is a separate resource.
#pragma once

#include <array>
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
      const auto bytes = queues.front_bytes(v);
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
  // The flags sit next to the buffers' occupancy mask, so a crossbar scan of
  // a ready input reads one cache line.
  bool wired = false;
  bool xbar_tx_busy = false;        ///< Feeding the crossbar.
  PortBuffers buffers;   ///< Finite; capacity == advertised credits.
};

/// Which (input, VL, output) transfer starts next — and every round-robin /
/// priority pointer that decision needs — lives in the switch's
/// sched::Crossbar, not here (see src/sched/crossbar.hpp).
struct SwitchState {
  iba::NodeId node = iba::kInvalidNode;
  std::vector<InputPort> in;
  std::vector<OutputPort> out;
  /// Bit p set while input p is wired, not feeding the crossbar and holds a
  /// packet: the crossbar's input_ready test, without touching the port.
  /// Kept by the simulator where those change (a link delivery, a crossbar
  /// grant, a transfer's completion). PortIndex is 8 bits, hence 256 bits.
  std::array<std::uint64_t, 4> ready_in{};

  bool input_ready(iba::PortIndex p) const {
    return (ready_in[p >> 6] >> (p & 63)) & 1u;
  }
  void set_input_ready(iba::PortIndex p) {
    ready_in[p >> 6] |= 1ull << (p & 63);
  }
  void clear_input_ready(iba::PortIndex p) {
    ready_in[p >> 6] &= ~(1ull << (p & 63));
  }

  /// Linear forwarding table indexed by destination LID: the output port for
  /// every host LID. Seeded from Routes at construction and overwritten by
  /// the subnet manager (Simulator::set_forwarding).
  std::vector<iba::PortIndex> lft;
};

}  // namespace ibarb::sim
