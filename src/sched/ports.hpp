// The port view the crossbar scheduler works over, and its round-robin VL
// scan.
//
// WrrCrossbar is a template over the view type, so every query below is a
// direct, inlinable call: the simulator's view (sim::XbarView) in the
// datapath, the mock fabric in tests/test_crossbar.cpp.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>

#include "iba/types.hpp"

namespace ibarb::sched {

/// One switch's port state as the scheduler sees it during a matching
/// round. All queries are against current state; grant() commits a
/// transfer, which immediately makes its input and output busy.
///
///  * port_count()   — crossbar ports of the switch.
///  * input_ready(in) — input may feed the crossbar: wired, not already
///    transferring, and holding at least one packet.
///  * input_occupancy(in) — bit v set when input `in` holds a packet on VL
///    v. Meaningful only while input_ready(in).
///  * head_output(in, vl) — output port the head packet of (in, vl) is
///    routed to.
///  * output_free(out) — output is not currently receiving a transfer.
///  * output_accepts(in, vl, out) — the output queue has room for the head
///    of (in, vl) on the VL the output's SLtoVL table assigns it.
///  * grant(in, vl, out) — commits a transfer of the head of (in, vl) into
///    `out`: marks both ports busy and schedules the completion. The caller
///    must have established eligibility (input_ready, output_free,
///    output_accepts) in this round.
template <class P>
concept CrossbarPorts = requires(P& p, const P& cp, iba::PortIndex port,
                                 iba::VirtualLane vl) {
  { cp.port_count() } -> std::convertible_to<unsigned>;
  { cp.input_ready(port) } -> std::convertible_to<bool>;
  { cp.input_occupancy(port) } -> std::convertible_to<std::uint16_t>;
  { cp.head_output(port, vl) } -> std::convertible_to<iba::PortIndex>;
  { cp.output_free(port) } -> std::convertible_to<bool>;
  { cp.output_accepts(port, vl, port) } -> std::convertible_to<bool>;
  p.grant(port, vl, port);
};

/// The occupied VLs of `occ` in round-robin order from `start`: the order
/// of the loop `for k in 0..15: vl = (start + k) % 16; skip if empty`, but
/// found by walking the occupancy mask rotated right by `start`, one
/// countr_zero per occupied VL instead of sixteen modulo steps.
/// tests/test_crossbar.cpp checks the order for every start and mask.
class VlRoundRobin {
 public:
  VlRoundRobin(std::uint16_t occ, unsigned start)
      : rest_(std::rotr(occ, static_cast<int>(start))), start_(start) {}

  explicit operator bool() const noexcept { return rest_ != 0; }

  iba::VirtualLane next() noexcept {
    const auto k = static_cast<unsigned>(std::countr_zero(rest_));
    rest_ = static_cast<std::uint16_t>(rest_ & (rest_ - 1));
    return static_cast<iba::VirtualLane>((start_ + k) &
                                         (iba::kMaxVirtualLanes - 1));
  }

 private:
  static_assert(iba::kMaxVirtualLanes == 16, "occupancy masks are 16-bit");
  std::uint16_t rest_;
  unsigned start_;
};

}  // namespace ibarb::sched
