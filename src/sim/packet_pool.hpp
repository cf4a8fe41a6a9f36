// Packet storage for the simulator's datapath: a slab of iba::Packet with a
// free list, addressed by 32-bit handles.
//
// A packet is parked once when its source generates it and released once
// when it leaves the fabric (delivered, dropped or flushed). In between only
// its handle moves: through the per-VL FIFOs (sim/buffer.hpp) and inside
// kLinkDeliver events (sim/event_queue.hpp). Freed slots are reused
// last-in-first-out, so the working set stays as small as the number of
// packets in flight. The free-list pool is the flit-recycling scheme of
// booksim2's Flit::New/Free (SNIPPETS.md).
//
// Each simulator owns one pool.
#pragma once

#include <cstdint>
#include <vector>

#include "iba/packet.hpp"

namespace ibarb::sim {

using PacketHandle = std::uint32_t;
inline constexpr PacketHandle kNoPacket = 0xFFFF'FFFFu;

class PacketPool {
 public:
  /// Stores `p` and returns its handle. May reallocate the slab: references
  /// from operator[] do not survive a park().
  PacketHandle park(const iba::Packet& p) {
    if (free_.empty()) {
      slots_.push_back(p);
      return static_cast<PacketHandle>(slots_.size() - 1);
    }
    const PacketHandle h = free_.back();
    free_.pop_back();
    slots_[h] = p;
    return h;
  }

  iba::Packet& operator[](PacketHandle h) { return slots_[h]; }
  const iba::Packet& operator[](PacketHandle h) const { return slots_[h]; }

  /// Returns the slot to the free list; the handle is dead afterwards.
  void release(PacketHandle h) { free_.push_back(h); }

  /// Copies the packet out and releases its slot (re-parking elsewhere).
  iba::Packet take(PacketHandle h) {
    const iba::Packet p = slots_[h];
    release(h);
    return p;
  }

  /// Packets currently parked.
  std::size_t live() const noexcept { return slots_.size() - free_.size(); }

 private:
  std::vector<iba::Packet> slots_;
  std::vector<PacketHandle> free_;
};

}  // namespace ibarb::sim
