// Per-VL packet FIFOs with byte-capacity accounting.
//
// The FIFOs hold packet handles (sim/packet_pool.hpp), not packets: each
// entry is the 4-byte handle plus the packet's wire size, which every
// capacity, credit and arbitration check needs without touching the packet
// itself. Input buffers are finite (their space is what link-level credits
// advertise); host source queues use kUnbounded. PortBuffers keeps a 16-bit
// occupancy mask so the crossbar and arbiter hot paths skip empty VLs.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "iba/types.hpp"
#include "sim/packet_pool.hpp"

namespace ibarb::sim {

inline constexpr std::uint32_t kUnbounded =
    std::numeric_limits<std::uint32_t>::max();

/// FIFO of whole packets sharing one VL's buffer space: a power-of-two ring
/// that grows on demand (most VLs of a fabric never hold more than a few
/// packets, and most never hold any).
class VlFifo {
 public:
  VlFifo() = default;

  void set_capacity(std::uint32_t capacity_bytes) noexcept {
    capacity_bytes_ = capacity_bytes;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::uint32_t used_bytes() const noexcept { return used_bytes_; }
  std::uint32_t capacity_bytes() const noexcept { return capacity_bytes_; }

  bool can_accept(std::uint32_t wire_bytes) const noexcept {
    return capacity_bytes_ == kUnbounded ||
           used_bytes_ + wire_bytes <= capacity_bytes_;
  }

  std::uint32_t peak_bytes() const noexcept { return peak_bytes_; }
  std::size_t peak_packets() const noexcept { return peak_packets_; }

  void push(PacketHandle h, std::uint32_t wire_bytes) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & mask()] = Entry{h, wire_bytes};
    ++size_;
    used_bytes_ += wire_bytes;
    if (used_bytes_ > peak_bytes_) peak_bytes_ = used_bytes_;
    if (size_ > peak_packets_) peak_packets_ = size_;
  }

  PacketHandle front() const { return ring_[head_].handle; }
  /// Wire size of the head packet.
  std::uint32_t front_bytes() const { return ring_[head_].wire_bytes; }

  PacketHandle pop() {
    const Entry e = ring_[head_];
    head_ = (head_ + 1) & mask();
    --size_;
    used_bytes_ -= e.wire_bytes;
    return e.handle;
  }

  /// Removes and returns (in queue order) every queued packet of `conn`,
  /// preserving the relative order of the rest. Fault recovery uses this to
  /// abandon in-flight packets of a rerouted connection: left behind, they
  /// would starve on a VL whose arbitration weight moved away with the
  /// route. The peaks are high-water marks and stay as they were.
  std::vector<PacketHandle> extract_connection(std::uint32_t conn,
                                               const PacketPool& pool) {
    std::vector<PacketHandle> out;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      const Entry e = ring_[(head_ + i) & mask()];
      if (pool[e.handle].connection == conn) {
        used_bytes_ -= e.wire_bytes;
        out.push_back(e.handle);
      } else {
        ring_[(head_ + kept++) & mask()] = e;
      }
    }
    size_ = kept;
    return out;
  }

  /// Visits every queued handle in queue order, by reference: the shard
  /// engine re-parks a FIFO's packets when it moves them between pools.
  template <class Fn>
  void for_each_handle(Fn&& fn) {
    for (std::uint32_t i = 0; i < size_; ++i)
      fn(ring_[(head_ + i) & mask()].handle);
  }

 private:
  struct Entry {
    PacketHandle handle;
    std::uint32_t wire_bytes;
  };

  std::uint32_t mask() const noexcept {
    return static_cast<std::uint32_t>(ring_.size()) - 1;
  }

  /// Doubles the ring (4 entries first), unrolling the wrapped contents.
  void grow() {
    std::vector<Entry> bigger(ring_.empty() ? 4 : 2 * ring_.size());
    for (std::uint32_t i = 0; i < size_; ++i)
      bigger[i] = ring_[(head_ + i) & mask()];
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<Entry> ring_;  ///< Size is zero or a power of two.
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t used_bytes_ = 0;
  std::uint32_t capacity_bytes_ = kUnbounded;
  std::uint32_t peak_bytes_ = 0;    ///< High-water mark (telemetry).
  std::size_t peak_packets_ = 0;
};

/// The 16 per-VL FIFOs of one port side (input or output).
class PortBuffers {
 public:
  void set_capacity_all(std::uint32_t capacity_bytes) {
    for (auto& f : fifos_) f.set_capacity(capacity_bytes);
  }

  bool empty(iba::VirtualLane v) const noexcept { return fifos_[v].empty(); }
  bool all_empty() const noexcept { return occupancy_ == 0; }

  /// Bit v set when VL v holds at least one packet.
  std::uint16_t occupancy() const noexcept { return occupancy_; }

  bool can_accept(iba::VirtualLane v, std::uint32_t wire_bytes) const {
    return fifos_[v].can_accept(wire_bytes);
  }

  void push(iba::VirtualLane v, PacketHandle h, std::uint32_t wire_bytes) {
    fifos_[v].push(h, wire_bytes);
    occupancy_ |= static_cast<std::uint16_t>(1u << v);
  }

  PacketHandle front(iba::VirtualLane v) const { return fifos_[v].front(); }
  std::uint32_t front_bytes(iba::VirtualLane v) const {
    return fifos_[v].front_bytes();
  }

  PacketHandle pop(iba::VirtualLane v) {
    const PacketHandle h = fifos_[v].pop();
    if (fifos_[v].empty())
      occupancy_ &= static_cast<std::uint16_t>(~(1u << v));
    return h;
  }

  /// Removes every queued packet of `conn` on VL `v` (see VlFifo).
  std::vector<PacketHandle> extract_connection(iba::VirtualLane v,
                                               std::uint32_t conn,
                                               const PacketPool& pool) {
    auto out = fifos_[v].extract_connection(conn, pool);
    if (fifos_[v].empty())
      occupancy_ &= static_cast<std::uint16_t>(~(1u << v));
    return out;
  }

  /// Visits every queued handle of every VL (see VlFifo::for_each_handle).
  template <class Fn>
  void for_each_handle(Fn&& fn) {
    for (auto& f : fifos_) f.for_each_handle(fn);
  }

  const VlFifo& vl(iba::VirtualLane v) const { return fifos_[v]; }

  std::size_t total_packets() const noexcept {
    std::size_t n = 0;
    for (const auto& f : fifos_) n += f.size();
    return n;
  }

 private:
  std::uint16_t occupancy_ = 0;  ///< First: the crossbar scan reads it most.
  std::array<VlFifo, iba::kMaxVirtualLanes> fifos_;
};

}  // namespace ibarb::sim
