// Packet event tracing: a bounded ring buffer of per-packet milestones,
// cheap enough to leave compiled in (disabled by default; enable via
// SimConfig::trace_capacity). Used for debugging table configurations and
// by the per-packet-journey assertions in the test suite.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "iba/packet.hpp"
#include "iba/types.hpp"

namespace ibarb::sim {

enum class TraceEvent : std::uint8_t {
  kInject,   ///< Generated at the source host.
  kLinkTx,   ///< Started serializing at (node, port).
  kXbar,     ///< Crossed a switch crossbar onto (node, out-port).
  kDeliver,  ///< Landed at the destination host.
  kDrop,     ///< Discarded by a fault (corruption, drop window, or flush).
};

const char* to_string(TraceEvent e);

struct TraceRecord {
  iba::Cycle time = 0;
  TraceEvent event = TraceEvent::kInject;
  iba::NodeId node = iba::kInvalidNode;
  iba::PortIndex port = 0;
  iba::VirtualLane vl = 0;
  std::uint64_t packet = 0;
  iba::ConnectionId connection = iba::kInvalidConnection;
};

class PacketTrace {
 public:
  PacketTrace() = default;  ///< Disabled.
  explicit PacketTrace(std::size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity);
  }

  bool enabled() const noexcept { return capacity_ != 0; }

  void record(iba::Cycle time, TraceEvent event, iba::NodeId node,
              iba::PortIndex port, iba::VirtualLane vl,
              const iba::Packet& p) {
    if (capacity_ == 0) return;
    const TraceRecord r{time, event, node, port, vl, p.id, p.connection};
    if (ring_.size() < capacity_) {
      ring_.push_back(r);
    } else {
      ring_[next_ % capacity_] = r;  // overwrite oldest
    }
    ++next_;
  }

  /// Records in chronological order (oldest first).
  std::vector<TraceRecord> chronological() const;

  /// The milestones of one packet, oldest first.
  std::vector<TraceRecord> journey(std::uint64_t packet_id) const;

  std::uint64_t total_recorded() const noexcept { return next_; }
  std::size_t size() const noexcept { return ring_.size(); }

  void dump_csv(std::ostream& os) const;

 private:
  std::size_t capacity_ = 0;
  std::uint64_t next_ = 0;
  std::vector<TraceRecord> ring_;
};

}  // namespace ibarb::sim
