#include "sim/trace.hpp"

namespace ibarb::sim {

const char* to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::kInject: return "inject";
    case TraceEvent::kLinkTx: return "link-tx";
    case TraceEvent::kXbar: return "xbar";
    case TraceEvent::kDeliver: return "deliver";
    case TraceEvent::kDrop: return "drop";
  }
  return "?";
}

std::vector<TraceRecord> PacketTrace::chronological() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_ || capacity_ == 0) {
    out = ring_;
  } else {
    const auto head = next_ % capacity_;  // oldest element
    out.insert(out.end(), ring_.begin() + static_cast<long>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<long>(head));
  }
  return out;
}

std::vector<TraceRecord> PacketTrace::journey(std::uint64_t packet_id) const {
  std::vector<TraceRecord> out;
  for (const auto& r : chronological())
    if (r.packet == packet_id) out.push_back(r);
  return out;
}

}  // namespace ibarb::sim
