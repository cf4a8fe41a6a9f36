#include "faults/fault_injector.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ibarb::faults {

FaultInjector::FaultInjector(sim::Simulator& sim,
                             const network::FabricGraph& graph,
                             FaultPlan plan, std::uint64_t seed)
    : sim_(sim), graph_(graph), plan_(std::move(plan)),
      rng_(seed ^ 0xFA175EEDull) {
  for (const auto& ev : plan_.events()) {
    const bool exists =
        ev.kind == FaultKind::kOverload
            ? ev.flow < sim_.metrics().connections.size()
            : ev.node < graph_.node_count() &&
                  ev.port < graph_.port_count(ev.node) &&
                  graph_.peer(ev.node, ev.port).has_value();
    if (!exists)
      throw std::invalid_argument(
          "fault event '" + FaultPlan({ev}).describe() + "' targets " +
          (ev.kind == FaultKind::kOverload ? "no such flow"
                                           : "no wired port of the fabric"));
  }
  probe_ = sim_.telemetry().add_probe([this](obs::Snapshot& snap) {
    snap.add_counter("faults.link_down_events", stats_.link_down_events);
    snap.add_counter("faults.link_up_events", stats_.link_up_events);
    snap.add_counter("faults.stuck_windows", stats_.stuck_windows);
    snap.add_counter("faults.slow_windows", stats_.slow_windows);
    snap.add_counter("faults.overload_bursts", stats_.overload_bursts);
    snap.add_counter("faults.corrupt_attempts", stats_.corrupt_attempts);
    snap.add_counter("faults.crc_rejected", stats_.crc_rejected);
    snap.add_counter("faults.crc_escaped", stats_.crc_escaped);
    snap.add_counter("faults.dropped_packets", stats_.dropped_packets);
    snap.add_counter("faults.flushed_packets", stats_.flushed_packets);
  });
}

FaultInjector::~FaultInjector() { sim_.telemetry().remove_probe(probe_); }

const FaultInjector::PortFaultState* FaultInjector::find_state(
    iba::NodeId node, iba::PortIndex port) const {
  const auto it = ports_.find(key(node, port));
  return it == ports_.end() ? nullptr : &it->second;
}

bool FaultInjector::link_is_down(iba::NodeId node, iba::PortIndex port) const {
  const auto* s = find_state(node, port);
  return s != nullptr && s->down > 0;
}

bool FaultInjector::quiescent() const noexcept {
  for (const auto& [key, s] : ports_) {
    if (s.down != 0 || s.stuck != 0 || !s.corrupt.empty() ||
        !s.drop.empty() || !s.slow.empty())
      return false;
  }
  return true;
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("fault plan armed twice");
  armed_ = true;
  sim_.attach_fault_hooks(this);
  for (const auto& ev : plan_.events()) {
    sim_.call_at(ev.at, [this, ev] { engage(ev); });
    if (ev.duration > 0)
      sim_.call_at(ev.at + ev.duration, [this, ev] { disengage(ev); });
  }
}

void FaultInjector::notify(iba::NodeId node, iba::PortIndex port,
                           bool healthy) {
  if (obs::SeriesRecorder* s = sim_.series()) {
    s->record_transition(sim_.now(),
                         healthy ? obs::SeriesTransition::Kind::kLinkUp
                                 : obs::SeriesTransition::Kind::kLinkDown,
                         /*conn=*/-1, node, port);
  }
  if (listener_) listener_(node, port, healthy, sim_.now());
}

void FaultInjector::set_link_down(iba::NodeId node, iba::PortIndex port,
                                  bool down) {
  // A link is full-duplex: both endpoints stop transmitting, and the
  // hardware discards whatever was queued behind the dead transmitter.
  const auto peer = graph_.peer(node, port);
  assert(peer.has_value() && "fault targets a wired port");
  if (down) {
    ++state(node, port).down;
    ++state(peer->node, peer->port).down;
    stats_.flushed_packets += sim_.flush_output_queue(node, port);
    stats_.flushed_packets += sim_.flush_output_queue(peer->node, peer->port);
    ++stats_.link_down_events;
  } else {
    --state(node, port).down;
    --state(peer->node, peer->port).down;
    ++stats_.link_up_events;
    sim_.kick_port(node, port);
    sim_.kick_port(peer->node, peer->port);
  }
}

void FaultInjector::engage(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kLinkFlap:
      set_link_down(ev.node, ev.port, true);
      notify(ev.node, ev.port, false);
      break;
    case FaultKind::kStuck:
      ++state(ev.node, ev.port).stuck;
      ++stats_.stuck_windows;
      notify(ev.node, ev.port, false);
      break;
    case FaultKind::kSlow:
      state(ev.node, ev.port).slow.push_back(ev.factor);
      ++stats_.slow_windows;
      notify(ev.node, ev.port, false);
      break;
    case FaultKind::kCorrupt:
      state(ev.node, ev.port).corrupt.push_back(ev.probability);
      break;
    case FaultKind::kDrop:
      state(ev.node, ev.port).drop.push_back(ev.probability);
      break;
    case FaultKind::kOverload:
      sim_.set_flow_overdrive(ev.flow, ev.factor);
      ++stats_.overload_bursts;
      break;
  }
}

void FaultInjector::disengage(const FaultEvent& ev) {
  const auto erase_one = [](std::vector<double>& v, double value) {
    const auto it = std::find(v.begin(), v.end(), value);
    assert(it != v.end());
    v.erase(it);
  };
  switch (ev.kind) {
    case FaultKind::kLinkFlap:
      set_link_down(ev.node, ev.port, false);
      notify(ev.node, ev.port, true);
      break;
    case FaultKind::kStuck:
      --state(ev.node, ev.port).stuck;
      sim_.kick_port(ev.node, ev.port);
      notify(ev.node, ev.port, true);
      break;
    case FaultKind::kSlow:
      erase_one(state(ev.node, ev.port).slow, ev.factor);
      notify(ev.node, ev.port, true);
      break;
    case FaultKind::kCorrupt:
      erase_one(state(ev.node, ev.port).corrupt, ev.probability);
      break;
    case FaultKind::kDrop:
      erase_one(state(ev.node, ev.port).drop, ev.probability);
      break;
    case FaultKind::kOverload:
      sim_.set_flow_overdrive(ev.flow, 1.0);
      break;
  }
}

bool FaultInjector::may_transmit(iba::NodeId node, iba::PortIndex port) {
  const auto* s = find_state(node, port);
  return s == nullptr || (s->down == 0 && s->stuck == 0);
}

iba::Cycle FaultInjector::stretch_serialization(iba::NodeId node,
                                                iba::PortIndex port,
                                                iba::Cycle cycles) {
  const auto* s = find_state(node, port);
  if (s == nullptr || s->slow.empty()) return cycles;
  const double factor = *std::max_element(s->slow.begin(), s->slow.end());
  // Saturate before the cast, as arbtable::bandwidth_to_weight does:
  // casting a double beyond Cycle's range is undefined. 2^62 cycles outlast
  // any run, and the simulator's `now + cycles` cannot wrap.
  const double stretched =
      std::min(0x1p62, static_cast<double>(cycles) * factor);
  return std::max(cycles, static_cast<iba::Cycle>(stretched));
}

sim::FaultHooks::RxVerdict FaultInjector::on_link_rx(iba::NodeId node,
                                                     iba::PortIndex port,
                                                     const iba::Packet&) {
  const auto* s = find_state(node, port);
  if (s == nullptr) return RxVerdict::kDeliver;

  if (!s->drop.empty()) {
    const double prob = *std::max_element(s->drop.begin(), s->drop.end());
    if (rng_.chance(prob)) {
      ++stats_.dropped_packets;
      return RxVerdict::kDrop;
    }
  }
  if (!s->corrupt.empty()) {
    const double prob =
        *std::max_element(s->corrupt.begin(), s->corrupt.end());
    if (rng_.chance(prob)) {
      ++stats_.corrupt_attempts;
      // Two draws pick the damage model (7 in 10 a single-bit flip, 2 in 10
      // a burst, 1 in 10 a truncation) and where it lands. The receiver
      // catches each model whatever the draws: CRC-32 and CRC-16 both
      // detect every single-bit error, CRC-32 detects every burst of 32
      // bits or fewer (the bursts drawn here span 2 to 32), and a truncated
      // packet disagrees with its LRH length field. So every damaged packet
      // is dropped, and crc_escaped stays 0. The draws are kept so the
      // (plan, seed) stream is unchanged.
      (void)rng_.below(10);
      (void)rng_.next();
      ++stats_.crc_rejected;
      return RxVerdict::kDrop;
    }
  }
  return RxVerdict::kDeliver;
}

}  // namespace ibarb::faults
