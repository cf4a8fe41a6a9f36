#include "qos/dynamic.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "traffic/cbr.hpp"

namespace ibarb::qos {

std::size_t DynamicScenario::add(ScheduledConnection sc) {
  if (sc.depart != iba::kNeverCycle && sc.depart <= sc.arrive)
    throw std::invalid_argument("departure must follow arrival");
  if (sc.arrive < sim_.now())
    throw std::invalid_argument("arrival time already passed");
  script_.push_back(std::move(sc));
  return script_.size() - 1;
}

void DynamicScenario::process(const PendingEvent& ev) {
  ScheduledConnection& sc = script_[ev.index];
  if (!ev.is_departure) {
    const auto id = admission_.request(sc.request);
    if (!id) {
      sc.state = ScheduledConnection::State::kRejected;
      ++rejected_;
      return;
    }
    sc.id = *id;
    sc.state = ScheduledConnection::State::kActive;
    ++admitted_;
    admission_.program(sim_);  // tables changed along the path
    auto spec = traffic::make_cbr_flow(
        sc.request.src_host, sc.request.dst_host, sc.request.sl,
        sc.payload_bytes, sc.request.wire_mbps,
        admission_.connection(*id).deadline,
        /*seed=*/0x5eed0000 + ev.index, sc.oversend_factor);
    spec.start_offset = sim_.now();
    sc.flow = sim_.add_flow(spec);
    return;
  }
  if (sc.state != ScheduledConnection::State::kActive) return;  // was refused
  admission_.release(*sc.id);
#ifndef NDEBUG
  {
    // Post-release audit: the defragmenter must have restored the entry-set
    // invariant.
    std::string why;
    assert(admission_.check_all_invariants(&why) && "post-release table audit");
  }
#endif
  admission_.program(sim_);  // defragmentation may have moved sequences
  sim_.stop_flow(*sc.flow);
  sc.state = ScheduledConnection::State::kDeparted;
  ++released_;
}

void DynamicScenario::run_until(iba::Cycle t) {
  // Gather outstanding script events up to t, time-ordered (stable on ties:
  // departures before arrivals at the same instant, freeing room first).
  std::vector<PendingEvent> events;
  for (std::size_t i = 0; i < script_.size(); ++i) {
    const auto& sc = script_[i];
    if (sc.state == ScheduledConnection::State::kPending &&
        sc.arrive <= t && sc.arrive >= sim_.now())
      events.push_back(PendingEvent{sc.arrive, i, false});
    if (sc.depart != iba::kNeverCycle && sc.depart <= t &&
        sc.depart >= sim_.now() &&
        (sc.state == ScheduledConnection::State::kPending ||
         sc.state == ScheduledConnection::State::kActive))
      events.push_back(PendingEvent{sc.depart, i, true});
  }
  std::sort(events.begin(), events.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.is_departure != b.is_departure) return a.is_departure;
              return a.index < b.index;
            });
  for (const auto& ev : events) {
    sim_.run_until(ev.time);
    process(ev);
  }
  sim_.run_until(t);
}

}  // namespace ibarb::qos
