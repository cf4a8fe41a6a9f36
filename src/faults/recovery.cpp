#include "faults/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ibarb::faults {

RecoveryCoordinator::RecoveryCoordinator(sim::Simulator& sim,
                                         const network::FabricGraph& graph,
                                         subnet::SubnetManager& sm,
                                         qos::AdmissionControl& admission,
                                         FaultInjector& injector)
    : sim_(sim), graph_(graph), sm_(sm), admission_(admission),
      injector_(injector) {
  injector_.set_link_state_listener(
      [this](iba::NodeId node, iba::PortIndex port, bool healthy,
             iba::Cycle now) { on_link_state(node, port, healthy, now); });
  probe_ = sim_.telemetry().add_probe([this](obs::Snapshot& snap) {
    snap.add_counter("recovery.resweeps", stats_.resweeps);
    snap.add_counter("recovery.failed_resweeps", stats_.failed_resweeps);
    snap.add_counter("recovery.smps_sent", stats_.smps_sent);
    snap.add_counter("recovery.rerouted", stats_.rerouted);
    snap.add_counter("recovery.suspended", stats_.suspended);
    snap.add_counter("recovery.suspended_guaranteed",
                     stats_.suspended_guaranteed);
    snap.add_counter("recovery.suspended_best_effort",
                     stats_.suspended_best_effort);
    snap.add_counter("recovery.restored", stats_.restored);
    snap.add_counter("recovery.shed_best_effort", stats_.shed_best_effort);
    snap.add_counter("recovery.purged_in_flight", stats_.purged_in_flight);
    snap.add_counter("recovery.guarantee_revocations",
                     stats_.guarantee_revocations);
    snap.merge_gauge("recovery.max_recovery_latency",
                     static_cast<double>(stats_.max_recovery_latency),
                     obs::MergePolicy::kMax);
  });
}

RecoveryCoordinator::~RecoveryCoordinator() {
  sim_.telemetry().remove_probe(probe_);
}

void RecoveryCoordinator::track(qos::ConnectionId id, std::uint32_t flow) {
  Tracked t;
  t.id = id;
  t.flow = flow;
  t.guaranteed = true;
  t.request = admission_.connection(id).request;
  tracked_.push_back(std::move(t));
}

void RecoveryCoordinator::track_best_effort(qos::ConnectionId id,
                                            std::uint32_t flow) {
  Tracked t;
  t.id = id;
  t.flow = flow;
  t.guaranteed = false;
  t.request = admission_.connection(id).request;
  tracked_.push_back(std::move(t));
}

void RecoveryCoordinator::untrack(qos::ConnectionId id) {
  const auto it = std::find_if(tracked_.begin(), tracked_.end(),
                               [id](const Tracked& t) { return t.id == id; });
  if (it != tracked_.end()) tracked_.erase(it);
}

unsigned RecoveryCoordinator::suspended_now() const {
  return static_cast<unsigned>(
      std::count_if(tracked_.begin(), tracked_.end(),
                    [](const Tracked& t) { return !t.active; }));
}

void RecoveryCoordinator::import_tracked(const std::vector<Tracked>& tracked) {
  if (!quiescent())
    throw std::logic_error("import_tracked while recovery is in flight");
  tracked_ = tracked;
}

void RecoveryCoordinator::on_link_state(iba::NodeId node, iba::PortIndex port,
                                        bool healthy, iba::Cycle now) {
  // The trap names one endpoint; the whole link is affected, so keep both
  // ends in the avoid set (the re-sweep masks a link if either endpoint is
  // listed, and post-sweep queue flushes need both transmitters).
  std::vector<network::PortRef> ends{network::PortRef{node, port}};
  if (const auto peer = graph_.peer(node, port))
    ends.push_back(network::PortRef{peer->node, peer->port});
  for (const auto& end : ends) {
    if (healthy) {
      const auto it = std::find(avoid_.begin(), avoid_.end(), end);
      if (it != avoid_.end()) avoid_.erase(it);
    } else {
      avoid_.push_back(end);
    }
  }
  // Coalesce traps arriving within one reaction window into a single
  // re-sweep, timed from the first of them.
  if (!repair_pending_) {
    repair_pending_ = true;
    first_trap_ = now;
    sim_.call_at(now + kSmReactionDelay,
                 [this] { repair(first_trap_); });
  }
}

bool RecoveryCoordinator::path_matches_routes(const Tracked& t) const {
  const auto& hops = admission_.connection(t.id).hops;
  const auto path =
      sm_.routes().path(t.request.src_host, t.request.dst_host);
  if (hops.size() != path.size()) return false;
  for (std::size_t i = 0; i < hops.size(); ++i)
    if (!(hops[i].port == path[i])) return false;
  return true;
}

bool RecoveryCoordinator::path_touches_blocked(const Tracked& t) {
  const auto& hops = admission_.connection(t.id).hops;
  return std::any_of(hops.begin(), hops.end(),
                     [&](const qos::HopReservation& h) {
                       return !injector_.may_transmit(h.port.node,
                                                      h.port.port);
                     });
}

void RecoveryCoordinator::suspend(Tracked& t, bool routes_ok) {
  if (admission_.is_live(t.id)) admission_.release(t.id);
  if (t.active) {
    if (t.flow != kNoFlow) sim_.stop_flow(t.flow);
    t.active = false;
    ++stats_.suspended;
    ++(t.guaranteed ? stats_.suspended_guaranteed
                    : stats_.suspended_best_effort);
    if (obs::SeriesRecorder* s = sim_.series())
      if (t.flow != kNoFlow)
        s->record_transition(sim_.now(),
                             obs::SeriesTransition::Kind::kSuspended, t.flow);
    if (change_listener_) change_listener_(t.id, 0);
  }
  // A guaranteed connection refused while sheddable best-effort capacity
  // remained on its (routable) path would break the degradation contract.
  if (t.guaranteed && routes_ok) {
    const auto path =
        sm_.routes().path(t.request.src_host, t.request.dst_host);
    for (const auto& other : tracked_) {
      if (other.guaranteed || !other.active || !admission_.is_live(other.id))
        continue;
      const auto& hops = admission_.connection(other.id).hops;
      const bool overlaps = std::any_of(
          hops.begin(), hops.end(), [&](const qos::HopReservation& h) {
            return std::find(path.begin(), path.end(), h.port) != path.end();
          });
      if (overlaps) {
        ++stats_.guarantee_revocations;
        break;
      }
    }
  }
}

bool RecoveryCoordinator::readmit(Tracked& t, bool count_as_restore) {
  std::optional<qos::ConnectionId> id;
  if (t.guaranteed) {
    auto res = admission_.request_degrading(t.request);
    // Stop the flows of any best-effort connections shed to make room.
    for (const auto victim_id : res.shed) {
      for (auto& other : tracked_) {
        if (other.id == victim_id && other.active && !other.guaranteed) {
          if (other.flow != kNoFlow) sim_.stop_flow(other.flow);
          other.active = false;
          ++stats_.shed_best_effort;
          if (obs::SeriesRecorder* s = sim_.series())
            if (other.flow != kNoFlow)
              s->record_transition(sim_.now(),
                                   obs::SeriesTransition::Kind::kShed,
                                   other.flow);
          if (change_listener_) change_listener_(other.id, 0);
        }
      }
    }
    id = res.id;
  } else {
    id = admission_.request_best_effort(t.request);
  }
  if (!id) return false;

  const auto old_id = t.id;
  t.id = *id;
  if (change_listener_ && old_id != t.id) change_listener_(old_id, t.id);
  // A re-route may legitimately reuse a port that an earlier repair
  // abandoned this flow on: lift any purge barrier along the new path.
  if (t.flow != kNoFlow)
    for (const auto& h : admission_.connection(t.id).hops)
      if (graph_.is_switch(h.port.node))
        sim_.clear_flow_purge(h.port.node, h.port.port, t.flow);
  // The detour may be longer: refresh the metrics deadline so misses are
  // judged against the guarantee of the path actually in use.
  auto& metrics = sim_.metrics();
  if (t.flow != kNoFlow && t.flow < metrics.connections.size())
    metrics.connections[t.flow].deadline = admission_.connection(t.id).deadline;
  if (!t.active) {
    if (t.flow != kNoFlow) sim_.resume_flow(t.flow);
    t.active = true;
    if (count_as_restore) {
      ++stats_.restored;
      if (obs::SeriesRecorder* s = sim_.series())
        if (t.flow != kNoFlow)
          s->record_transition(sim_.now(),
                               obs::SeriesTransition::Kind::kRestored, t.flow);
    }
  }
  if (t.active && !count_as_restore) {
    ++stats_.rerouted;
    if (obs::SeriesRecorder* s = sim_.series())
      if (t.flow != kNoFlow)
        s->record_transition(sim_.now(),
                             obs::SeriesTransition::Kind::kRerouted, t.flow);
  }
  return true;
}

void RecoveryCoordinator::repair(iba::Cycle fault_time) {
  repair_pending_ = false;
  const auto report = sm_.resweep(sim_, avoid_);
  ++stats_.resweeps;
  stats_.smps_sent += report.smps_sent;
  if (!report.routes_changed) ++stats_.failed_resweeps;

  if (report.routes_changed) {
    // Release every live tracked connection whose reservation no longer
    // matches the new routes, then re-admit over them — guaranteed classes
    // first so degradation can shed best-effort load for them.
    struct StaleEntry {
      Tracked* t;
      std::vector<network::PortRef> old_switch_hops;
    };
    std::vector<StaleEntry> stale;
    for (auto& t : tracked_) {
      if (!t.active || !admission_.is_live(t.id)) continue;
      if (path_matches_routes(t)) continue;
      StaleEntry e{&t, {}};
      for (const auto& h : admission_.connection(t.id).hops)
        if (graph_.is_switch(h.port.node))
          e.old_switch_hops.push_back(h.port);
      stale.push_back(std::move(e));
    }
    for (const auto& e : stale) admission_.release(e.t->id);
    std::stable_partition(
        stale.begin(), stale.end(),
        [](const StaleEntry& e) { return e.t->guaranteed; });
    for (auto& e : stale) {
      const bool ok = readmit(*e.t, /*count_as_restore=*/false);
      if (!ok) suspend(*e.t, true);
      // Abandon in-flight packets on old-path ports the connection no
      // longer uses: their VL's arbitration weight moved away with the
      // reservation, so anything left queued would starve until some
      // unrelated reprogram revived the VL — and then arrive absurdly
      // late. A reroute drops them instead (RC retransmission or the
      // source's next packets recover the stream).
      std::vector<network::PortRef> keep;
      if (ok)
        for (const auto& h : admission_.connection(e.t->id).hops)
          keep.push_back(h.port);
      for (const auto& port : e.old_switch_hops) {
        if (e.t->flow == kNoFlow) break;
        if (std::find(keep.begin(), keep.end(), port) != keep.end())
          continue;
        stats_.purged_in_flight +=
            sim_.purge_flow_from_output(port.node, port.port, e.t->flow);
      }
    }
    // Links may have come back: give previously suspended connections
    // another chance, guaranteed classes first.
    for (const bool want_guaranteed : {true, false}) {
      for (auto& t : tracked_) {
        if (t.active || t.guaranteed != want_guaranteed) continue;
        readmit(t, /*count_as_restore=*/true);
      }
    }
  } else {
    // Fail-static (partitioned or unroutable fabric): the old forwarding
    // state stays installed. Park every connection whose path crosses a
    // blocked port so it stops pouring packets into a dead transmitter.
    for (auto& t : tracked_) {
      if (!t.active || !admission_.is_live(t.id)) continue;
      if (path_touches_blocked(t)) suspend(t, false);
    }
  }

  // Anything that accumulated behind a blocked transmitter between the
  // fault and the reprogram is hardware-discarded now.
  for (const auto& end : avoid_)
    if (!injector_.may_transmit(end.node, end.port))
      sim_.flush_output_queue(end.node, end.port);

  admission_.program(sim_);
  audit();

  const iba::Cycle latency = (sim_.now() - fault_time) +
                             static_cast<iba::Cycle>(report.smps_sent) *
                                 kMadCycles;
  stats_.last_recovery_latency = latency;
  stats_.max_recovery_latency = std::max(stats_.max_recovery_latency, latency);
}

void RecoveryCoordinator::audit() {
#ifndef NDEBUG
  std::string why;
  assert(admission_.check_all_invariants(&why) && "post-recovery table audit");
#endif
}

}  // namespace ibarb::faults
