#include "control/churn_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ibarb::control {

namespace {

/// Operation mix: the share of arrivals that are teardowns (the rest split
/// into ChurnConfig::modify_fraction re-rates and setups).
constexpr double kTeardownFraction = 0.30;
/// Guaranteed-setup retry backoff: kRetryBase << min(attempt,
/// kBackoffShiftCap) plus jitter; the client gives up after kMaxRetries.
constexpr iba::Cycle kRetryBase = 20'000;
constexpr unsigned kBackoffShiftCap = 5;
constexpr unsigned kMaxRetries = 8;
/// Full-audit cadence, in ticks.
constexpr unsigned kAuditEvery = 8;

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// The fixed constants stay in the mix so snapshot blobs keep their bytes.
std::uint64_t config_fingerprint(const ChurnConfig& cfg) {
  std::uint64_t h = 0x11b0c7a1ull;  // stable non-zero seed
  h = mix64(h, cfg.tick);
  h = mix64(h, cfg.horizon);
  h = mix64(h, cfg.arrivals_per_tick);
  h = mix64(h, cfg.serve_budget);
  h = mix64(h, cfg.queue_capacity);
  h = mix64(h, std::bit_cast<std::uint64_t>(cfg.zipf_s));
  h = mix64(h, std::bit_cast<std::uint64_t>(kTeardownFraction));
  h = mix64(h, std::bit_cast<std::uint64_t>(cfg.modify_fraction));
  h = mix64(h, std::bit_cast<std::uint64_t>(cfg.best_effort_fraction));
  h = mix64(h, std::bit_cast<std::uint64_t>(cfg.min_mbps));
  h = mix64(h, std::bit_cast<std::uint64_t>(cfg.max_mbps));
  h = mix64(h, kRetryBase);
  h = mix64(h, kBackoffShiftCap);
  h = mix64(h, kMaxRetries);
  h = mix64(h, kAuditEvery);
  h = mix64(h, cfg.seed);
  return h;
}

}  // namespace

ChurnEngine::ChurnEngine(sim::Simulator& sim,
                         qos::AdmissionControl& admission,
                         const network::FabricGraph& graph,
                         faults::FaultInjector* injector,
                         faults::RecoveryCoordinator* coordinator,
                         ChurnConfig cfg)
    : sim_(sim), admission_(admission), injector_(injector),
      coordinator_(coordinator), cfg_(cfg), hosts_(graph.hosts()),
      rng_(cfg.seed ^ 0xc412c412ull) {
  if (hosts_.size() < 2)
    throw std::invalid_argument("churn engine needs at least two hosts");
  if (cfg_.queue_capacity == 0 || cfg_.tick == 0)
    throw std::invalid_argument("churn config: zero tick or queue capacity");

  // Zipf CDF over the host list: host rank i gets weight (i+1)^-s. The CDF
  // is a pure function of (host count, s), so snapshot and restore worlds
  // compute the identical table and never need to serialize it.
  zipf_cdf_.reserve(hosts_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < hosts_.size(); ++i)
    total += std::pow(static_cast<double>(i + 1), -cfg_.zipf_s);
  double acc = 0.0;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    acc += std::pow(static_cast<double>(i + 1), -cfg_.zipf_s) / total;
    zipf_cdf_.push_back(acc);
  }
  zipf_cdf_.back() = 1.0;

  for (const auto& p : admission_.catalogue())
    (p.max_distance > 0 ? guaranteed_sls_ : best_effort_sls_).push_back(p.sl);
  if (guaranteed_sls_.empty())
    throw std::invalid_argument("catalogue has no guaranteed SLs");

  queues_.resize(hosts_.size());

  if (coordinator_ != nullptr)
    coordinator_->set_change_listener(
        [this](qos::ConnectionId old_id, qos::ConnectionId new_id) {
          on_coordinator_change(old_id, new_id);
        });

  probe_ = sim_.telemetry().add_probe([this](obs::Snapshot& snap) {
    snap.add_counter("ctl.submitted", stats_.submitted);
    snap.add_counter("ctl.backpressured", stats_.backpressured);
    snap.add_counter("ctl.load_shed", stats_.load_shed);
    snap.add_counter("ctl.admitted_guaranteed", stats_.admitted_guaranteed);
    snap.add_counter("ctl.admitted_best_effort", stats_.admitted_best_effort);
    snap.add_counter("ctl.be_rejected", stats_.be_rejected);
    snap.add_counter("ctl.retries", stats_.retries);
    snap.add_counter("ctl.gave_up", stats_.gave_up);
    snap.add_counter("ctl.teardowns", stats_.teardowns);
    snap.add_counter("ctl.modifies", stats_.modifies);
    snap.add_counter("ctl.modify_stale", stats_.modify_stale);
    snap.add_counter("ctl.modify_failed_restored",
                     stats_.modify_failed_restored);
    snap.add_counter("ctl.degradation_shed", stats_.degradation_shed);
    snap.add_counter("ctl.coord_remaps", stats_.coord_remaps);
    snap.add_counter("ctl.coord_losses", stats_.coord_losses);
    snap.add_counter("ctl.coord_restores", stats_.coord_restores);
    snap.add_counter("ctl.audits", stats_.audits);
    snap.add_counter("ctl.false_rejects", stats_.false_rejects);
    snap.add_counter("ctl.ticks", stats_.ticks);
    snap.merge_gauge("ctl.live_connections",
                     static_cast<double>(live_now()));
    snap.merge_gauge("ctl.queue_peak", queue_peak_, obs::MergePolicy::kMax);
    snap.merge_gauge("ctl.retry_peak", retry_peak_, obs::MergePolicy::kMax);
  });
}

ChurnEngine::~ChurnEngine() { sim_.telemetry().remove_probe(probe_); }

void ChurnEngine::start() {
  if (started_) throw std::logic_error("churn engine started twice");
  started_ = true;
  schedule_next_tick(sim_.now() + cfg_.tick);
}

void ChurnEngine::arm_snapshot(iba::Cycle not_before, SnapshotHook hook) {
  if (snapshot_hook_) throw std::logic_error("snapshot already armed");
  snapshot_at_ = not_before;
  snapshot_hook_ = std::move(hook);
}

bool ChurnEngine::quiescent() const noexcept {
  if (injector_ != nullptr && !injector_->quiescent()) return false;
  if (coordinator_ != nullptr && !coordinator_->quiescent()) return false;
  return true;
}

void ChurnEngine::schedule_next_tick(iba::Cycle at) {
  next_tick_ = at;
  if (at > cfg_.horizon) return;
  sim_.call_at(at, [this] { tick(); });
}

void ChurnEngine::tick() {
  ++tick_index_;
  ++stats_.ticks;
  serve_due_retries();
  generate_arrivals();
  serve_queues();
  if (tick_index_ % kAuditEvery == 0) run_audit();
  for (const auto& q : queues_)
    queue_peak_ = std::max(queue_peak_, static_cast<double>(q.size()));
  retry_peak_ = std::max(retry_peak_, static_cast<double>(retries_.size()));
  // The next tick is scheduled before a snapshot hook may run, so the
  // serialized next_tick_ is the one a restored world must re-schedule —
  // and re-serializing restored state reproduces the field bit-exactly.
  schedule_next_tick(sim_.now() + cfg_.tick);
  maybe_snapshot();
}

void ChurnEngine::maybe_snapshot() {
  if (!snapshot_hook_ || sim_.now() < snapshot_at_) return;
  if (!quiescent()) {
    ++deferrals_;
    return;
  }
  // At this point the pending event queue holds only armed tail fault
  // events plus the just-scheduled next tick — exactly what a restored
  // world rebuilds (arm tail plan, then load_state). One-shot.
  auto hook = std::move(snapshot_hook_);
  snapshot_hook_ = nullptr;
  hook(sim_.now());
}

std::size_t ChurnEngine::pick_zipf_host() {
  const double u = rng_.uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<std::size_t>(it - zipf_cdf_.begin());
}

qos::ConnectionRequest ChurnEngine::make_request(bool best_effort) {
  qos::ConnectionRequest req;
  const std::size_t src = pick_zipf_host();
  std::size_t dst = static_cast<std::size_t>(rng_.below(hosts_.size() - 1));
  if (dst >= src) ++dst;
  req.src_host = hosts_[src];
  req.dst_host = hosts_[dst];
  const auto& pool = best_effort ? best_effort_sls_ : guaranteed_sls_;
  req.sl = pool[rng_.below(pool.size())];
  req.max_distance =
      qos::find_sl(admission_.catalogue(), req.sl)->max_distance;
  if (req.max_distance == 0) req.max_distance = iba::kArbTableEntries;
  req.wire_mbps = rng_.uniform(cfg_.min_mbps, cfg_.max_mbps);
  return req;
}

void ChurnEngine::generate_arrivals() {
  // Deterministic bounded burst: 0..2*mean arrivals, uniform.
  const auto n = rng_.below(2 * cfg_.arrivals_per_tick + 1);
  for (std::uint64_t i = 0; i < n; ++i) {
    ++stats_.submitted;
    const double roll = rng_.uniform();
    if (roll < kTeardownFraction) {
      do_teardown();
      continue;
    }
    Op op;
    if (roll < kTeardownFraction + cfg_.modify_fraction &&
        !live_guaranteed_.empty()) {
      // Re-rate an existing guaranteed connection.
      op.kind = OpKind::kModify;
      op.target =
          live_guaranteed_[rng_.below(live_guaranteed_.size())];
      op.request = admission_.connection(op.target).request;
      op.request.wire_mbps = rng_.uniform(cfg_.min_mbps, cfg_.max_mbps);
    } else {
      const bool be = rng_.uniform() < cfg_.best_effort_fraction;
      op.kind = be ? OpKind::kSetupBestEffort : OpKind::kSetupGuaranteed;
      op.request = make_request(be);
    }
    // Find the queue of the operation's source host.
    const auto host_it =
        std::find(hosts_.begin(), hosts_.end(), op.request.src_host);
    auto& q = queues_[static_cast<std::size_t>(host_it - hosts_.begin())];
    if (op.kind == OpKind::kSetupBestEffort &&
        q.size() * 4 >= static_cast<std::size_t>(cfg_.queue_capacity) * 3) {
      // Load shedding: best-effort is refused at the high-water mark so a
      // storm of arrivals can never crowd out guaranteed work.
      ++stats_.load_shed;
      continue;
    }
    if (q.size() >= cfg_.queue_capacity) {
      if (op.kind == OpKind::kSetupGuaranteed) {
        // Backpressure: the client retries with capped exponential backoff.
        ++stats_.backpressured;
        schedule_retry(std::move(op));
      } else {
        ++stats_.load_shed;
      }
      continue;
    }
    q.push_back(std::move(op));
  }
}

void ChurnEngine::serve_queues() {
  if (queues_.empty()) return;
  unsigned budget = cfg_.serve_budget;
  std::size_t idle_scans = 0;
  while (budget > 0 && idle_scans < queues_.size()) {
    auto& q = queues_[rr_];
    rr_ = (rr_ + 1) % queues_.size();
    if (q.empty()) {
      ++idle_scans;
      continue;
    }
    idle_scans = 0;
    Op op = std::move(q.front());
    q.pop_front();
    execute(op);
    --budget;
  }
}

void ChurnEngine::serve_due_retries() {
  // Served strictly in ledger order; backoffs scheduled while serving land
  // in the fresh ledger and are not re-examined this tick.
  std::vector<Retry> pending;
  pending.swap(retries_);
  for (auto& r : pending) {
    if (r.due > sim_.now()) {
      retries_.push_back(std::move(r));
      continue;
    }
    ++stats_.retries;
    execute(r.op);
  }
}

void ChurnEngine::execute(Op& op) {
  switch (op.kind) {
    case OpKind::kSetupGuaranteed: do_setup_guaranteed(op); break;
    case OpKind::kSetupBestEffort: do_setup_best_effort(op); break;
    case OpKind::kModify: do_modify(op); break;
  }
}

void ChurnEngine::do_setup_guaranteed(Op& op) {
  auto res = admission_.request_degrading(op.request);
  for (const auto victim : res.shed) {
    // Engine-initiated degradation: the victim is gone for good (unlike
    // coordinator sheds, which stay tracked for post-repair restore).
    if (coordinator_ != nullptr) coordinator_->untrack(victim);
    drop_live(victim);
    admission_.forget(victim);
    ++stats_.degradation_shed;
  }
  if (res.id) {
    if (coordinator_ != nullptr)
      coordinator_->track(*res.id, faults::kNoFlow);
    live_guaranteed_.push_back(*res.id);
    ++stats_.admitted_guaranteed;
    return;
  }
  // Refused. If every hop still had room this is a Theorem-1 false reject
  // — the property the whole service exists to disprove.
  if (admission_.can_admit_path(op.request)) ++stats_.false_rejects;
  if (op.attempt >= kMaxRetries) {
    ++stats_.gave_up;
    return;
  }
  schedule_retry(op);
}

void ChurnEngine::do_setup_best_effort(const Op& op) {
  const auto id = admission_.request_best_effort(op.request);
  if (!id) {
    // Best-effort is never retried: rejection IS the load-shedding answer.
    ++stats_.be_rejected;
    return;
  }
  if (coordinator_ != nullptr)
    coordinator_->track_best_effort(*id, faults::kNoFlow);
  live_best_effort_.push_back(*id);
  ++stats_.admitted_best_effort;
}

void ChurnEngine::do_modify(const Op& op) {
  if (!admission_.is_live(op.target)) {
    // Torn down, suspended or shed while queued.
    ++stats_.modify_stale;
    return;
  }
  const auto old_req = admission_.connection(op.target).request;
  admission_.release(op.target);
  if (coordinator_ != nullptr) coordinator_->untrack(op.target);
  drop_live(op.target);
  admission_.forget(op.target);

  const auto id = admission_.request(op.request);
  if (id) {
    if (coordinator_ != nullptr) coordinator_->track(*id, faults::kNoFlow);
    live_guaranteed_.push_back(*id);
    ++stats_.modifies;
    return;
  }
  // The new rate did not fit. Re-admitting the old one uses exactly the
  // capacity the release freed, so by Theorem 1 it cannot fail.
  const auto back = admission_.request(old_req);
  if (!back) {
    ++stats_.false_rejects;
    return;
  }
  if (coordinator_ != nullptr) coordinator_->track(*back, faults::kNoFlow);
  live_guaranteed_.push_back(*back);
  ++stats_.modify_failed_restored;
}

void ChurnEngine::do_teardown() {
  const auto total = live_guaranteed_.size() + live_best_effort_.size();
  if (total == 0) return;
  const auto pick = rng_.below(total);
  auto& pool = pick < live_guaranteed_.size() ? live_guaranteed_
                                              : live_best_effort_;
  const auto idx = pick < live_guaranteed_.size()
                       ? pick
                       : pick - live_guaranteed_.size();
  const auto id = pool[idx];
  pool.erase(pool.begin() + static_cast<long>(idx));
  if (admission_.is_live(id)) admission_.release(id);
  if (coordinator_ != nullptr) coordinator_->untrack(id);
  admission_.forget(id);
  ++stats_.teardowns;
}

void ChurnEngine::schedule_retry(Op op) {
  const auto shift = std::min(op.attempt, kBackoffShiftCap);
  const iba::Cycle base = kRetryBase << shift;
  const iba::Cycle jitter = rng_.below(kRetryBase);
  ++op.attempt;
  retries_.push_back(Retry{sim_.now() + base + jitter, std::move(op)});
}

void ChurnEngine::run_audit() {
  std::string why;
  if (!admission_.audit_full(&why))
    throw std::runtime_error("churn audit failed at cycle " +
                             std::to_string(sim_.now()) + ": " + why);
  ++stats_.audits;
}

void ChurnEngine::drop_live(qos::ConnectionId id) {
  for (auto* pool : {&live_guaranteed_, &live_best_effort_}) {
    const auto it = std::find(pool->begin(), pool->end(), id);
    if (it != pool->end()) {
      pool->erase(it);
      return;
    }
  }
}

void ChurnEngine::on_coordinator_change(qos::ConnectionId old_id,
                                        qos::ConnectionId new_id) {
  if (new_id == 0) {
    // Suspended or shed by the coordinator: the id is dead, but the
    // coordinator still tracks the connection and may restore it later.
    drop_live(old_id);
    ++stats_.coord_losses;
    return;
  }
  for (auto* pool : {&live_guaranteed_, &live_best_effort_}) {
    const auto it = std::find(pool->begin(), pool->end(), old_id);
    if (it != pool->end()) {
      *it = new_id;  // rerouted in place: ordering stays deterministic
      ++stats_.coord_remaps;
      return;
    }
  }
  // A connection we dropped at suspension time coming back after repair.
  const auto cat = admission_.connection(new_id).category;
  const bool guaranteed = cat == qos::TrafficCategory::kDbts ||
                          cat == qos::TrafficCategory::kDb;
  (guaranteed ? live_guaranteed_ : live_best_effort_).push_back(new_id);
  ++stats_.coord_restores;
}

// --- Snapshot state ---------------------------------------------------------

void ChurnEngine::save_op(util::BinWriter& w, const Op& op) {
  w.put_u8(static_cast<std::uint8_t>(op.kind));
  w.put_u32(op.request.src_host);
  w.put_u32(op.request.dst_host);
  w.put_u8(op.request.sl);
  w.put_u32(op.request.max_distance);
  w.put_double(op.request.wire_mbps);
  w.put_u32(op.attempt);
  w.put_u32(op.target);
}

ChurnEngine::Op ChurnEngine::load_op(util::BinReader& r) {
  Op op;
  op.kind = static_cast<OpKind>(r.get_u8());
  op.request.src_host = r.get_u32();
  op.request.dst_host = r.get_u32();
  op.request.sl = r.get_u8();
  op.request.max_distance = r.get_u32();
  op.request.wire_mbps = r.get_double();
  op.attempt = r.get_u32();
  op.target = r.get_u32();
  return op;
}

void ChurnEngine::save_state(util::BinWriter& w) const {
  w.put_u64(config_fingerprint(cfg_));
  for (const auto s : rng_.state()) w.put_u64(s);
  w.put_u64(tick_index_);
  w.put_u64(rr_);
  w.put_u64(queues_.size());
  for (const auto& q : queues_) {
    w.put_u64(q.size());
    for (const auto& op : q) save_op(w, op);
  }
  w.put_u64(retries_.size());
  for (const auto& r : retries_) {
    w.put_u64(r.due);
    save_op(w, r.op);
  }
  w.put_u64(live_guaranteed_.size());
  for (const auto id : live_guaranteed_) w.put_u32(id);
  w.put_u64(live_best_effort_.size());
  for (const auto id : live_best_effort_) w.put_u32(id);
  const std::uint64_t counters[] = {
      stats_.submitted, stats_.backpressured, stats_.load_shed,
      stats_.admitted_guaranteed, stats_.admitted_best_effort,
      stats_.be_rejected, stats_.retries, stats_.gave_up, stats_.teardowns,
      stats_.modifies, stats_.modify_stale, stats_.modify_failed_restored,
      stats_.degradation_shed, stats_.coord_remaps, stats_.coord_losses,
      stats_.coord_restores, stats_.audits, stats_.false_rejects,
      stats_.ticks};
  for (const auto c : counters) w.put_u64(c);
  w.put_double(queue_peak_);
  w.put_double(retry_peak_);
  w.put_u64(next_tick_);
}

void ChurnEngine::load_state(util::BinReader& r) {
  if (r.get_u64() != config_fingerprint(cfg_))
    throw std::runtime_error(
        "snapshot was taken under a different ChurnConfig");
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.get_u64();
  rng_.set_state(state);
  tick_index_ = r.get_u64();
  rr_ = static_cast<std::size_t>(r.get_u64());
  const auto queue_count = r.get_u64();
  if (queue_count != queues_.size())
    throw std::runtime_error("snapshot host-queue count mismatch");
  for (auto& q : queues_) {
    q.clear();
    const auto n = r.get_length();
    for (std::size_t i = 0; i < n; ++i) q.push_back(load_op(r));
  }
  retries_.clear();
  const auto retry_count = r.get_length();
  for (std::size_t i = 0; i < retry_count; ++i) {
    Retry rt;
    rt.due = r.get_u64();
    rt.op = load_op(r);
    retries_.push_back(std::move(rt));
  }
  live_guaranteed_.clear();
  const auto g = r.get_length();
  for (std::size_t i = 0; i < g; ++i) live_guaranteed_.push_back(r.get_u32());
  live_best_effort_.clear();
  const auto b = r.get_length();
  for (std::size_t i = 0; i < b; ++i)
    live_best_effort_.push_back(r.get_u32());
  std::uint64_t* const counters[] = {
      &stats_.submitted, &stats_.backpressured, &stats_.load_shed,
      &stats_.admitted_guaranteed, &stats_.admitted_best_effort,
      &stats_.be_rejected, &stats_.retries, &stats_.gave_up,
      &stats_.teardowns, &stats_.modifies, &stats_.modify_stale,
      &stats_.modify_failed_restored, &stats_.degradation_shed,
      &stats_.coord_remaps, &stats_.coord_losses, &stats_.coord_restores,
      &stats_.audits, &stats_.false_rejects, &stats_.ticks};
  for (auto* c : counters) *c = r.get_u64();
  queue_peak_ = r.get_double();
  retry_peak_ = r.get_double();
  const auto next_tick = r.get_u64();
  started_ = true;
  schedule_next_tick(next_tick);
}

}  // namespace ibarb::control
