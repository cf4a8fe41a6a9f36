// admission-churn: one closed-loop caller against qos::AdmissionControl on
// the paper fabric, with no simulation events. The Table-1 workload is
// preloaded and released down to a fixed number of live connections. Then a
// seeded Zipf stream of guaranteed and best-effort setups, teardowns and
// re-rates runs at that occupancy: a teardown follows whenever a setup
// pushed the live count above it, so both admissions and refusals stay
// frequent. (At full occupancy nearly every request is a cheap refusal.)
// The stream draws its requests as control::ChurnEngine does, with that
// engine's default ChurnConfig; only its teardown share is replaced by the
// occupancy balance. The stream's first operations are an unmeasured
// warm-up: the released preload is not the stream's stationary mix, which
// the acceptance reaches within ~200k operations.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>

#include "control/churn_engine.hpp"
#include "qos/traffic_classes.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ibarb::qos::ConnectionId;
using ibarb::qos::ConnectionRequest;

/// The request stream: source-host Zipf exponent, re-rate share, best-effort
/// share of setups and the requested rate range, all as the repository's
/// churn service (bench_churn) draws them.
constexpr ibarb::control::ChurnConfig kStream{};

/// Live connections the stream holds. A count, not a share of the preload:
/// the preload size varies with the seed, and the stationary acceptance
/// follows the live count (with kStream: 0.80 of guaranteed setups admitted
/// at 300 live, 0.74 at 400, 0.58 at 700, 0.41 at 1200, 0.15 at 3000). At
/// about three quarters admitted, refusals stay common and the median
/// request() lies among admissions, clear of the cheap-refusal mode.
constexpr std::size_t kLiveTarget = 400;
/// Measured operations per timed block (fastest_blocks).
constexpr std::uint64_t kBlockOps = 10'000;

struct ChurnWorkload {
  FabricConfig fabric;
  std::uint64_t warmup_ops = 0;  ///< Unmeasured operations per repeat.
  std::uint64_t ops = 0;         ///< Measured operations per repeat.
  double min_run_s = 0.0;
};

struct Repeat : RepeatBase {
  std::uint64_t ops = 0;
  std::uint64_t guaranteed_attempts = 0;
  std::uint64_t guaranteed_admitted = 0;
  std::uint64_t false_rejects = 0;
  LatencyHistogram request_us;  ///< Guaranteed request() calls.
  LatencyHistogram release_us;
  LatencyHistogram can_admit_us;
  double audit_ms = 0.0;
  bool audit_ok = true;
  ibarb::obs::Snapshot snap;
};

/// The closed-loop caller: generates each request from its own seeded
/// stream, then times the admission call it issues.
class Caller {
 public:
  Caller(const Fabric& f, std::uint64_t seed, Repeat& r, Tracer* tracer)
      : admission_(*f.admission), r_(r), tracer_(tracer),
        hosts_(f.graph.hosts()), rng_(derive_seed(seed, 5)) {
    double total = 0.0;
    for (std::size_t i = 0; i < hosts_.size(); ++i)
      total += std::pow(static_cast<double>(i + 1), -kStream.zipf_s);
    double acc = 0.0;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      acc += std::pow(static_cast<double>(i + 1), -kStream.zipf_s) / total;
      zipf_cdf_.push_back(acc);
    }
    zipf_cdf_.back() = 1.0;
    for (const auto& p : admission_.catalogue())
      (p.max_distance > 0 ? guaranteed_sls_ : best_effort_sls_)
          .push_back(p.sl);
  }

  /// Releases a random share of the preloaded connections (set-up).
  void release_down(const ibarb::traffic::Workload& workload) {
    for (const auto& c : workload.connections) live_g_.push_back(c.id);
    while (live_g_.size() > kLiveTarget) teardown_from(live_g_, false);
    target_live_ = live_g_.size();
  }

  /// Runs the stream unmeasured; only false rejects and the digest carry
  /// over into the measured operations.
  void warm_up(std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) step();
    r_.ops = r_.guaranteed_attempts = r_.guaranteed_admitted = 0;
    r_.request_us = {};
    r_.release_us = {};
    r_.can_admit_us = {};
  }

  /// The measured operations, timed in blocks of kBlockOps.
  void run(std::uint64_t ops) {
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBlockOps, ops - done);
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < n; ++i) step();
      r_.block_s.push_back(seconds_between(t0, Clock::now()));
      done += n;
    }
  }

 private:
  void step() {
    ++r_.ops;
    if (live_g_.size() + live_be_.size() > target_live_) {
      const auto pick = rng_.below(live_g_.size() + live_be_.size());
      teardown_from(pick < live_g_.size() ? live_g_ : live_be_, true);
      return;
    }
    const double u = rng_.uniform();
    if (u < kStream.modify_fraction && !live_g_.empty()) {
      rerate();
    } else if (rng_.uniform() < kStream.best_effort_fraction) {
      setup_best_effort();
    } else {
      setup_guaranteed(make_request(false));
    }
  }

  std::size_t pick_zipf_host() {
    const double u = rng_.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
  }

  /// Drawn as ChurnEngine::make_request draws it.
  ConnectionRequest make_request(bool best_effort) {
    ConnectionRequest req;
    const std::size_t src = pick_zipf_host();
    std::size_t dst = static_cast<std::size_t>(rng_.below(hosts_.size() - 1));
    if (dst >= src) ++dst;
    req.src_host = hosts_[src];
    req.dst_host = hosts_[dst];
    const auto& pool = best_effort ? best_effort_sls_ : guaranteed_sls_;
    req.sl = pool[rng_.below(pool.size())];
    req.max_distance =
        ibarb::qos::find_sl(admission_.catalogue(), req.sl)->max_distance;
    if (req.max_distance == 0) req.max_distance = ibarb::iba::kArbTableEntries;
    req.wire_mbps = rng_.uniform(kStream.min_mbps, kStream.max_mbps);
    return req;
  }

  /// A guaranteed request(), timed; a refusal is cross-examined with
  /// can_admit_path (a refusal while every hop had room is a Theorem-1
  /// false reject).
  void setup_guaranteed(const ConnectionRequest& req) {
    ++r_.guaranteed_attempts;
    const auto t0 = Clock::now();
    const auto id = admission_.request(req);
    const auto t1 = Clock::now();
    r_.request_us.add(seconds_between(t0, t1) * 1e6);
    if (tracer_ != nullptr) tracer_->leaf("qos", "request", t0, t1);
    record(1, id);
    if (id) {
      ++r_.guaranteed_admitted;
      live_g_.push_back(*id);
      return;
    }
    const auto c0 = Clock::now();
    const bool room = admission_.can_admit_path(req);
    const auto c1 = Clock::now();
    r_.can_admit_us.add(seconds_between(c0, c1) * 1e6);
    if (tracer_ != nullptr) tracer_->leaf("qos", "can_admit_path", c0, c1);
    if (room) ++r_.false_rejects;
  }

  void setup_best_effort() {
    const auto req = make_request(true);
    const auto t0 = Clock::now();
    const auto id = admission_.request_best_effort(req);
    if (tracer_ != nullptr)
      tracer_->leaf("qos", "request_best_effort", t0, Clock::now());
    record(2, id);
    if (id) live_be_.push_back(*id);
  }

  /// Re-rate: release, then request the new rate; on refusal the old rate
  /// must come back (it uses exactly the capacity the release freed).
  void rerate() {
    const auto idx = rng_.below(live_g_.size());
    const ConnectionId target = live_g_[idx];
    auto req = admission_.connection(target).request;
    const auto old_req = req;
    live_g_[idx] = live_g_.back();
    live_g_.pop_back();
    release(target);
    req.wire_mbps = rng_.uniform(kStream.min_mbps, kStream.max_mbps);
    const auto t0 = Clock::now();
    auto id = admission_.request(req);
    if (!id) id = admission_.request(old_req);
    if (tracer_ != nullptr) tracer_->leaf("qos", "re-rate", t0, Clock::now());
    record(3, id);
    if (!id) {
      ++r_.false_rejects;
      return;
    }
    live_g_.push_back(*id);
  }

  /// Releases a random member of `pool`; `measured` teardowns are part of
  /// the stream (digested and timed), set-up ones are not.
  void teardown_from(std::vector<ConnectionId>& pool, bool measured) {
    const auto idx = rng_.below(pool.size());
    const ConnectionId id = pool[idx];
    pool[idx] = pool.back();
    pool.pop_back();
    if (measured) {
      record(4, id);
      release(id);
    } else {
      admission_.release(id);
      admission_.forget(id);
    }
  }

  void release(ConnectionId id) {
    const auto t0 = Clock::now();
    admission_.release(id);
    const auto t1 = Clock::now();
    r_.release_us.add(seconds_between(t0, t1) * 1e6);
    if (tracer_ != nullptr) tracer_->leaf("qos", "release", t0, t1);
    admission_.forget(id);
  }

  void record(std::uint64_t kind, std::optional<ConnectionId> id) {
    r_.digest = digest_mix(r_.digest, kind << 32 | (id ? *id : 0u));
  }

  ibarb::qos::AdmissionControl& admission_;
  Repeat& r_;
  Tracer* tracer_;
  std::vector<ibarb::iba::NodeId> hosts_;
  ibarb::util::Xoshiro256 rng_;
  std::vector<double> zipf_cdf_;
  std::vector<ibarb::iba::ServiceLevel> guaranteed_sls_;
  std::vector<ibarb::iba::ServiceLevel> best_effort_sls_;
  std::vector<ConnectionId> live_g_;
  std::vector<ConnectionId> live_be_;
  std::size_t target_live_ = 0;
};

Repeat run_repeat(const ChurnWorkload& w, Tracer* tracer) {
  Repeat r;
  const auto setup_start = Clock::now();
  auto f = build_fabric(w.fabric, r.setup, tracer);
  Caller caller(*f, w.fabric.seed, r, tracer);
  {
    ScopedSpan span(tracer, "qos", "release_down");
    caller.release_down(f->workload);
  }
  r.setup.total_s = seconds_between(setup_start, Clock::now());
  {
    ScopedSpan span(tracer, "bench", "warm_up");
    caller.warm_up(w.warmup_ops);
  }
  {
    ScopedSpan span(tracer, "bench", "run");
    const auto t0 = Clock::now();
    caller.run(w.ops);
    r.run_s = seconds_between(t0, Clock::now());
  }
  const auto a0 = Clock::now();
  {
    ScopedSpan span(tracer, "qos", "audit_full");
    r.audit_ok = f->admission->audit_full();
  }
  r.audit_ms = seconds_between(a0, Clock::now()) * 1e3;
  r.snap = f->sim->telemetry_snapshot();
  return r;
}

Result run_churn(const Args& args, const ChurnWorkload& w) {
  Result res;
  Tracer spans;
  const auto reps = run_repeats<Repeat>(
      args, w.min_run_s, spans, [&](Tracer* tracer) {
        auto r = run_repeat(w, tracer);
        std::cerr << "[perfbench] " << args.workload
                  << (tracer ? " traced" : "") << " repeat: setup "
                  << r.setup.total_s << " s, run " << r.run_s << " s, "
                  << r.ops << " ops, " << r.guaranteed_admitted << "/"
                  << r.guaranteed_attempts << " guaranteed admitted, request p50 "
                  << r.request_us.quantile(0.5) << " us, digest "
                  << std::hex << r.digest << std::dec << "\n";
        return r;
      });

  // --- Correctness gate ------------------------------------------------
  const Repeat& first = reps.front();
  for (const auto& r : reps) {
    res.attempted += r.ops;
    if (r.false_rejects > 0)
      res.fail(std::to_string(r.false_rejects) + " false rejects");
    if (!r.audit_ok) res.fail("audit_full failed after churn");
  }
  check_digests(reps, res, "admission outcomes");
  if (first.guaranteed_admitted == 0 ||
      first.guaranteed_admitted == first.guaranteed_attempts)
    res.fail("guaranteed setups did not both succeed and fail");

  // --- Aggregation -------------------------------------------------------
  auto med = [&](auto field) { return untraced_median(reps, field); };
  // Latency quantiles: the lowest over the untraced repeats, as the
  // fastest copy of a block is taken for throughput.
  auto lowest = [&](auto field) {
    double best = -1.0;
    for (const auto& r : reps)
      if (!r.traced && (best < 0.0 || field(r) < best)) best = field(r);
    return best;
  };
  const std::vector<double> fastest = fastest_blocks(reps);
  const double ops_per_s =
      ratio(static_cast<double>(first.ops),
            std::accumulate(fastest.begin(), fastest.end(), 0.0));
  const double accept_frac =
      ratio(static_cast<double>(first.guaranteed_admitted),
            static_cast<double>(first.guaranteed_attempts));

  res.end_to_end["throughput_per_s"] = {ops_per_s, "1/s"};
  res.end_to_end["op_p50_us"] = {
      lowest([](const Repeat& r) { return r.request_us.quantile(0.50); }),
      "us"};
  res.end_to_end["setup_s"] = {
      med([](const Repeat& r) { return r.setup.total_s; }), "s"};
  res.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  res.end_to_end["guaranteed_accept_frac"] = {accept_frac, "frac"};
  if (!args.trace) return res;

  auto& L = res.per_layer;
  L["admit_ops_per_s"] = {ops_per_s, "1/s"};
  L["admit_p50_us"] = res.end_to_end["op_p50_us"];
  L["admit_p99_us"] = {
      lowest([](const Repeat& r) { return r.request_us.quantile(0.99); }),
      "us"};
  L["op_p99_us"] = L["admit_p99_us"];
  L["admit_samples"] = {static_cast<double>(first.request_us.count()),
                        "count"};
  L["false_reject_frac"] = {
      ratio(static_cast<double>(first.false_rejects),
            static_cast<double>(first.guaranteed_attempts)),
      "frac"};
  add_setup_layers(res, untraced_setups(reps));
  add_admission_layers(res, first.snap);
  L["qos.release_us_p50"] = {
      lowest([](const Repeat& r) { return r.release_us.quantile(0.50); }),
      "us"};
  L["qos.can_admit_path_us_p50"] = {
      lowest([](const Repeat& r) { return r.can_admit_us.quantile(0.50); }),
      "us"};
  L["qos.audit_full_ms"] = {med([](const Repeat& r) { return r.audit_ms; }),
                            "ms"};

  add_trace_layers(res, spans, reps, args);
  return res;
}

}  // namespace

Result run_admission_churn(const Args& args) {
  ChurnWorkload w;
  w.fabric.topo = kPaperFabric;
  w.fabric.routing = "updown";
  w.fabric.mtu = ibarb::iba::Mtu::kMtu256;
  w.fabric.besteffort_load = 0.10;
  w.fabric.seed = args.seed;
  w.warmup_ops = 300'000;
  w.ops = 1'000'000;
  w.min_run_s = args.seconds;
  if (args.tiny) {
    w.fabric.topo = "irregular:switches=4,seed=3";
    w.warmup_ops = 1000;
    w.ops = 2000;
    w.min_run_s = 0.0;
  }
  return run_churn(args, w);
}

}  // namespace perfbench
