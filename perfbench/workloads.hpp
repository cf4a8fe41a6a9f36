// The two named workloads. Each runs single-threaded in this process and
// fills a Result with every end-to-end metric (untraced run) or every
// per-layer metric (traced run).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "obs/telemetry.hpp"
#include "setup.hpp"

namespace perfbench {

/// What every workload records per repeat. A repeat builds its fabric from
/// nothing, runs the measured phase, and digests its outputs.
struct RepeatBase {
  SetupTimes setup;
  double run_s = 0.0;  ///< Host seconds of the measured phase.
  /// Host seconds of each timed block of the measured phase, in order. A
  /// block is the same work in every repeat of one seed.
  std::vector<double> block_s;
  std::uint64_t digest = kDigestInit;
  bool traced = false;
};

inline constexpr std::size_t kMinRepeats = 2;
inline constexpr std::size_t kMaxRepeats = 64;

/// Runs `one(tracer)` until at least kMinRepeats repeats ran and their
/// measured phases add up to `min_run_s` host seconds. A traced run
/// alternates untraced and traced repeats, so the tracing overhead compares
/// repeats of identical work. --break-gate corrupts the last digest.
template <typename R, typename Fn>
std::vector<R> run_repeats(const Args& args, double min_run_s, Tracer& spans,
                           Fn&& one) {
  std::vector<R> reps;
  double measured = 0.0;
  while ((reps.size() < kMinRepeats || measured < min_run_s) &&
         reps.size() < kMaxRepeats) {
    Tracer* tracer = args.trace && reps.size() % 2 == 1 ? &spans : nullptr;
    reps.push_back(one(tracer));
    reps.back().traced = tracer != nullptr;
    measured += reps.back().run_s;
  }
  if (args.break_gate) reps.back().digest ^= 1;
  return reps;
}

/// Counts every repeat whose digest differs from the first as a failure.
template <typename R>
void check_digests(const std::vector<R>& reps, Result& res,
                   const char* what) {
  for (const auto& r : reps)
    if (r.digest != reps.front().digest)
      res.fail(std::string(what) + " differ between repeats of one seed");
}

/// Median of `field(repeat)` over the untraced repeats.
template <typename R, typename Fn>
double untraced_median(const std::vector<R>& reps, Fn&& field) {
  std::vector<double> v;
  for (const auto& r : reps)
    if (!r.traced) v.push_back(field(r));
  return median(v);
}

/// Block by block, the fastest copy over the untraced repeats. Repeats of
/// one seed do identical work per block, so the fastest copy is the one
/// least slowed by other load on a shared machine, and the sum is the
/// measured phase with slow spells taken out. Timed end-to-end figures come
/// from these, not from whole repeats.
template <typename R>
std::vector<double> fastest_blocks(const std::vector<R>& reps) {
  std::vector<double> best;
  bool first = true;
  for (const auto& r : reps) {
    if (r.traced) continue;
    if (first) {
      best = r.block_s;
      first = false;
      continue;
    }
    best.resize(std::min(best.size(), r.block_s.size()));
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], r.block_s[i]);
  }
  return best;
}

/// Median traced over median untraced measured time, minus 1 (0 untraced).
template <typename R>
double trace_overhead(const std::vector<R>& reps) {
  std::vector<double> traced, plain;
  for (const auto& r : reps) (r.traced ? traced : plain).push_back(r.run_s);
  return traced.empty() ? 0.0 : median(traced) / median(plain) - 1.0;
}

/// The set-up times of the untraced repeats.
template <typename R>
std::vector<SetupTimes> untraced_setups(const std::vector<R>& reps) {
  std::vector<SetupTimes> v;
  for (const auto& r : reps)
    if (!r.traced) v.push_back(r.setup);
  return v;
}

Result run_fig4_small(const Args& args);
Result run_admission_churn(const Args& args);

/// Isolated replay of the public EventQueue API: a hold model (pop the
/// earliest event, push a successor) at `depth` pending events, with gaps
/// drawn from the run's own queue.residency_log2 histogram. Returns host
/// nanoseconds per event (one pop plus one push).
double replay_queue_ns_per_event(std::size_t depth,
                                 const std::vector<std::uint64_t>& residency,
                                 std::uint64_t seed);

/// Isolated replay of the public VlArbiter API over the fabric's programmed
/// output-port tables, with seeded ready patterns over each table's VLs
/// (head packets of `head_bytes`). Returns host nanoseconds per
/// arbitrate() decision.
double replay_arbiter_ns_per_decision(const Fabric& fabric,
                                      std::uint32_t head_bytes,
                                      std::uint64_t seed);

std::uint64_t counter(const ibarb::obs::Snapshot& s, const char* name);
double gauge(const ibarb::obs::Snapshot& s, const char* name);
/// num / den, or 0 when den is 0 (a layer the workload does not use).
double ratio(double num, double den);

/// Median set-up call times (network/subnet/sim/traffic *_ms).
void add_setup_layers(Result& res, const std::vector<SetupTimes>& setups);

/// The tm.* and qos.* admission counters of a snapshot (the probe
/// AdmissionControl::attach_telemetry registers).
void add_admission_layers(Result& res, const ibarb::obs::Snapshot& s);

/// Self time per layer per traced repeat (self.<layer>_s) and the span
/// count; writes the Chrome trace when args.trace_out is set.
void add_span_layers(Result& res, const Tracer& tracer,
                     std::size_t traced_repeats, const Args& args);

/// add_span_layers plus the tracing overhead (obs.trace_overhead_frac).
template <typename R>
void add_trace_layers(Result& res, const Tracer& tracer,
                      const std::vector<R>& reps, const Args& args) {
  const auto traced = static_cast<std::size_t>(std::count_if(
      reps.begin(), reps.end(), [](const R& r) { return r.traced; }));
  add_span_layers(res, tracer, traced, args);
  res.per_layer["obs.trace_overhead_frac"] = {trace_overhead(reps), "frac"};
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
