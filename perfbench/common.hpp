// Shared plumbing of the perfbench program: run arguments, the span tracer,
// order statistics and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Minimal-length run for the self-check (selfcheck.py): tiny fabrics and
  /// budgets, same code paths, same metric names.
  bool tiny = false;
  /// Self-check only: corrupt the digest of the last repeat, so the
  /// correctness gate must fail the run.
  bool break_gate = false;
  /// Where a traced run writes its Chrome trace (empty: not written).
  std::string trace_out;
};

/// Span recorder for traced runs. Self time per layer (span duration minus
/// the part its child spans cover) accumulates as spans close; the first
/// kMaxStored spans are also kept in memory for the Chrome trace written at
/// exit (write_chrome_trace). Layer and name must be string literals.
class Tracer {
 public:
  static constexpr std::size_t kMaxStored = 200'000;

  struct Span {
    const char* layer;
    const char* name;
    Clock::time_point t0;
    Clock::time_point t1;
    std::uint64_t events;  ///< run_until slices: events executed.
    std::uint64_t cycles;  ///< run_until slices: cycles advanced.
  };

  void open(const char* layer, const char* name) {
    open_.push_back({Span{layer, name, Clock::now(), {}, 0, 0}, 0.0});
  }
  void close() {
    auto [span, child_s] = open_.back();
    open_.pop_back();
    span.t1 = Clock::now();
    finish(span, child_s);
  }
  /// A finished leaf span whose bounds the caller already measured.
  void leaf(const char* layer, const char* name, Clock::time_point t0,
            Clock::time_point t1, std::uint64_t events = 0,
            std::uint64_t cycles = 0) {
    finish(Span{layer, name, t0, t1, events, cycles}, 0.0);
  }

  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Seconds of each layer's own time.
  const std::map<std::string, double>& self_seconds() const noexcept {
    return self_s_;
  }

  /// Writes the stored spans as a Chrome trace (track = layer); timestamps
  /// are nanoseconds since the first span.
  void write(const std::string& path) const;

 private:
  struct Open {
    Span span;
    double child_s;
  };

  void finish(const Span& span, double child_s) {
    const double dur = seconds_between(span.t0, span.t1);
    self_s_[span.layer] += dur - child_s;
    if (!open_.empty()) open_.back().child_s += dur;
    ++recorded_;
    if (stored_.size() < kMaxStored) stored_.push_back(span);
  }

  std::vector<Open> open_;
  std::vector<Span> stored_;
  std::uint64_t recorded_ = 0;
  std::map<std::string, double> self_s_;
};

/// Opens a span when a tracer is present; closes it at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* layer, const char* name) : t_(t) {
    if (t_ != nullptr) t_->open(layer, name);
  }
  ~ScopedSpan() {
    if (t_ != nullptr) t_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
};

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Call latencies in fixed storage (16 KiB, whatever the sample count), so
/// the benchmark's own memory stays out of the peak RSS it reports. Bins
/// are 1% wide on a log scale from 10 ns to 10 s; quantiles interpolate
/// inside a bin.
class LatencyHistogram {
 public:
  void add(double us);
  /// The q-quantile in microseconds (0 when empty).
  double quantile(double q) const;
  std::uint64_t count() const noexcept { return count_; }

 private:
  static constexpr std::size_t kBins = 2083;  // ln(1e9) / ln(1.01)
  std::uint64_t bins_[kBins] = {};
  std::uint64_t count_ = 0;
};

/// Order-sensitive 64-bit digest (FNV-1a over words).
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kDigestInit = 1469598103934665603ull;

/// Sub-seed `stream` of the workload seed, so every generator the benchmark
/// feeds gets an independent stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> failures;  ///< Why the gate failed (stderr).

  void fail(std::string why) {
    correct = false;
    ++failed;
    failures.push_back(std::move(why));
  }
};

}  // namespace perfbench
