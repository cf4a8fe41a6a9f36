// Time-series telemetry: windowed sampling of the TelemetryRegistry plus
// per-SL delay percentiles and a per-connection QoS audit timeline.
//
// The whole-run Snapshot (telemetry.hpp) answers "what happened"; this layer
// answers "when". A SeriesRecorder owned by the Simulator samples every
// registered counter/gauge at a fixed simulated-time cadence
// (SimConfig::sample_every cycles -> --sample-every on every bench) and
// accumulates per-window delay histograms and deadline-audit counts fed by
// Metrics and the fault/recovery subsystem.
//
// Determinism contract (docs/OBSERVABILITY.md): the emitted series is a pure
// function of configuration and seed — byte-identical for any --jobs value
// and any run length. Three mechanisms make that hold:
//
//  * window boundaries live on the simulated clock, never the wall clock; a
//    boundary B's sample reflects state after all events with time <= B;
//  * when the ring reaches capacity (even, default 512) adjacent windows are
//    pairwise-merged and the window width doubles — power-of-two decimation,
//    so a 10x longer run yields the same bytes at a coarser cadence rather
//    than a truncated tail;
//  * delay statistics use Log2Histogram — exact integer bucket counts, no
//    floating accumulation — so merging windows is associative and lossless.
//
// profile.* instruments (wall-clock self-profiler, profile.hpp) and shard.*
// instruments (shard-engine health, sim/shard.cpp) are excluded from the
// sampled columns: they are the two quarantined telemetry families allowed
// to differ between identical runs (wall-clock) or between shard counts
// (engine internals).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ibarb::util {
class JsonWriter;
}

namespace ibarb::obs {

class TelemetryRegistry;

/// True for instrument names in a quarantined family — `profile.*`
/// (wall-clock self-profiler) and `shard.*` (parallel-engine health, which
/// includes wall-clock waits and shard-count-dependent internals). These
/// names never enter the sampled series columns and are excluded from
/// determinism byte-compares.
bool is_quarantined_name(std::string_view name) noexcept;

/// The calling thread's delivery lane (see SeriesRecorder::set_lanes).
/// Lane 0 is the default; shard workers set it to their shard id for the
/// duration of a parallel window so concurrent record_delivery calls never
/// touch the same window map.
extern constinit thread_local std::size_t t_series_lane;

/// 64-bucket base-2 histogram with exact integer counts. Bucket i holds
/// values whose bit_width is i (bucket 0 = the value 0, bucket 1 = 1,
/// bucket 2 = 2..3, ...), saturating at bucket 63. Merging adds bucket
/// counts with saturation at UINT64_MAX — decimation must never wrap.
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
    const auto w = static_cast<std::size_t>(std::bit_width(v));
    return w < kBuckets ? w : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket i (0 for bucket 0, else 2^i - 1).
  /// Bucket 63 reports 2^63 - 1 even though it also absorbs larger values.
  static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t v) noexcept { ++buckets_[bucket_of(v)]; }

  void merge(const Log2Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t sum = buckets_[i] + other.buckets_[i];
      buckets_[i] = sum < buckets_[i] ? UINT64_MAX : sum;
    }
  }

  std::uint64_t total() const noexcept;

  /// Nearest-rank percentile (fraction in [0,1]), reported as the inclusive
  /// upper bound of the bucket holding that rank. 0 when the histogram is
  /// empty.
  std::uint64_t percentile(double fraction) const noexcept;

  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }
  bool empty() const noexcept { return total() == 0; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// A fault/recovery state change stamped onto the timeline. `conn`, `node`
/// and `port` are -1 when not applicable to the kind.
struct SeriesTransition {
  enum class Kind : std::uint8_t {
    kLinkDown,   ///< FaultInjector took a link out of service.
    kLinkUp,     ///< FaultInjector restored a link.
    kSuspended,  ///< RecoveryCoordinator suspended a guaranteed connection.
    kShed,       ///< RecoveryCoordinator shed a best-effort connection.
    kRestored,   ///< A suspended connection was re-admitted.
    kRerouted,   ///< A connection was moved to a new path.
  };

  std::uint64_t at = 0;
  Kind kind = Kind::kLinkDown;
  std::int64_t conn = -1;
  std::int64_t node = -1;
  std::int64_t port = -1;

  static const char* kind_name(Kind k) noexcept;
  bool operator==(const SeriesTransition&) const = default;
};

/// Finalized, copyable result of a recording: parallel arrays indexed by
/// window, one entry in `time` per committed window holding the window-end
/// boundary (cycles). Serialized as the report envelope's "series" section
/// (schema ibarb.report/2) and exportable as CSV for plotting.
struct SeriesData {
  std::uint64_t sample_every = 0;   ///< Configured cadence (0 = disabled).
  std::uint64_t window_cycles = 0;  ///< Effective width after decimation.
  std::uint64_t decimations = 0;    ///< How many times the width doubled.

  std::vector<std::uint64_t> time;  ///< Window-end boundary per window.

  /// Cumulative counter value at each boundary, sorted by name.
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> counters;
  /// Point-in-time gauge value at each boundary, sorted by name.
  std::vector<std::pair<std::string, std::vector<double>>> gauges;

  /// Aggregate QoS audit across deadline-carrying guaranteed connections:
  /// per window, deliveries past deadline (`late`), packets dropped
  /// (`drops`), and their sum (`missed`) — the degrade-then-restore arc.
  struct QosTimeline {
    std::vector<std::uint64_t> missed;
    std::vector<std::uint64_t> late;
    std::vector<std::uint64_t> drops;
    bool operator==(const QosTimeline&) const = default;
  } qos;

  /// Windowed delay distribution per service level (delivered packets).
  struct SlDelay {
    unsigned sl = 0;
    std::vector<std::uint64_t> rx;
    std::vector<std::uint64_t> p50;  ///< Log2 bucket upper bounds.
    std::vector<std::uint64_t> p99;
    std::vector<std::uint64_t> max;  ///< Exact per-window maximum.
    bool operator==(const SlDelay&) const = default;
  };
  std::vector<SlDelay> sl_delay;

  /// Per-connection audit timeline. `missed` is nonzero only for
  /// deadline-carrying guaranteed connections (qos && deadline > 0), where
  /// it counts late deliveries plus drops. Margins (deadline - delay,
  /// cycles) are NaN for windows without a deadline-carrying delivery; the
  /// JSON writer maps NaN to null.
  struct Connection {
    std::uint32_t conn = 0;
    unsigned sl = 0;
    bool qos = false;
    std::uint64_t deadline = 0;
    std::vector<std::uint64_t> rx;
    std::vector<std::uint64_t> late;
    std::vector<std::uint64_t> drops;
    std::vector<std::uint64_t> missed;
    std::vector<double> margin_min;
    std::vector<double> margin_mean;
    bool operator==(const Connection&) const = default;
  };
  std::vector<Connection> connections;

  std::vector<SeriesTransition> transitions;
  std::uint64_t transitions_dropped = 0;  ///< Beyond the recording cap.

  std::size_t windows() const noexcept { return time.size(); }

  /// Emits the "series" object (caller supplies the surrounding key).
  void write_json(util::JsonWriter& w) const;

  bool operator==(const SeriesData&) const = default;
};

/// Writes samples.csv / sl_delay.csv / connections.csv / transitions.csv
/// into `dir` (created if absent; the parent must exist — Cli::std_flags
/// validates that up front). Returns false with a message on stderr if any
/// file cannot be written.
bool write_series_csv(const SeriesData& data, const std::string& dir);

/// Samples a TelemetryRegistry on a simulated-time cadence and accumulates
/// the windowed QoS/delay statistics above. Owned by sim::Simulator; the
/// hot hooks are O(1) and touch no maps except first-sight of a new SL.
class SeriesRecorder {
 public:
  struct Config {
    std::uint64_t sample_every = 0;     ///< Cycles per window; 0 disables.
    std::size_t capacity = 512;         ///< Max windows kept; must be even.
    std::size_t max_transitions = 4096; ///< Timeline cap (then dropped).
  };

  SeriesRecorder(const TelemetryRegistry& registry, const Config& cfg);

  bool enabled() const noexcept { return cfg_.sample_every != 0; }

  /// The next boundary awaiting commit. The simulator calls advance_to(t)
  /// before handling the first event with time > next_due(), so a
  /// boundary's sample always reflects every event at or before it.
  std::uint64_t next_due() const noexcept { return next_due_; }

  /// Commits every pending boundary strictly below `limit`. Idempotent:
  /// repeated calls with non-decreasing limits commit each boundary once.
  void advance_to(std::uint64_t limit);

  /// Splits the per-SL delivery windows into `n` independent lanes so `n`
  /// threads can call record_delivery concurrently, each under its own
  /// `t_series_lane`. commit() folds the lanes in ascending (lane, SL)
  /// order; the per-SL fold (histogram add, rx sum, max of max) is
  /// commutative and associative, so the committed bytes are identical to
  /// a single-lane recording of the same deliveries. Grows only — lanes
  /// are never dropped mid-run. Call between windows, never concurrently
  /// with the hot hooks.
  void set_lanes(std::size_t n);

  // --- Hot hooks (called by Metrics / faults; no-ops when disabled) --------

  /// Declares connection metadata before any samples land on it.
  void note_connection(std::uint32_t conn, unsigned sl, bool qos,
                       std::uint64_t deadline);
  /// A packet delivery: `contracted` is the effective deadline (0 = none).
  void record_delivery(std::uint32_t conn, unsigned sl, std::uint64_t delay,
                       std::uint64_t contracted);
  void record_drop(std::uint32_t conn);
  void record_transition(std::uint64_t at, SeriesTransition::Kind kind,
                         std::int64_t conn = -1, std::int64_t node = -1,
                         std::int64_t port = -1);

  /// Flushes the trailing partial window (if `end_time` lies past the last
  /// committed boundary) and builds the emission-ready SeriesData.
  /// Safe to call more than once; the partial window is committed once.
  SeriesData finalize(std::uint64_t end_time);

 private:
  struct ConnWindow {
    std::uint64_t rx = 0;
    std::uint64_t late = 0;
    std::uint64_t drops = 0;
    std::int64_t margin_min = INT64_MAX;  ///< Sentinel until first delivery.
    std::int64_t margin_sum = 0;
    std::uint64_t margin_count = 0;
  };
  struct ConnSeries {
    unsigned sl = 0;
    bool qos = false;
    std::uint64_t deadline = 0;
    std::vector<std::uint64_t> rx, late, drops;
    std::vector<std::int64_t> margin_min, margin_sum;
    std::vector<std::uint64_t> margin_count;
  };
  struct SlWindow {
    Log2Histogram hist;
    std::uint64_t rx = 0;
    std::uint64_t max = 0;
  };
  struct SlSeries {
    std::vector<Log2Histogram> hist;
    std::vector<std::uint64_t> rx, max;
  };

  void commit(std::uint64_t boundary);
  void decimate();

  const TelemetryRegistry& registry_;
  Config cfg_;
  std::uint64_t window_cycles_ = 0;
  std::uint64_t next_due_ = 0;
  std::uint64_t decimations_ = 0;
  bool flushed_partial_ = false;

  std::vector<std::uint64_t> times_;
  std::map<std::string, std::vector<std::uint64_t>, std::less<>> counter_cols_;
  std::map<std::string, std::vector<double>, std::less<>> gauge_cols_;

  std::vector<ConnWindow> cur_conn_;
  std::vector<ConnSeries> conns_;
  /// Per-lane current-window SL accumulators; lanes_[0] is the sequential
  /// lane, one extra per shard worker under set_lanes(). commit() folds
  /// them into one map before emission.
  std::vector<std::map<unsigned, SlWindow>> lanes_;
  std::map<unsigned, SlSeries> sls_;

  std::vector<SeriesTransition> transitions_;
  std::uint64_t transitions_dropped_ = 0;
};

}  // namespace ibarb::obs
