// TelemetryRegistry: pull-style probes that publish component-held
// counters / gauges / histograms into a Snapshot when one is taken.
//
// Design notes (docs/OBSERVABILITY.md has the full naming scheme):
//
//  * One registry per Simulator (and one standalone per bench harness where
//    there is no simulator). There is deliberately NO global/singleton
//    registry: the sweep engine runs many simulators concurrently under
//    --jobs N, and per-run registries keep instrument updates lock-free and
//    race-free. Cross-run aggregation happens after the fact through
//    Snapshot::merge, which is order-insensitive for counters/hist bins and
//    policy-driven for gauges — so merged output is byte-identical for any
//    --jobs value.
//
//  * One publishing style, pull: components (the Simulator's event queue
//    and arbiters, AdmissionControl, RecoveryCoordinator, ...) keep plain
//    members; a probe registered at construction publishes them into the
//    Snapshot when one is taken. Probe contributions are ADDITIVE into the
//    snapshot (gauges combine by policy), so several publishers of one
//    name — e.g. every RcSession adding into "rc.packets_sent" — aggregate
//    naturally, and taking two snapshots never double-counts.
//
//  * Snapshots store sorted maps, so emission order never depends on
//    registration order or map iteration quirks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ibarb::util {
class JsonWriter;
}

namespace ibarb::obs {

/// How a gauge combines across publishers and across runs.
enum class MergePolicy : std::uint8_t { kSum, kMax, kMin };

/// Deterministic, self-contained instrument state: plain sorted maps, safe
/// to move across threads and to merge across runs. Probes accumulate into
/// one through the add_*/merge_* helpers.
struct Snapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, std::pair<double, MergePolicy>, std::less<>> gauges;
  std::map<std::string, std::vector<std::uint64_t>, std::less<>> histograms;

  // --- Probe-side accumulation (additive / policy-combining) ---------------

  void add_counter(std::string_view name, std::uint64_t v);
  /// Combines with any existing value per `policy` (which also becomes the
  /// cross-run policy).
  void merge_gauge(std::string_view name, double v,
                   MergePolicy policy = MergePolicy::kSum);
  /// Element-wise bin add, saturating at UINT64_MAX per bin; the stored
  /// vector grows to `n` if shorter.
  void add_histogram(std::string_view name, const std::uint64_t* bins,
                     std::size_t n);

  /// Combine per-run snapshots in run-index order. Counters and histogram
  /// bins add; gauges follow their MergePolicy. Instruments missing from
  /// one side are carried through unchanged.
  static Snapshot merge(const std::vector<Snapshot>& parts);

  /// Emits {"counters":{...},"gauges":{...},"histograms":{...}} with keys
  /// in sorted order.
  void write_json(util::JsonWriter& w) const;

  bool operator==(const Snapshot& other) const = default;
};

class TelemetryRegistry {
 public:
  using ProbeFn = std::function<void(Snapshot&)>;
  using ProbeId = std::uint32_t;

  TelemetryRegistry() = default;
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  /// Registers a pull callback run (in registration order) by snapshot().
  /// The caller MUST remove_probe before anything the closure captures
  /// dies — typically in its destructor.
  ProbeId add_probe(ProbeFn fn);
  void remove_probe(ProbeId id);

  /// Runs every probe over an empty Snapshot. Idempotent: a second snapshot
  /// of unchanged state is equal to the first.
  Snapshot snapshot() const;

 private:
  std::vector<std::pair<ProbeId, ProbeFn>> probes_;
  ProbeId next_probe_id_ = 0;
};

}  // namespace ibarb::obs
