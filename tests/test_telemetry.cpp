#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/series.hpp"
#include "util/json_writer.hpp"
#include "util/parallel.hpp"

namespace ibarb::obs {
namespace {

std::string snapshot_json(const Snapshot& s) {
  std::ostringstream os;
  util::JsonWriter w(os);
  s.write_json(w);
  return os.str();
}

TEST(Telemetry, CounterFindOrCreate) {
  TelemetryRegistry reg;
  Counter& c = reg.counter("arb.decisions");
  c.inc();
  c.inc(4);
  // Same name returns the same instrument.
  EXPECT_EQ(&reg.counter("arb.decisions"), &c);
  EXPECT_EQ(reg.counter("arb.decisions").value(), 5u);
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.contains("arb.decisions"));
  EXPECT_EQ(snap.counters.at("arb.decisions"), 5u);
}

TEST(Telemetry, GaugePolicies) {
  TelemetryRegistry reg;
  auto& peak = reg.gauge("buf.peak", MergePolicy::kMax);
  peak.set_max(3.0);
  peak.set_max(1.0);  // Lower value must not win.
  EXPECT_DOUBLE_EQ(peak.value(), 3.0);
  auto& level = reg.gauge("buf.level");  // kSum default.
  level.set(2.5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauges.at("buf.peak").second, MergePolicy::kMax);
  EXPECT_DOUBLE_EQ(snap.gauges.at("buf.peak").first, 3.0);
  EXPECT_EQ(snap.gauges.at("buf.level").second, MergePolicy::kSum);
}

TEST(Telemetry, HistogramSaturatesLastBin) {
  TelemetryRegistry reg;
  auto& h = reg.histogram("queue.residency_log2", 4);
  h.record(0);
  h.record(3, 2);
  h.record(17);  // Out of range clamps into the last bin.
  EXPECT_EQ(h.total(), 4u);
  const auto snap = reg.snapshot();
  const auto& bins = snap.histograms.at("queue.residency_log2");
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_EQ(bins[0], 1u);
  EXPECT_EQ(bins[3], 3u);
}

TEST(Telemetry, ProbesAccumulateAdditively) {
  // Several publishers of one name (e.g. every RcSession) must aggregate,
  // not overwrite each other.
  TelemetryRegistry reg;
  std::uint64_t sent_a = 7, sent_b = 5;
  reg.add_probe([&](Snapshot& s) { s.add_counter("rc.packets_sent", sent_a); });
  reg.add_probe([&](Snapshot& s) { s.add_counter("rc.packets_sent", sent_b); });
  EXPECT_EQ(reg.snapshot().counters.at("rc.packets_sent"), 12u);
}

TEST(Telemetry, SnapshotIsIdempotent) {
  TelemetryRegistry reg;
  reg.counter("c").inc(9);
  reg.gauge("g", MergePolicy::kMax).set_max(2.0);
  std::uint64_t probe_val = 3;
  reg.add_probe([&](Snapshot& s) {
    s.add_counter("p", probe_val);
    s.merge_gauge("pg", 1.5, MergePolicy::kMax);
  });
  const auto first = reg.snapshot();
  const auto second = reg.snapshot();
  EXPECT_EQ(first, second);
  EXPECT_EQ(second.counters.at("p"), 3u);
}

TEST(Telemetry, RemoveProbeStopsPublishing) {
  TelemetryRegistry reg;
  const auto id = reg.add_probe([](Snapshot& s) { s.add_counter("x", 1); });
  EXPECT_TRUE(reg.snapshot().counters.contains("x"));
  reg.remove_probe(id);
  EXPECT_FALSE(reg.snapshot().counters.contains("x"));
}

TEST(Telemetry, MergeGaugeHonorsPolicy) {
  Snapshot s;
  s.merge_gauge("sum", 1.0, MergePolicy::kSum);
  s.merge_gauge("sum", 2.0, MergePolicy::kSum);
  s.merge_gauge("max", 1.0, MergePolicy::kMax);
  s.merge_gauge("max", 5.0, MergePolicy::kMax);
  s.merge_gauge("max", 2.0, MergePolicy::kMax);
  s.merge_gauge("min", 4.0, MergePolicy::kMin);
  s.merge_gauge("min", -1.0, MergePolicy::kMin);
  EXPECT_DOUBLE_EQ(s.gauges.at("sum").first, 3.0);
  EXPECT_DOUBLE_EQ(s.gauges.at("max").first, 5.0);
  EXPECT_DOUBLE_EQ(s.gauges.at("min").first, -1.0);
}

TEST(Telemetry, AddHistogramGrowsToLongest) {
  Snapshot s;
  const std::uint64_t short_bins[] = {1, 2};
  const std::uint64_t long_bins[] = {10, 10, 10, 10};
  s.add_histogram("h", short_bins, 2);
  s.add_histogram("h", long_bins, 4);
  const auto& bins = s.histograms.at("h");
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_EQ(bins[0], 11u);
  EXPECT_EQ(bins[1], 12u);
  EXPECT_EQ(bins[2], 10u);
  EXPECT_EQ(bins[3], 10u);
}

TEST(Telemetry, AddHistogramSaturatesInsteadOfWrapping) {
  // Merging near-full bins must clamp at UINT64_MAX, never wrap to a small
  // count that would silently corrupt percentile math.
  Snapshot s;
  const std::uint64_t a[] = {UINT64_MAX - 5, 1};
  const std::uint64_t b[] = {10, 2};
  s.add_histogram("h", a, 2);
  s.add_histogram("h", b, 2);
  const auto& bins = s.histograms.at("h");
  EXPECT_EQ(bins[0], UINT64_MAX);
  EXPECT_EQ(bins[1], 3u);
}

TEST(Telemetry, MergeDisjointKeySets) {
  // Runs that never observed each other's instruments: the union must carry
  // every key with its own value untouched.
  Snapshot a;
  a.add_counter("only.a", 7);
  a.merge_gauge("gauge.a", 1.5, MergePolicy::kSum);
  const std::uint64_t bins_a[] = {1, 2, 3};
  a.add_histogram("hist.a", bins_a, 3);
  Snapshot b;
  b.add_counter("only.b", 9);
  b.merge_gauge("gauge.b", -2.0, MergePolicy::kMin);
  const std::uint64_t bins_b[] = {4};
  b.add_histogram("hist.b", bins_b, 1);

  const auto merged = Snapshot::merge({a, b});
  EXPECT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters.at("only.a"), 7u);
  EXPECT_EQ(merged.counters.at("only.b"), 9u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("gauge.a").first, 1.5);
  EXPECT_DOUBLE_EQ(merged.gauges.at("gauge.b").first, -2.0);
  EXPECT_EQ(merged.gauges.at("gauge.b").second, MergePolicy::kMin);
  EXPECT_EQ(merged.histograms.at("hist.a"),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(merged.histograms.at("hist.b"), (std::vector<std::uint64_t>{4}));
}

Snapshot make_run_snapshot(std::size_t i) {
  TelemetryRegistry reg;
  reg.counter("arb.decisions").inc(100 + i);
  reg.gauge("buf.peak", MergePolicy::kMax).set_max(double(i % 3));
  auto& h = reg.histogram("queue.residency_log2", 4);
  h.record(i % 4, i + 1);
  // Instrument present only in some runs: must carry through a merge.
  if (i % 2 == 0) reg.counter("faults.injected").inc(i);
  return reg.snapshot();
}

TEST(Telemetry, MergeCombinesAcrossRuns) {
  std::vector<Snapshot> parts;
  for (std::size_t i = 0; i < 4; ++i) parts.push_back(make_run_snapshot(i));
  const auto merged = Snapshot::merge(parts);
  EXPECT_EQ(merged.counters.at("arb.decisions"), 100u + 101 + 102 + 103);
  EXPECT_EQ(merged.counters.at("faults.injected"), 0u + 2);
  EXPECT_DOUBLE_EQ(merged.gauges.at("buf.peak").first, 2.0);
  std::uint64_t total = 0;
  for (const auto b : merged.histograms.at("queue.residency_log2")) total += b;
  EXPECT_EQ(total, 1u + 2 + 3 + 4);
}

TEST(Telemetry, MergedSnapshotDeterministicAcrossJobs) {
  // The --jobs contract: per-run registries filled in parallel, merged in
  // run-index order, must serialize byte-identically for any worker count.
  constexpr std::size_t kRuns = 16;
  auto run_with_jobs = [&](unsigned jobs) {
    std::vector<Snapshot> parts(kRuns);
    util::parallel_for(jobs, kRuns,
                       [&](std::size_t i) { parts[i] = make_run_snapshot(i); });
    return Snapshot::merge(parts);
  };
  const auto seq = run_with_jobs(1);
  const auto par = run_with_jobs(4);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(snapshot_json(seq), snapshot_json(par));
}

TEST(Telemetry, WriteJsonSortsKeys) {
  Snapshot s;
  s.add_counter("zeta", 1);
  s.add_counter("alpha", 2);
  const auto json = snapshot_json(s);
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
  EXPECT_EQ(json.find("\"gauges\":{}") != std::string::npos ||
                json.find("\"gauges\": {}") != std::string::npos,
            true);
}

// Snapshot::merge folds per-run snapshots for --jobs: disjoint keys
// interleave in sorted key order, histogram bins add, gauges follow their
// policy.

TEST(SnapshotFold, DisjointKeysInterleaveInSortedOrder) {
  Snapshot a;
  a.add_counter("sim.events", 3);
  a.add_counter("xbar.grants", 10);
  Snapshot b;
  b.add_counter("credit.stalls", 7);
  b.add_counter("queue.pops", 42);
  const auto merged = Snapshot::merge({a, b});
  ASSERT_EQ(merged.counters.size(), 4u);
  // std::map keeps the fold order deterministic: lexicographic, regardless
  // of which part contributed which key.
  auto it = merged.counters.begin();
  EXPECT_EQ(it->first, "credit.stalls");
  EXPECT_EQ((++it)->first, "queue.pops");
  EXPECT_EQ((++it)->first, "sim.events");
  EXPECT_EQ((++it)->first, "xbar.grants");
  // Part order must not matter for the serialized bytes.
  EXPECT_EQ(snapshot_json(merged), snapshot_json(Snapshot::merge({b, a})));
}

TEST(SnapshotFold, SharedKeysAddAndGaugesFollowPolicy) {
  Snapshot a;
  a.add_counter("sim.events", 100);
  a.merge_gauge("queue.peak_size", 4096, MergePolicy::kMax);
  a.merge_gauge("sim.rate", 1.5, MergePolicy::kSum);
  const std::uint64_t bins_a[4] = {1, 2, 0, 0};
  a.add_histogram("queue.residency_log2", bins_a, 4);
  Snapshot b;
  b.add_counter("sim.events", 50);
  b.merge_gauge("queue.peak_size", 8192, MergePolicy::kMax);
  b.merge_gauge("sim.rate", 0.5, MergePolicy::kSum);
  const std::uint64_t bins_b[4] = {0, 0, 3, 4};
  b.add_histogram("queue.residency_log2", bins_b, 4);

  const auto m = Snapshot::merge({a, b});
  EXPECT_EQ(m.counters.at("sim.events"), 150u);
  EXPECT_EQ(m.gauges.at("queue.peak_size").first, 8192.0);
  EXPECT_EQ(m.gauges.at("sim.rate").first, 2.0);
  const auto& h = m.histograms.at("queue.residency_log2");
  ASSERT_GE(h.size(), 4u);
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 2u);
  EXPECT_EQ(h[2], 3u);
  EXPECT_EQ(h[3], 4u);
}

// The wall-clock profile.* family is quarantined: published in telemetry,
// never sampled into series columns.

TEST(Quarantine, ProfileFamilyIsQuarantined) {
  EXPECT_TRUE(is_quarantined_name("profile.dispatch_ms"));
  EXPECT_TRUE(is_quarantined_name("profile.series_calls"));
  EXPECT_FALSE(is_quarantined_name("queue.pops"));
  EXPECT_FALSE(is_quarantined_name("xbar.grants"));
  // Prefix match, not substring: the family elsewhere in the name stays in.
  EXPECT_FALSE(is_quarantined_name("queue.profile.depth"));
}

TEST(Quarantine, QuarantinedCountersStayOutOfSeriesColumns) {
  TelemetryRegistry reg;
  reg.counter("arb.decisions").inc(5);
  reg.counter("profile.samples").inc(2);
  SeriesRecorder::Config cfg;
  cfg.sample_every = 100;
  SeriesRecorder rec(reg, cfg);
  rec.advance_to(201);
  const auto data = rec.finalize(200);
  std::ostringstream os;
  util::JsonWriter w(os);
  data.write_json(w);
  const auto json = os.str();
  EXPECT_NE(json.find("arb.decisions"), std::string::npos);
  EXPECT_EQ(json.find("profile.samples"), std::string::npos);
}

}  // namespace
}  // namespace ibarb::obs
