#include "obs/series.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/telemetry.hpp"
#include "util/json_writer.hpp"

namespace ibarb::obs {
namespace {

// --- Log2Histogram ----------------------------------------------------------

TEST(Log2Histogram, BucketBoundaries) {
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(UINT64_MAX), 63u);
  EXPECT_EQ(Log2Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_upper(5), 31u);
}

TEST(Log2Histogram, NearestRankPercentiles) {
  Log2Histogram h;
  for (int i = 0; i < 99; ++i) h.record(3);   // bucket 2, upper bound 3
  h.record(1000);                             // bucket 10, upper bound 1023
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.percentile(0.50), 3u);
  // Rank 99 of 100 still lands in the low bucket...
  EXPECT_EQ(h.percentile(0.99), 3u);
  // ...and the maximum rank reaches the outlier's bucket.
  EXPECT_EQ(h.percentile(1.0), 1023u);
  EXPECT_EQ(Log2Histogram{}.percentile(0.5), 0u);
}

TEST(Log2Histogram, MergeSaturatesInsteadOfWrapping) {
  Log2Histogram a;
  Log2Histogram b;
  for (int i = 0; i < 3; ++i) a.record(5);
  b.record(5);
  a.merge(b);
  EXPECT_EQ(a.buckets()[Log2Histogram::bucket_of(5)], 4u);

  // Force near-overflow counts through repeated self-merges: counts double
  // each time, so 64 merges would wrap without the saturation clamp.
  Log2Histogram c;
  c.record(9);
  for (int i = 0; i < 64; ++i) c.merge(c);
  EXPECT_EQ(c.buckets()[Log2Histogram::bucket_of(9)], UINT64_MAX);
  // A saturated bucket still dominates percentile ranks without UB.
  EXPECT_EQ(c.percentile(1.0),
            Log2Histogram::bucket_upper(Log2Histogram::bucket_of(9)));
}

// --- SeriesRecorder ---------------------------------------------------------

constexpr std::uint64_t kEvery = 100;

SeriesRecorder::Config small_cfg(std::size_t capacity = 8) {
  SeriesRecorder::Config cfg;
  cfg.sample_every = kEvery;
  cfg.capacity = capacity;
  return cfg;
}

/// Publishes `value` as counter `name` through a probe, the way production
/// components publish their plain members.
void publish(TelemetryRegistry& reg, const char* name,
             const std::uint64_t& value) {
  reg.add_probe([name, &value](Snapshot& s) { s.add_counter(name, value); });
}

TEST(SeriesRecorder, DisabledWhenCadenceZero) {
  TelemetryRegistry reg;
  SeriesRecorder rec(reg, SeriesRecorder::Config{});
  EXPECT_FALSE(rec.enabled());
}

TEST(SeriesRecorder, BoundarySampleReflectsEventsAtOrBeforeIt) {
  std::uint64_t c = 0;
  TelemetryRegistry reg;
  publish(reg, "arb.decisions", c);
  SeriesRecorder rec(reg, small_cfg());
  EXPECT_TRUE(rec.enabled());
  EXPECT_EQ(rec.next_due(), kEvery);

  c += 3;  // happens at some time <= 100
  rec.advance_to(101);  // first event past the boundary arrives
  c += 2;  // time in (100, 200]
  rec.advance_to(201);
  const auto data = rec.finalize(200);

  ASSERT_EQ(data.windows(), 2u);
  EXPECT_EQ(data.time, (std::vector<std::uint64_t>{100, 200}));
  ASSERT_EQ(data.counters.size(), 1u);
  EXPECT_EQ(data.counters[0].first, "arb.decisions");
  // Cumulative at each boundary: 3 after window 1, 5 after window 2.
  EXPECT_EQ(data.counters[0].second, (std::vector<std::uint64_t>{3, 5}));
}

TEST(SeriesRecorder, AdvanceToIsIdempotent) {
  const std::uint64_t c = 1;
  TelemetryRegistry reg;
  publish(reg, "c", c);
  SeriesRecorder rec(reg, small_cfg());
  rec.advance_to(301);
  rec.advance_to(301);
  rec.advance_to(250);  // lower limit: nothing new to commit
  const auto data = rec.finalize(300);
  EXPECT_EQ(data.windows(), 3u);
}

TEST(SeriesRecorder, LateAppearingCounterBackfillsZeros) {
  const std::uint64_t early = 1, late = 7;
  TelemetryRegistry reg;
  publish(reg, "early", early);
  SeriesRecorder rec(reg, small_cfg());
  rec.advance_to(101);
  publish(reg, "late", late);  // instrument born in window 2
  rec.advance_to(201);
  const auto data = rec.finalize(200);
  ASSERT_EQ(data.counters.size(), 2u);
  EXPECT_EQ(data.counters[0].first, "early");
  EXPECT_EQ(data.counters[1].first, "late");
  EXPECT_EQ(data.counters[1].second, (std::vector<std::uint64_t>{0, 7}));
}

TEST(SeriesRecorder, ProfileInstrumentsAreExcluded) {
  TelemetryRegistry reg;
  reg.add_probe([](Snapshot& s) {
    s.add_counter("profile.dispatch_calls", 5);
    s.merge_gauge("profile.dispatch_ms", 1.25);
    s.add_counter("arb.decisions", 1);
  });
  SeriesRecorder rec(reg, small_cfg());
  rec.advance_to(101);
  const auto data = rec.finalize(100);
  ASSERT_EQ(data.counters.size(), 1u);
  EXPECT_EQ(data.counters[0].first, "arb.decisions");
  EXPECT_TRUE(data.gauges.empty());
}

TEST(SeriesRecorder, DecimationHalvesWindowsAndDoublesWidth) {
  std::uint64_t c = 0;
  TelemetryRegistry reg;
  publish(reg, "c", c);
  SeriesRecorder rec(reg, small_cfg(/*capacity=*/4));
  // Commit 5 boundaries: the 4th fills the ring, triggering one decimation
  // (4 windows -> 2 at double width); the 5th lands at the coarser cadence.
  for (std::uint64_t b = 1; b <= 4; ++b) {
    ++c;
    rec.advance_to(b * kEvery + 1);
  }
  EXPECT_EQ(rec.next_due(), 600u);  // 400 + doubled width
  ++c;
  rec.advance_to(601);
  const auto data = rec.finalize(600);

  EXPECT_EQ(data.decimations, 1u);
  EXPECT_EQ(data.window_cycles, 2 * kEvery);
  ASSERT_EQ(data.windows(), 3u);
  EXPECT_EQ(data.time, (std::vector<std::uint64_t>{200, 400, 600}));
  // Counters keep the later (cumulative) sample of each merged pair.
  EXPECT_EQ(data.counters[0].second, (std::vector<std::uint64_t>{2, 4, 5}));
}

TEST(SeriesRecorder, DecimationIsRunLengthConsistent) {
  // The decimated series of a long run must equal the series a coarser
  // cadence would have produced — the power-of-two alignment guarantee.
  const auto run = [](std::uint64_t every, std::size_t capacity,
                      std::uint64_t boundaries) {
    std::uint64_t c = 0;
    TelemetryRegistry reg;
    publish(reg, "c", c);
    SeriesRecorder::Config cfg;
    cfg.sample_every = every;
    cfg.capacity = capacity;
    SeriesRecorder rec(reg, cfg);
    const std::uint64_t end = every * boundaries;
    for (std::uint64_t t = 50; t <= end; t += 50) {
      ++c;
      rec.advance_to(t + 1);
    }
    return rec.finalize(end);
  };
  const auto fine = run(100, 4, 8);    // decimates twice: width 400
  const auto coarse = run(400, 4, 2);  // native width 400
  EXPECT_EQ(fine.window_cycles, coarse.window_cycles);
  EXPECT_EQ(fine.time, coarse.time);
  EXPECT_EQ(fine.counters, coarse.counters);
}

TEST(SeriesRecorder, FinalizeFlushesTrailingPartialWindowOnce) {
  std::uint64_t c = 0;
  TelemetryRegistry reg;
  publish(reg, "c", c);
  SeriesRecorder rec(reg, small_cfg());
  ++c;
  rec.advance_to(101);
  ++c;  // lands in the partial window (100, 150]
  const auto first = rec.finalize(150);
  ASSERT_EQ(first.windows(), 2u);
  EXPECT_EQ(first.time, (std::vector<std::uint64_t>{100, 150}));
  EXPECT_EQ(first.counters[0].second, (std::vector<std::uint64_t>{1, 2}));
  // Finalize is safe to repeat without duplicating the partial window.
  const auto second = rec.finalize(150);
  EXPECT_EQ(first, second);
}

TEST(SeriesRecorder, QosAuditCountsOnlyDeadlineCarryingConnections) {
  TelemetryRegistry reg;
  SeriesRecorder rec(reg, small_cfg());
  rec.note_connection(0, /*sl=*/2, /*qos=*/true, /*deadline=*/50);
  rec.note_connection(1, /*sl=*/11, /*qos=*/false, /*deadline=*/0);

  rec.record_delivery(0, 2, /*delay=*/40, /*contracted=*/50);  // on time
  rec.record_delivery(0, 2, /*delay=*/60, /*contracted=*/50);  // late
  rec.record_drop(0);
  rec.record_delivery(1, 11, /*delay=*/500, /*contracted=*/0);  // best effort
  rec.record_drop(1);
  rec.advance_to(101);
  const auto data = rec.finalize(100);

  ASSERT_EQ(data.windows(), 1u);
  EXPECT_EQ(data.qos.late, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(data.qos.drops, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(data.qos.missed, (std::vector<std::uint64_t>{2}));

  ASSERT_EQ(data.connections.size(), 2u);
  const auto& audited = data.connections[0];
  EXPECT_EQ(audited.rx, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(audited.missed, (std::vector<std::uint64_t>{2}));
  EXPECT_DOUBLE_EQ(audited.margin_min[0], -10.0);
  EXPECT_DOUBLE_EQ(audited.margin_mean[0], 0.0);  // (10 + -10) / 2
  const auto& best_effort = data.connections[1];
  EXPECT_EQ(best_effort.rx, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(best_effort.drops, (std::vector<std::uint64_t>{1}));
  // Best-effort traffic never counts as missed, and has no margin.
  EXPECT_EQ(best_effort.missed, (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(std::isnan(best_effort.margin_min[0]));
}

TEST(SeriesRecorder, SlDelayPercentilesPerWindow) {
  TelemetryRegistry reg;
  SeriesRecorder rec(reg, small_cfg());
  rec.note_connection(0, 3, true, 1000);
  for (int i = 0; i < 10; ++i) rec.record_delivery(0, 3, 7, 1000);
  rec.advance_to(101);
  rec.record_delivery(0, 3, 500, 1000);
  rec.advance_to(201);
  const auto data = rec.finalize(200);

  ASSERT_EQ(data.sl_delay.size(), 1u);
  const auto& sl = data.sl_delay[0];
  EXPECT_EQ(sl.sl, 3u);
  EXPECT_EQ(sl.rx, (std::vector<std::uint64_t>{10, 1}));
  EXPECT_EQ(sl.p50[0], Log2Histogram::bucket_upper(Log2Histogram::bucket_of(7)));
  EXPECT_EQ(sl.max, (std::vector<std::uint64_t>{7, 500}));
  // Window 2 contains only the slow packet.
  EXPECT_EQ(sl.p99[1],
            Log2Histogram::bucket_upper(Log2Histogram::bucket_of(500)));
}

TEST(SeriesRecorder, TransitionsRecordedAndCapped) {
  TelemetryRegistry reg;
  SeriesRecorder::Config cfg = small_cfg();
  cfg.max_transitions = 2;
  SeriesRecorder rec(reg, cfg);
  rec.record_transition(10, SeriesTransition::Kind::kLinkDown, -1, 4, 1);
  rec.record_transition(20, SeriesTransition::Kind::kShed, 7);
  rec.record_transition(30, SeriesTransition::Kind::kLinkUp, -1, 4, 1);
  const auto data = rec.finalize(100);
  ASSERT_EQ(data.transitions.size(), 2u);
  EXPECT_EQ(data.transitions[0].kind, SeriesTransition::Kind::kLinkDown);
  EXPECT_EQ(data.transitions[0].node, 4);
  EXPECT_EQ(data.transitions[1].conn, 7);
  EXPECT_EQ(data.transitions_dropped, 1u);
  EXPECT_STREQ(SeriesTransition::kind_name(data.transitions[1].kind), "shed");
}

TEST(SeriesRecorder, DeterministicForIdenticalInputs) {
  const auto run = [] {
    std::uint64_t c = 0;
    TelemetryRegistry reg;
    publish(reg, "arb.decisions", c);
    SeriesRecorder rec(reg, small_cfg(/*capacity=*/4));
    rec.note_connection(0, 1, true, 80);
    for (std::uint64_t t = 10; t <= 900; t += 10) {
      if (t > rec.next_due()) rec.advance_to(t);
      ++c;
      rec.record_delivery(0, 1, t % 120, 80);
      if (t % 300 == 0)
        rec.record_transition(t, SeriesTransition::Kind::kRerouted, 0);
    }
    const auto data = rec.finalize(900);
    std::ostringstream os;
    util::JsonWriter w(os);
    data.write_json(w);
    return os.str();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SeriesData, CsvExportWritesAllFourFiles) {
  const std::uint64_t decisions = 2;
  TelemetryRegistry reg;
  publish(reg, "arb.decisions", decisions);
  SeriesRecorder rec(reg, small_cfg());
  rec.note_connection(0, 1, true, 80);
  rec.record_delivery(0, 1, 40, 80);
  rec.record_transition(50, SeriesTransition::Kind::kLinkDown, -1, 2, 0);
  rec.advance_to(101);
  const auto data = rec.finalize(100);

  const std::filesystem::path dir = "ibarb_test_series_csv";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(write_series_csv(data, dir.string()));
  for (const char* name :
       {"samples.csv", "sl_delay.csv", "connections.csv", "transitions.csv"}) {
    std::ifstream f(dir / name);
    ASSERT_TRUE(f.good()) << name;
    std::string header;
    std::getline(f, header);
    EXPECT_FALSE(header.empty()) << name;
  }
  std::ifstream samples(dir / "samples.csv");
  std::string header, row;
  std::getline(samples, header);
  std::getline(samples, row);
  EXPECT_NE(header.find("arb.decisions"), std::string::npos);
  EXPECT_EQ(row.substr(0, 4), "100,");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ibarb::obs
