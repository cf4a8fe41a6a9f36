// The sweep engine's hard requirement (ISSUE 1): running the same sweep
// with any --jobs value yields bit-identical results. Each experiment owns
// every piece of mutable state it touches (graph, RNG streams, simulator,
// metrics), per-run seeds are pure functions of (base seed, run index), and
// aggregation happens in run-index order — so nothing may depend on how the
// runs were scheduled. These tests run one small sweep sequentially and
// once on four lanes and compare every aggregate exactly (no tolerances).
#include <gtest/gtest.h>

#include <cstddef>

#include "sweep_runner.hpp"

namespace ibarb::bench {
namespace {

/// Smallest fabric the generator supports, few packets: the point is
/// scheduling coverage, not statistics.
std::vector<PaperRunConfig> tiny_sweep() {
  PaperRunConfig base;
  base.switches = 2;
  base.min_rx_packets = 5;
  base.warmup = 100'000;
  std::vector<PaperRunConfig> cfgs(4, base);
  cfgs[1].mtu = iba::Mtu::kMtu1024;
  cfgs[2].besteffort_load = 0.0;
  cfgs[3].buffer_packets = 2;
  return cfgs;
}

SweepResult sweep_with_jobs(unsigned jobs,
                            const std::vector<PaperRunConfig>& cfgs) {
  SweepOptions opts;
  opts.jobs = jobs;
  opts.base_seed = 77;  // exercise the SplitMix64 per-run derivation too
  opts.timing = false;
  return run_sweep(cfgs, opts);
}

void expect_bit_identical(const PaperRun& a, const PaperRun& b) {
  // RunSummary: the full phase protocol must have unfolded identically.
  EXPECT_EQ(a.summary.warmup_end, b.summary.warmup_end);
  EXPECT_EQ(a.summary.window_cycles, b.summary.window_cycles);
  EXPECT_EQ(a.summary.hit_hard_limit, b.summary.hit_hard_limit);
  EXPECT_EQ(a.summary.events, b.summary.events);

  EXPECT_EQ(a.workload.offered, b.workload.offered);
  EXPECT_EQ(a.workload.accepted, b.workload.accepted);

  // Merged per-SL aggregations, exact double equality: identical inputs in
  // identical order must produce identical bits.
  const auto sa = a.per_sl();
  const auto sb = b.per_sl();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t sl = 0; sl < sa.size(); ++sl) {
    EXPECT_EQ(sa[sl].connections, sb[sl].connections);
    EXPECT_EQ(sa[sl].rx_packets, sb[sl].rx_packets);
    EXPECT_EQ(sa[sl].deadline_misses, sb[sl].deadline_misses);
    for (std::size_t k = 0; k < sim::kDelayThresholds; ++k)
      EXPECT_EQ(sa[sl].within[k], sb[sl].within[k]) << "sl " << sl;
    for (std::size_t j = 0; j < sim::kJitterBins; ++j)
      EXPECT_EQ(sa[sl].jitter[j], sb[sl].jitter[j]) << "sl " << sl;
  }

  const auto ta = a.table2();
  const auto tb = b.table2();
  EXPECT_EQ(ta.injected_bytes_per_cycle_per_node,
            tb.injected_bytes_per_cycle_per_node);
  EXPECT_EQ(ta.delivered_bytes_per_cycle_per_node,
            tb.delivered_bytes_per_cycle_per_node);
  EXPECT_EQ(ta.host_utilization, tb.host_utilization);
  EXPECT_EQ(ta.switch_utilization, tb.switch_utilization);
  EXPECT_EQ(ta.host_reserved_mbps, tb.host_reserved_mbps);
  EXPECT_EQ(ta.switch_reserved_mbps, tb.switch_reserved_mbps);
}

TEST(SweepDeterminism, FourJobsMatchesSequentialBitForBit) {
  const auto seq = sweep_with_jobs(1, tiny_sweep());
  const auto par = sweep_with_jobs(4, tiny_sweep());
  ASSERT_EQ(seq.runs.size(), par.runs.size());
  EXPECT_EQ(seq.jobs, 1u);
  EXPECT_EQ(par.jobs, 4u);
  for (std::size_t i = 0; i < seq.runs.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    ASSERT_NE(seq.runs[i], nullptr);
    ASSERT_NE(par.runs[i], nullptr);
    EXPECT_EQ(seq.runs[i]->cfg.seed, par.runs[i]->cfg.seed);
    expect_bit_identical(*seq.runs[i], *par.runs[i]);
  }
}

TEST(SweepDeterminism, DerivedSeedsAreScheduleFreeAndDistinct) {
  // Pure function of (base, index)...
  EXPECT_EQ(derive_run_seed(77, 3), derive_run_seed(77, 3));
  // ...and distinct across indices and bases (replicas decorrelate).
  EXPECT_NE(derive_run_seed(77, 0), derive_run_seed(77, 1));
  EXPECT_NE(derive_run_seed(77, 0), derive_run_seed(78, 0));
  // Run 0 is NOT the base seed itself: replicas never alias a plain run.
  EXPECT_NE(derive_run_seed(77, 0), 77u);
}

TEST(SweepDeterminism, ConfigSeedsKeptWhenNoBaseSeed) {
  PaperRunConfig base;
  base.switches = 2;
  base.min_rx_packets = 2;
  base.warmup = 50'000;
  base.seed = 4242;
  SweepOptions opts;
  opts.jobs = 2;
  opts.timing = false;
  const auto sweep = run_sweep({base}, opts);
  ASSERT_EQ(sweep.runs.size(), 1u);
  EXPECT_EQ(sweep.runs[0]->cfg.seed, 4242u);
}

}  // namespace
}  // namespace ibarb::bench
