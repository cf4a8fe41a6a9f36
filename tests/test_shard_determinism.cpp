// The parallel core's determinism contract (ISSUE 7, docs/PARALLEL.md):
// running the same experiment with any --shards value yields byte-identical
// results — same RunSummary, same per-SL aggregations, same telemetry
// envelope (queue.*, xbar.*, credit.* counters included). Observers (series sampling, packet tracing, the
// profiler) ride the parallel path on per-shard planes and must stay
// byte-invariant too. The remaining hazards (fault hooks, delivery
// listeners, pending controls, purge barriers) fall back to the sequential
// core with a named reason; an unshardable topology must pin --shards 1
// instead of crashing.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "network/topology.hpp"
#include "paper_runner.hpp"
#include "qos/admission.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/cbr.hpp"
#include "util/json_writer.hpp"

namespace ibarb::bench {
namespace {

/// Paper-shaped but quick: the full 16-switch fabric (so 4 shards own 4
/// switches each and every window crosses shard boundaries), few packets.
PaperRunConfig quick_cfg(unsigned shards) {
  PaperRunConfig c;
  c.switches = 16;
  c.min_rx_packets = 5;
  c.warmup = 100'000;
  c.shards = shards;
  return c;
}

std::string snapshot_json(PaperRun& r) {
  std::ostringstream os;
  util::JsonWriter w(os);
  r.sim->telemetry_snapshot().write_json(w);
  return os.str();
}

void expect_bit_identical(PaperRun& a, PaperRun& b) {
  EXPECT_EQ(a.summary.warmup_end, b.summary.warmup_end);
  EXPECT_EQ(a.summary.window_cycles, b.summary.window_cycles);
  EXPECT_EQ(a.summary.hit_hard_limit, b.summary.hit_hard_limit);
  EXPECT_EQ(a.summary.events, b.summary.events);

  const auto sa = a.per_sl();
  const auto sb = b.per_sl();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t sl = 0; sl < sa.size(); ++sl) {
    EXPECT_EQ(sa[sl].rx_packets, sb[sl].rx_packets) << "sl " << sl;
    EXPECT_EQ(sa[sl].deadline_misses, sb[sl].deadline_misses) << "sl " << sl;
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

  // The full instrument envelope: every counter, gauge and histogram —
  // event-queue residency, crossbar grants, credit stalls — must match down
  // to the byte, not just the headline aggregations.
  EXPECT_EQ(snapshot_json(a), snapshot_json(b));
}

TEST(ShardDeterminism, ShardedRunsMatchSequentialBitForBit) {
  const auto s1 = run_paper_experiment(quick_cfg(1));
  const auto s2 = run_paper_experiment(quick_cfg(2));
  const auto s4 = run_paper_experiment(quick_cfg(4));
  // The engine really engaged — no silent topology fallback.
  EXPECT_EQ(s1->sim->effective_shards(), 1u);
  EXPECT_EQ(s2->sim->effective_shards(), 2u);
  EXPECT_EQ(s4->sim->effective_shards(), 4u);
  {
    SCOPED_TRACE("shards 1 vs 2");
    expect_bit_identical(*s1, *s2);
  }
  {
    SCOPED_TRACE("shards 1 vs 4");
    expect_bit_identical(*s1, *s4);
  }
}

TEST(ShardDeterminism, ObserversRideTheParallelPathAndStayInvariant) {
  // Series sampling and packet tracing are no longer hazards: each shard
  // records on its own telemetry plane and the orchestrator folds the
  // planes at window barriers in serial-replay order, so the engine stays
  // engaged and the full series (windows, QoS audit, per-SL delay
  // timelines) and the trace ring are invariant in the flag.
  const auto observed_cfg = [](unsigned shards) {
    auto c = quick_cfg(shards);
    c.sample_every = 50'000;
    c.trace_capacity = 1u << 16;
    return c;
  };
  const auto s1 = run_paper_experiment(observed_cfg(1));
  const auto s2 = run_paper_experiment(observed_cfg(2));
  const auto s4 = run_paper_experiment(observed_cfg(4));
  EXPECT_EQ(s2->sim->effective_shards(), 2u);
  EXPECT_EQ(s4->sim->effective_shards(), 4u);
  EXPECT_TRUE(s4->sim->shard_fallback_reason().empty())
      << s4->sim->shard_fallback_reason();
  ASSERT_TRUE(s1->series.has_value());
  ASSERT_TRUE(s2->series.has_value());
  ASSERT_TRUE(s4->series.has_value());
  // Compare the serialized form: per-connection deadline margins are NaN
  // for windows without a delivery, which poisons operator== (NaN != NaN)
  // even on identical data; the JSON writer maps NaN to null.
  const auto series_json = [](const obs::SeriesData& s) {
    std::ostringstream os;
    util::JsonWriter w(os);
    s.write_json(w);
    return os.str();
  };
  const auto trace_csv = [](const PaperRun& r) {
    std::ostringstream os;
    r.sim->trace().dump_csv(os);
    return os.str();
  };
  {
    SCOPED_TRACE("shards 1 vs 2");
    EXPECT_EQ(series_json(*s1->series), series_json(*s2->series));
    EXPECT_EQ(trace_csv(*s1), trace_csv(*s2));
    expect_bit_identical(*s1, *s2);
  }
  {
    SCOPED_TRACE("shards 1 vs 4");
    EXPECT_EQ(series_json(*s1->series), series_json(*s4->series));
    EXPECT_EQ(trace_csv(*s1), trace_csv(*s4));
    expect_bit_identical(*s1, *s4);
  }
}

TEST(ShardDeterminism, FaultHooksFallBackWithNamedReason) {
  // Fault hooks remain a genuine hazard (arbitrary callbacks observe
  // mid-window state): the simulator must take the sequential path and
  // name the hazard via shard_fallback_reason().
  network::FabricGraph g;
  const auto sw = g.add_switch(4);
  const auto sw2 = g.add_switch(4);
  g.connect(sw, 3, sw2, 3);
  for (unsigned h = 0; h < 2; ++h) {
    g.connect(g.add_host(), 0, sw, h);
    g.connect(g.add_host(), 0, sw2, h);
  }
  subnet::SubnetManager sm(g);
  sim::SimConfig cfg;
  cfg.shards = 2;
  sim::Simulator sim(g, sm.routes(), cfg);
  sim::FaultHooks healthy;
  sim.attach_fault_hooks(&healthy);
  sim.run_until(10'000);
  EXPECT_EQ(sim.shard_fallback_reason(), "fault-hooks");
  // Detaching the hooks clears the hazard: the engine engages on the next
  // run_until and the reason resets.
  sim.attach_fault_hooks(nullptr);
  sim.run_until(20'000);
  EXPECT_TRUE(sim.shard_fallback_reason().empty())
      << sim.shard_fallback_reason();
}

// --------------------------------------------------------------------------
// One case per run-axis cell: each non-default crossbar on the paper's
// irregular fabric, and each structured topology on the routing engine built
// for it. Every cell must engage four shards, reproduce the sequential run
// bit for bit and keep the paper's no-miss guarantee.

struct AxisCell {
  const char* name;  ///< Test-name suffix.
  sched::CrossbarImpl crossbar;
  const char* topo;
  const char* routing;
};

constexpr AxisCell kAxisCells[] = {
    {"islip", sched::CrossbarImpl::kIslip, "irregular", "updown"},
    {"matrix", sched::CrossbarImpl::kMatrix, "irregular", "updown"},
    {"torus3d", sched::CrossbarImpl::kWrr, "torus3d:x=3,y=3,z=3,hosts=1",
     "minimal-vl-escape"},
    {"dragonfly", sched::CrossbarImpl::kWrr, "dragonfly:a=2,h=1,p=1",
     "minimal-vl-escape"},
    {"fattree", sched::CrossbarImpl::kWrr, "fattree:k=2,n=3",
     "fattree-dmodk"},
};

/// gtest prints a parameter into the ctest name; the raw bytes of a
/// pointer-holding struct would change from build to build.
void PrintTo(const AxisCell& cell, std::ostream* os) { *os << cell.name; }

PaperRunConfig cell_cfg(const AxisCell& cell, unsigned shards) {
  PaperRunConfig c;
  c.switches = 4;  // irregular cells only; the other specs pin their size
  c.min_rx_packets = 1;
  c.warmup = 20'000;
  c.hard_limit = 50'000'000;
  c.crossbar = cell.crossbar;
  c.topo = cell.topo;
  c.routing = cell.routing;
  c.shards = shards;
  return c;
}

class AxisCellTest : public ::testing::TestWithParam<AxisCell> {};

TEST_P(AxisCellTest, FourShardsMatchSequentialWithNoDeadlineMiss) {
  const auto s1 = run_paper_experiment(cell_cfg(GetParam(), 1));
  const auto s4 = run_paper_experiment(cell_cfg(GetParam(), 4));
  EXPECT_EQ(s4->sim->effective_shards(), 4u);
  EXPECT_TRUE(s4->sim->shard_fallback_reason().empty())
      << s4->sim->shard_fallback_reason();
  ASSERT_FALSE(s1->summary.hit_hard_limit);
  ASSERT_GT(s1->workload.accepted, 0u);
  for (const auto& sl : s1->per_sl())
    EXPECT_EQ(sl.deadline_misses, 0u) << "SL " << int(sl.sl);
  expect_bit_identical(*s1, *s4);
}

INSTANTIATE_TEST_SUITE_P(Cells, AxisCellTest, ::testing::ValuesIn(kAxisCells),
                         [](const ::testing::TestParamInfo<AxisCell>& info) {
                           return std::string(info.param.name);
                         });

// --------------------------------------------------------------------------
// Fault storm: hooks + recovery are hazards, so the sharded run falls back
// to the sequential core — and the whole faulty trajectory (injector and
// coordinator statistics, per-connection outcomes) must not notice the flag.

std::string storm_fingerprint(std::uint64_t seed, unsigned shards) {
  auto graph = network::gen::fat_tree2(/*spines=*/2, /*leaves=*/4,
                                      /*hosts_per_leaf=*/2);
  subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config acfg;
  acfg.seed = seed;
  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  acfg);
  sim::SimConfig scfg;
  scfg.seed = seed ^ 0x51Dull;
  scfg.shards = shards;
  sim::Simulator sim(graph, sm.routes(), scfg);

  const auto hosts = graph.hosts();
  std::vector<qos::ConnectionId> ids;
  std::vector<std::uint32_t> flows;
  const auto add = [&](iba::NodeId src, iba::NodeId dst, iba::ServiceLevel sl,
                       std::uint64_t flow_seed) {
    qos::ConnectionRequest req;
    req.src_host = src;
    req.dst_host = dst;
    req.sl = sl;
    req.max_distance = qos::find_sl(admission.catalogue(), sl)->max_distance;
    req.wire_mbps = 30;
    const auto id = admission.request(req);
    ASSERT_TRUE(id.has_value());
    auto spec = traffic::make_cbr_flow(src, dst, sl, /*payload=*/256,
                                       /*wire_mbps=*/30,
                                       admission.connection(*id).deadline,
                                       flow_seed);
    ids.push_back(*id);
    flows.push_back(sim.add_flow(spec));
  };
  add(hosts[0], hosts[3], 8, 300);
  add(hosts[1], hosts[5], 9, 301);
  add(hosts[4], hosts[7], 8, 302);

  faults::StormConfig sc;
  sc.seed = seed * 11 + 1;
  sc.start = 100'000;
  sc.length = 600'000;
  sc.first_flow = flows.front();
  sc.flows = static_cast<std::uint32_t>(flows.size());
  faults::FaultInjector injector(
      sim, graph, faults::FaultPlan::random_storm(graph, sc), seed);
  faults::RecoveryCoordinator coordinator(sim, graph, sm, admission, injector);
  for (std::size_t i = 0; i < ids.size(); ++i)
    coordinator.track(ids[i], flows[i]);

  sm.configure_fabric(sim, admission);
  injector.arm();
  sim.metrics().start_window(0);
  sim.run_until(1'000'000);

  std::ostringstream out;
  out << "events=" << sim.events_processed();
  const auto& fs = injector.stats();
  out << " down=" << fs.link_down_events << " up=" << fs.link_up_events
      << " corrupt=" << fs.corrupt_attempts << " rej=" << fs.crc_rejected
      << " drop=" << fs.dropped_packets << " flushed=" << fs.flushed_packets;
  const auto& rs = coordinator.stats();
  out << " resweeps=" << rs.resweeps << " rerouted=" << rs.rerouted
      << " suspended=" << rs.suspended << " restored=" << rs.restored;
  for (const auto& c : sim.metrics().connections)
    out << " [" << c.tx_packets << "/" << c.rx_packets << "/"
        << c.dropped_packets << "/" << c.deadline_misses << "]";
  {
    util::JsonWriter w(out);
    sim.telemetry_snapshot().write_json(w);
  }
  return out.str();
}

TEST(ShardDeterminism, FaultStormIsShardFlagInvariant) {
  const auto sequential = storm_fingerprint(29, 1);
  const auto sharded = storm_fingerprint(29, 4);
  EXPECT_EQ(sequential, sharded);
}

TEST(ShardDeterminism, UnshardableTopologyPinsSequentialFallback) {
  // One switch cannot be partitioned: the simulator must warn once, pin
  // --shards 1 and keep running on the sequential core.
  network::FabricGraph g;
  const auto sw = g.add_switch(4);
  for (unsigned h = 0; h < 2; ++h) {
    const auto host = g.add_host();
    g.connect(host, 0, sw, h);
  }
  subnet::SubnetManager sm(g);
  sim::SimConfig cfg;
  cfg.shards = 4;
  sim::Simulator sim(g, sm.routes(), cfg);
  EXPECT_EQ(sim.effective_shards(), 4u);
  sim.run_until(10'000);
  EXPECT_EQ(sim.effective_shards(), 1u);
  EXPECT_EQ(sim.shard_fallback_reason(), "unshardable-topology");
}

}  // namespace
}  // namespace ibarb::bench
