// End-to-end integration: the paper's full pipeline on a small (8-switch)
// irregular network — discovery, routing, Table-1 workload, admission,
// fabric programming, simulation — then the QoS assertions of §4.3:
// every guaranteed connection receives all packets within its deadline and
// jitter stays within one inter-arrival time.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "network/topology.hpp"
#include "paper_runner.hpp"
#include "qos/admission.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/workload.hpp"

namespace ibarb {
namespace {

struct Scenario {
  network::FabricGraph graph;
  subnet::SubnetManager sm;
  qos::AdmissionControl admission;
  sim::Simulator sim;
  traffic::Workload workload;
  sim::RunSummary summary;

  explicit Scenario(iba::Mtu mtu, std::uint64_t seed = 21,
                    qos::Scheme scheme = qos::Scheme::kNewProposal)
      : graph(network::gen::irregular(spec(seed))),
        sm(graph),
        admission(graph, sm.routes(), qos::paper_catalogue(),
                  acfg(scheme, mtu)),
        sim(graph, sm.routes(), scfg(mtu)) {
    traffic::WorkloadConfig wc;
    wc.mtu = mtu;
    wc.seed = seed;
    wc.besteffort_load = 0.08;
    workload = traffic::build_paper_workload(graph, sm.routes(), admission,
                                             sim, wc);
    sm.configure_fabric(sim, admission);
    summary = sim.run_paper_phases(/*warmup=*/400000, /*min_rx=*/12,
                                   /*hard_limit=*/400000000);
  }

  static network::IrregularSpec spec(std::uint64_t seed) {
    network::IrregularSpec s;
    s.switches = 8;
    s.seed = seed;
    return s;
  }
  static qos::AdmissionControl::Config acfg(qos::Scheme scheme,
                                            iba::Mtu mtu) {
    qos::AdmissionControl::Config c;
    c.seed = 2;
    c.scheme = scheme;
    c.max_packet_wire_bytes = iba::mtu_bytes(mtu) + iba::kPacketOverheadBytes;
    return c;
  }
  static sim::SimConfig scfg(iba::Mtu mtu) {
    sim::SimConfig c;
    c.max_payload_bytes = iba::mtu_bytes(mtu);
    c.seed = 77;
    return c;
  }
};

class QosIntegration : public ::testing::TestWithParam<iba::Mtu> {};

TEST_P(QosIntegration, AllGuaranteedConnectionsMeetDeadlines) {
  Scenario s(GetParam());
  ASSERT_FALSE(s.summary.hit_hard_limit);
  ASSERT_GT(s.workload.accepted, 50u);

  std::uint64_t total_rx = 0;
  for (const auto& ec : s.workload.connections) {
    const auto& c = s.sim.metrics().connections[ec.flow];
    ASSERT_GE(c.rx_packets, 12u) << "SL " << int(ec.sl);
    total_rx += c.rx_packets;
    EXPECT_EQ(c.deadline_misses, 0u)
        << "SL " << int(ec.sl) << " flow " << ec.flow << " max delay "
        << c.delay_max << " vs deadline " << c.deadline;
    // The D/1 threshold is 100% for every connection (Figure 4's headline).
    EXPECT_DOUBLE_EQ(c.fraction_within(sim::kDelayThresholds - 1), 1.0);
  }
  EXPECT_GT(total_rx, 1000u);
  EXPECT_TRUE(s.admission.check_all_invariants());
}

TEST_P(QosIntegration, JitterStaysWithinOneInterArrivalTime) {
  Scenario s(GetParam());
  std::uint64_t inside = 0;
  std::uint64_t outside = 0;
  for (const auto& ec : s.workload.connections) {
    const auto& c = s.sim.metrics().connections[ec.flow];
    for (std::size_t b = 0; b < sim::kJitterBins; ++b) {
      const bool overflow = b == 0 || b == sim::kJitterBins - 1;
      (overflow ? outside : inside) += c.jitter_bins[b];
    }
  }
  ASSERT_GT(inside, 0u);
  // Figure 5: jitter "never exceeding +-IAT".
  EXPECT_LE(static_cast<double>(outside),
            0.01 * static_cast<double>(inside + outside));
}

TEST_P(QosIntegration, BestEffortStillProgresses) {
  Scenario s(GetParam());
  std::uint64_t be_rx = 0;
  for (const auto& c : s.sim.metrics().connections)
    if (!c.qos) be_rx += c.rx_packets;
  EXPECT_GT(be_rx, 0u) << "low-priority table must drain when links idle";
}

TEST_P(QosIntegration, UtilizationIsPhysical) {
  Scenario s(GetParam());
  const auto window = s.sim.metrics().window_length();
  ASSERT_GT(window, 0u);
  for (const auto& p : s.sim.metrics().ports) {
    EXPECT_LE(p.utilization(window), 1.0 + 1e-9);
    EXPECT_LE(p.reserved_mbps, 0.8 * p.link_mbps + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(PacketSizes, QosIntegration,
                         ::testing::Values(iba::Mtu::kMtu256,
                                           iba::Mtu::kMtu2048));

TEST(QosIntegrationStructured, TheoremOneHoldsOnADragonflyEndToEnd) {
  // The guarantee comes from the output ports' arbitration tables, not from
  // the paper's up*/down* routes: a dragonfly routed minimally with an
  // escape VL layer must meet every deadline too, with admission checking
  // each hop's table distance.
  bench::PaperRunConfig cfg;
  cfg.topo = "dragonfly:a=2,h=2,p=2";
  cfg.routing = "minimal-vl-escape";
  cfg.min_rx_packets = 8;
  cfg.warmup = 200'000;
  cfg.hard_limit = 100'000'000;
  const auto run = bench::run_paper_experiment(cfg);
  ASSERT_FALSE(run->summary.hit_hard_limit);
  ASSERT_GT(run->workload.accepted, 50u);
  for (const auto& ec : run->workload.connections) {
    const auto& c = run->sim->metrics().connections[ec.flow];
    ASSERT_GE(c.rx_packets, 8u) << "SL " << int(ec.sl);
    EXPECT_EQ(c.deadline_misses, 0u)
        << "SL " << int(ec.sl) << " flow " << ec.flow << " max delay "
        << c.delay_max << " vs deadline " << c.deadline;
    EXPECT_DOUBLE_EQ(c.fraction_within(sim::kDelayThresholds - 1), 1.0);
  }
  EXPECT_TRUE(run->admission->check_all_invariants());
}

TEST(QosIntegrationMisbehavior, OversendingOnlyHurtsItsOwnVl) {
  // A compliant run vs one where SL9 sources send 3x their reservation.
  // Under the paper's scheme, connections on other VLs keep their
  // guarantees; the damage stays inside SL9's VL.
  const auto build = [](double factor) {
    network::IrregularSpec ns;
    ns.switches = 8;
    ns.seed = 21;
    auto graph = network::gen::irregular(ns);
    auto routes = network::compute_routes(graph);
    qos::AdmissionControl::Config ac;
    ac.seed = 2;
    auto admission = std::make_unique<qos::AdmissionControl>(
        graph, routes, qos::paper_catalogue(), ac);
    sim::SimConfig sc;
    sc.seed = 77;
    auto sim = std::make_unique<sim::Simulator>(graph, routes, sc);
    traffic::WorkloadConfig wc;
    wc.seed = 21;
    wc.besteffort_load = 0.0;
    wc.oversend_sl_mask = 1u << 9;
    wc.oversend_factor = factor;
    auto workload =
        traffic::build_paper_workload(graph, routes, *admission, *sim, wc);
    admission->program(*sim);
    sim->run_paper_phases(400000, 12, 400000000);
    std::uint64_t misses_other = 0;
    std::uint64_t rx_other = 0;
    for (const auto& ec : workload.connections) {
      if (ec.sl == 9) continue;
      const auto& c = sim->metrics().connections[ec.flow];
      misses_other += c.deadline_misses;
      rx_other += c.rx_packets;
    }
    return std::pair{misses_other, rx_other};
  };
  const auto [misses, rx] = build(3.0);
  EXPECT_GT(rx, 500u);
  EXPECT_EQ(misses, 0u)
      << "victim SLs on other VLs lost guarantees to a misbehaving SL9";
}

// One case per run-axis cell: each non-default crossbar on the paper's
// irregular fabric, and each structured topology on the routing engine built
// for it. Every cell must finish before the hard limit, admit connections
// and keep the paper's no-miss guarantee.

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

class AxisCellTest : public ::testing::TestWithParam<AxisCell> {};

TEST_P(AxisCellTest, NoHardLimitHitAndNoDeadlineMiss) {
  const AxisCell& cell = GetParam();
  bench::PaperRunConfig c;
  c.switches = 4;  // irregular cells only; the other specs pin their size
  c.min_rx_packets = 1;
  c.warmup = 20'000;
  c.hard_limit = 50'000'000;
  c.crossbar = cell.crossbar;
  c.topo = cell.topo;
  c.routing = cell.routing;
  const auto run = bench::run_paper_experiment(c);
  ASSERT_FALSE(run->summary.hit_hard_limit);
  ASSERT_GT(run->workload.accepted, 0u);
  for (const auto& sl : run->per_sl())
    EXPECT_EQ(sl.deadline_misses, 0u) << "SL " << int(sl.sl);
}

INSTANTIATE_TEST_SUITE_P(Cells, AxisCellTest, ::testing::ValuesIn(kAxisCells),
                         [](const ::testing::TestParamInfo<AxisCell>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace ibarb
