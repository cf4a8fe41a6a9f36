#include "qos/admission.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arbtable/entry_set.hpp"
#include "network/topology.hpp"
#include "qos/traffic_classes.hpp"
#include "subnet/subnet_manager.hpp"
#include "util/rng.hpp"

namespace ibarb::qos {
namespace {

AdmissionControl::Config cfg() {
  AdmissionControl::Config c;
  c.seed = 5;
  return c;
}

struct Fixture {
  network::FabricGraph graph;
  network::Routes routes;

  explicit Fixture(network::FabricGraph g)
      : graph(std::move(g)), routes(network::compute_routes(graph)) {}
};

ConnectionRequest req(iba::NodeId src, iba::NodeId dst, iba::ServiceLevel sl,
                      unsigned distance, double mbps) {
  ConnectionRequest r;
  r.src_host = src;
  r.dst_host = dst;
  r.sl = sl;
  r.max_distance = distance;
  r.wire_mbps = mbps;
  return r;
}

TEST(Admission, ReservesOnEveryHop) {
  Fixture f(network::gen::line(3, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto id = ac.request(req(hosts[0], hosts[2], 2, 8, 10.0));
  ASSERT_TRUE(id.has_value());
  const auto& conn = ac.connection(*id);
  EXPECT_EQ(conn.hops.size(), 4u);  // host + 3 switches
  for (const auto& hop : conn.hops) {
    const auto& m = ac.port_manager(hop.port.node, hop.port.port);
    EXPECT_DOUBLE_EQ(m.reserved_mbps(), 10.0);
    EXPECT_EQ(m.table().vl_weight_high(2),
              hop.requirement.total_weight);
  }
  EXPECT_TRUE(ac.check_all_invariants());
}

TEST(Admission, DeadlineUsesPathLength) {
  Fixture f(network::gen::line(4, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto near = ac.request(req(hosts[0], hosts[1], 3, 16, 4.0));
  const auto far = ac.request(req(hosts[0], hosts[3], 3, 16, 4.0));
  ASSERT_TRUE(near && far);
  EXPECT_EQ(ac.connection(*near).deadline, end_to_end_guarantee(16, 3));
  EXPECT_EQ(ac.connection(*far).deadline, end_to_end_guarantee(16, 5));
}

TEST(Admission, RejectionRollsBackAllHops) {
  Fixture f(network::gen::line(2, 2));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();  // h0,h1 on sw0; h2,h3 on sw1
  // Saturate the trunk: 1600 Mbps reservable on the sw0->sw1 port.
  ASSERT_TRUE(ac.request(req(hosts[0], hosts[2], 9, 64, 900.0)).has_value());
  ASSERT_TRUE(ac.request(req(hosts[1], hosts[3], 9, 64, 650.0)).has_value());
  // This one fits its host interface but not the trunk -> must roll back.
  const auto before = ac.port_manager(hosts[0], 0).reserved_mbps();
  EXPECT_FALSE(ac.request(req(hosts[0], hosts[3], 9, 64, 200.0)).has_value());
  EXPECT_DOUBLE_EQ(ac.port_manager(hosts[0], 0).reserved_mbps(), before);
  EXPECT_EQ(ac.rejected(), 1u);
  EXPECT_TRUE(ac.check_all_invariants());
}

TEST(Admission, ReleaseFreesEveryHop) {
  Fixture f(network::gen::line(3, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto id = ac.request(req(hosts[0], hosts[2], 4, 32, 6.0));
  ASSERT_TRUE(id.has_value());
  const auto hops = ac.connection(*id).hops;
  ac.release(*id);
  EXPECT_FALSE(ac.is_live(*id));
  for (const auto& hop : hops) {
    const auto& m = ac.port_manager(hop.port.node, hop.port.port);
    EXPECT_DOUBLE_EQ(m.reserved_mbps(), 0.0);
    EXPECT_EQ(m.free_entries(), 64u);
  }
  EXPECT_THROW(ac.release(*id), std::invalid_argument);
}

TEST(Admission, SameSlConnectionsShareEntriesAcrossTheFabric) {
  Fixture f(network::gen::single_switch(4));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  // Two SL7 connections into the same destination share the switch port's
  // sequence (accumulated weight), not two separate sequences.
  ASSERT_TRUE(ac.request(req(hosts[0], hosts[3], 7, 64, 2.0)).has_value());
  ASSERT_TRUE(ac.request(req(hosts[1], hosts[3], 7, 64, 2.0)).has_value());
  const auto up = f.graph.host_uplink(hosts[3]);
  const auto& m = ac.port_manager(up.node, up.port);
  EXPECT_EQ(m.live_sequences(), 1u);
  EXPECT_EQ(m.stats().shares, 1u);
}

TEST(Admission, DistanceGuaranteeHoldsOnEveryHopTable) {
  Fixture f(network::gen::line(3, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto id = ac.request(req(hosts[0], hosts[2], 0, 2, 1.5));
  ASSERT_TRUE(id.has_value());
  for (const auto& hop : ac.connection(*id).hops) {
    const auto& table =
        ac.port_manager(hop.port.node, hop.port.port).table().high();
    EXPECT_LE(arbtable::max_gap_for_vl(table, 0), 2u);
  }
}

TEST(Admission, ThrowsOnBestEffortSl) {
  Fixture f(network::gen::single_switch(2));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  EXPECT_THROW(ac.request(req(hosts[0], hosts[1], 11, 64, 1.0)),
               std::invalid_argument);
}

TEST(Admission, LegacySchemePutsDbInLowTable) {
  Fixture f(network::gen::single_switch(3));
  auto c = cfg();
  c.scheme = Scheme::kLegacy;
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), c);
  const auto hosts = f.graph.hosts();
  // SL7 is DB -> low table under the legacy scheme.
  const auto db = ac.request(req(hosts[0], hosts[2], 7, 64, 5.0));
  ASSERT_TRUE(db.has_value());
  // SL2 is DBTS -> still high table.
  const auto dbts = ac.request(req(hosts[1], hosts[2], 2, 8, 5.0));
  ASSERT_TRUE(dbts.has_value());
  const auto up = f.graph.host_uplink(hosts[2]);
  const auto& m = ac.port_manager(up.node, up.port);
  EXPECT_GT(m.table().vl_weight_low(7), 0u);
  EXPECT_EQ(m.table().vl_weight_high(7), 0u);
  EXPECT_GT(m.table().vl_weight_high(2), 0u);
  ac.release(*db);
  EXPECT_EQ(m.table().vl_weight_low(7), 0u);
  EXPECT_TRUE(ac.check_all_invariants());
}

TEST(Admission, NewSchemePutsEverythingInHighTable) {
  Fixture f(network::gen::single_switch(3));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  ASSERT_TRUE(ac.request(req(hosts[0], hosts[2], 7, 64, 5.0)).has_value());
  const auto up = f.graph.host_uplink(hosts[2]);
  const auto& m = ac.port_manager(up.node, up.port);
  EXPECT_GT(m.table().vl_weight_high(7), 0u);
  // Only the static best-effort entries occupy the low table.
  EXPECT_EQ(m.table().vl_weight_low(7), 0u);
}

TEST(Admission, ProgramConfiguresSimulatorPorts) {
  Fixture f(network::gen::single_switch(2));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  ASSERT_TRUE(ac.request(req(hosts[0], hosts[1], 3, 16, 8.0)).has_value());
  sim::Simulator s(f.graph, f.routes, sim::SimConfig{});
  ac.program(s);
  const auto up = f.graph.host_uplink(hosts[1]);
  const auto id = s.flat_port_id(up.node, up.port);
  EXPECT_DOUBLE_EQ(s.metrics().ports[id].reserved_mbps, 8.0);
}

TEST(Admission, EightyPercentCapAcrossManyConnections) {
  Fixture f(network::gen::single_switch(2));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  double total = 0.0;
  for (int i = 0; i < 2000; ++i) {
    if (ac.request(req(hosts[0], hosts[1], 7, 64, 4.0)).has_value())
      total += 4.0;
  }
  EXPECT_LE(total, 0.8 * 2000.0 + 1e-9);
  EXPECT_GT(total, 0.8 * 2000.0 - 8.0);  // fills right up to the cap
}

TEST(Admission, SurvivesFaultStyleChurn) {
  // The recovery coordinator's mutation pattern: release a batch of
  // connections (defrag fires per release), re-admit over possibly different
  // paths with graceful degradation shedding best-effort load in between.
  // Every port's invariants must hold after every single step.
  const auto graph = network::gen::fat_tree2(2, 3, 2);
  subnet::SubnetManager sm(graph);
  AdmissionControl::Config ac;
  ac.seed = 9;
  AdmissionControl admission(graph, sm.routes(), paper_catalogue(), ac);
  const auto hosts = graph.hosts();

  util::Xoshiro256 rng(53);
  std::vector<ConnectionId> guaranteed;
  std::vector<ConnectionId> besteffort;
  const auto random_pair = [&](ConnectionRequest& r) {
    r.src_host = hosts[rng.below(hosts.size())];
    do {
      r.dst_host = hosts[rng.below(hosts.size())];
    } while (r.dst_host == r.src_host);
  };

  for (int step = 0; step < 400; ++step) {
    const auto dice = rng.below(10);
    if (dice < 3 && !guaranteed.empty()) {
      const auto k = rng.below(guaranteed.size());
      admission.release(guaranteed[k]);
      guaranteed[k] = guaranteed.back();
      guaranteed.pop_back();
    } else if (dice < 5 && !besteffort.empty()) {
      const auto k = rng.below(besteffort.size());
      if (admission.is_live(besteffort[k]))  // may have been shed already
        admission.release(besteffort[k]);
      besteffort[k] = besteffort.back();
      besteffort.pop_back();
    } else if (dice < 8) {
      ConnectionRequest r;
      random_pair(r);
      r.sl = static_cast<iba::ServiceLevel>(rng.below(10));
      r.max_distance = find_sl(admission.catalogue(), r.sl)->max_distance;
      r.wire_mbps = 5 + static_cast<double>(rng.below(40));
      const auto result = admission.request_degrading(r);
      if (result.id) guaranteed.push_back(*result.id);
    } else {
      ConnectionRequest r;
      random_pair(r);
      r.sl = static_cast<iba::ServiceLevel>(10 + rng.below(3));
      r.wire_mbps = 10 + static_cast<double>(rng.below(80));
      if (const auto id = admission.request_best_effort(r))
        besteffort.push_back(*id);
    }
    std::string why;
    ASSERT_TRUE(admission.check_all_invariants(&why))
        << "step " << step << ": " << why;
  }
  for (const auto id : guaranteed) admission.release(id);
  for (const auto id : besteffort)
    if (admission.is_live(id)) admission.release(id);
  std::string why;
  EXPECT_TRUE(admission.check_all_invariants(&why)) << why;
}

}  // namespace
}  // namespace ibarb::qos
