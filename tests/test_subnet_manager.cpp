#include "subnet/subnet_manager.hpp"

#include <gtest/gtest.h>

#include "network/topology.hpp"
#include "qos/admission.hpp"

namespace ibarb::subnet {
namespace {

TEST(SubnetManager, DiscoveryCountsMatchFabric) {
  network::IrregularSpec spec;
  spec.switches = 16;
  spec.seed = 6;
  const auto g = network::gen::irregular(spec);
  SubnetManager sm(g);
  EXPECT_TRUE(sm.discovery().complete);
  EXPECT_EQ(sm.discovery().switches, 16u);
  EXPECT_EQ(sm.discovery().hosts, 64u);
  // 8-port switches, 4 hosts each: 64 host links + trunk links.
  EXPECT_GE(sm.discovery().links, 64u + 15u);  // at least a spanning tree
  EXPECT_EQ(sm.sweep_order().size(), g.node_count());
}

TEST(SubnetManager, SweepVisitsEveryNodeOnce) {
  const auto g = network::gen::line(5, 2);
  SubnetManager sm(g);
  std::vector<bool> seen(g.node_count(), false);
  for (const auto n : sm.sweep_order()) {
    EXPECT_FALSE(seen[n]);
    seen[n] = true;
  }
  for (const auto s : seen) EXPECT_TRUE(s);
}

TEST(SubnetManager, LidsFollowConvention) {
  const auto g = network::gen::single_switch(3);
  SubnetManager sm(g);
  for (const auto h : g.hosts())
    EXPECT_EQ(sm.lid(h), static_cast<iba::Lid>(h + 1));
}

TEST(SubnetManager, LinkCountExactOnLine) {
  const auto g = network::gen::line(4, 1);
  SubnetManager sm(g);
  // 3 trunk links + 4 host links.
  EXPECT_EQ(sm.discovery().links, 7u);
}

TEST(SubnetManager, DescribeMentionsShape) {
  const auto g = network::gen::line(2, 1);
  SubnetManager sm(g);
  const auto text = sm.describe();
  EXPECT_NE(text.find("2 switches"), std::string::npos);
  EXPECT_NE(text.find("2 hosts"), std::string::npos);
  EXPECT_NE(text.find("complete"), std::string::npos);
  // The default engine keeps the historical up*/down* root line.
  EXPECT_NE(text.find("up*/down* root: switch"), std::string::npos);
}

TEST(SubnetManager, AcceptsInjectedRoutingEngine) {
  const auto g = network::gen::torus2d(4, 4, 1);
  SubnetManager sm(g, "minimal-vl-escape");
  EXPECT_EQ(sm.routing_engine(), "minimal-vl-escape");
  EXPECT_EQ(sm.routes().engine(), "minimal-vl-escape");
  EXPECT_EQ(sm.routes().vl_layers(), 2u);
  const auto text = sm.describe();
  EXPECT_NE(text.find("routing engine: minimal-vl-escape"),
            std::string::npos)
      << text;
  EXPECT_THROW(SubnetManager(g, "bogus"), std::invalid_argument);
}

TEST(SubnetManager, RecordedDrPathsReplayToTheirNodes) {
  network::IrregularSpec spec;
  spec.switches = 8;
  spec.seed = 11;
  const auto g = network::gen::irregular(spec);
  SubnetManager sm(g);
  DirectedRouteWalker walker(g);
  for (iba::NodeId n = 0; n < g.node_count(); ++n) {
    const auto& path = sm.dr_path(n);
    DrSmp smp;
    smp.hop_count = static_cast<std::uint8_t>(path.size());
    for (std::size_t k = 0; k < path.size(); ++k)
      smp.initial_path[k + 1] = path[k];
    const auto reached = walker.deliver(0, smp);
    ASSERT_TRUE(reached.has_value());
    EXPECT_EQ(*reached, n) << "recorded directed route does not reach node";
  }
}

TEST(SubnetManager, DiscoveryUsesSmps) {
  const auto g = network::gen::line(4, 1);
  SubnetManager sm(g);
  // One probe per (node, port) plus the origin probe; every probe of a
  // wired port contributes at least one hop except the origin's.
  EXPECT_GT(sm.discovery().smps_sent, g.node_count());
  EXPECT_GT(sm.discovery().sweep_hops, 0u);
}

TEST(SubnetManager, RoutesAreUsable) {
  network::IrregularSpec spec;
  spec.switches = 8;
  spec.seed = 19;
  const auto g = network::gen::irregular(spec);
  SubnetManager sm(g);
  const auto hosts = g.hosts();
  EXPECT_GE(sm.routes().hops(hosts.front(), hosts.back()), 1u);
}

}  // namespace
}  // namespace ibarb::subnet

namespace ibarb::subnet {
namespace {

TEST(SubnetManager, ProgramsLftsThatRouteTraffic) {
  // configure_fabric installs per-switch LFTs via MAD round trips, which
  // replace the tables the simulator seeded from Routes; traffic must still
  // reach every destination using them.
  const auto g = network::gen::line(3, 1);
  SubnetManager sm(g);
  qos::AdmissionControl admission(g, sm.routes(), qos::paper_catalogue(), {});
  sim::Simulator sim(g, sm.routes(), {});

  qos::ConnectionRequest req;
  const auto hosts = g.hosts();
  req.src_host = hosts[0];
  req.dst_host = hosts[2];
  req.sl = 7;
  req.max_distance = 64;
  req.wire_mbps = 20.0;
  ASSERT_TRUE(admission.request(req).has_value());

  sm.configure_fabric(sim, admission);
  sim::FlowSpec f;
  f.src_host = hosts[0];
  f.dst_host = hosts[2];
  f.sl = 7;
  f.payload_bytes = 256;
  f.interval = 10000;
  const auto flow = sim.add_flow(f);
  sim.metrics().start_window(0);
  sim.run_until(500000);
  EXPECT_GT(sim.metrics().connections[flow].rx_packets, 40u);
}

}  // namespace
}  // namespace ibarb::subnet

namespace ibarb::subnet {
namespace {

TEST(SubnetManager, LftsAgreeWithRoutesEverywhere) {
  network::IrregularSpec spec;
  spec.switches = 16;
  spec.seed = 31;
  const auto g = network::gen::irregular(spec);
  SubnetManager sm(g);
  qos::AdmissionControl admission(g, sm.routes(), qos::paper_catalogue(), {});
  sim::Simulator sim(g, sm.routes(), {});
  sm.configure_fabric(sim, admission);
  // A packet injected between the two most distant hosts must arrive: this
  // exercises the MAD-programmed LFT at every hop -- a single wrong entry
  // would either loop (debug assert) or strand the packet.
  const auto hosts = g.hosts();
  sim::FlowSpec f;
  f.src_host = hosts.front();
  f.dst_host = hosts.back();
  f.sl = 7;
  f.payload_bytes = 256;
  f.interval = 20000;
  iba::VlArbitrationTable t;
  t.high()[0] = iba::ArbTableEntry{7, 100};
  for (iba::NodeId n = 0; n < g.node_count(); ++n) {
    const unsigned ports = g.is_switch(n) ? g.port_count(n) : 1;
    for (unsigned p = 0; p < ports; ++p)
      if (g.peer(n, static_cast<iba::PortIndex>(p)))
        sim.set_output_arbitration(n, static_cast<iba::PortIndex>(p), t);
  }
  const auto flow = sim.add_flow(f);
  sim.metrics().start_window(0);
  sim.run_until(600000);
  EXPECT_GT(sim.metrics().connections[flow].rx_packets, 20u);
}

}  // namespace
}  // namespace ibarb::subnet
