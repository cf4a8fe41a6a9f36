#include "subnet/subnet_manager.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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
  // configure_fabric installs per-switch LFTs, which replace the tables the
  // simulator seeded from Routes; traffic must still reach every destination
  // using them.
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
  // exercises the SM-programmed LFT at every hop -- a single wrong entry
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

namespace ibarb::subnet {
namespace {

// The sweep's outputs, pinned exactly. Recovery latency, the
// recovery.smps_sent counter and the churn snapshot all carry smps_sent, so
// these numbers are part of every fault-run report.

/// FNV-1a over the node ids, so a long sweep order pins in one integer.
std::uint64_t fingerprint(const std::vector<iba::NodeId>& order) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto n : order) {
    h ^= n;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Pinned {
  unsigned smps_sent;
  unsigned sweep_hops;
  unsigned links;
  bool complete;
  std::size_t order_size;
  std::uint64_t order_hash;
};

void expect_sweep(const SubnetManager& sm, const Pinned& want) {
  const auto& got = sm.discovery();
  EXPECT_EQ(got.smps_sent, want.smps_sent);
  EXPECT_EQ(got.sweep_hops, want.sweep_hops);
  EXPECT_EQ(got.links, want.links);
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(sm.sweep_order().size(), want.order_size);
  EXPECT_EQ(fingerprint(sm.sweep_order()), want.order_hash);
}

TEST(SubnetManager, SweepOutputsArePinned) {
  {
    SCOPED_TRACE("irregular, default spec");
    const auto g = network::gen::irregular(network::IrregularSpec{});
    expect_sweep(SubnetManager(g),
                 {193, 604, 96, true, 80, 0xf7ecd75cdabb7b29ull});
  }
  {
    SCOPED_TRACE("torus3d 3x3x3");
    const auto g = network::gen::torus3d(3, 3, 3, 1);
    expect_sweep(SubnetManager(g),
                 {217, 675, 108, true, 54, 0xc9ef6ede26f10f5cull});
  }
  {
    SCOPED_TRACE("dragonfly a=4 h=2 g=9");
    const auto g = network::gen::dragonfly(4, 2, 9, 2);
    expect_sweep(SubnetManager(g),
                 {325, 1143, 162, true, 108, 0x14d7e1e216954cf5ull});
  }
  {
    // Node 0 is the line's first switch; nodes 64 or more hops from it lie
    // beyond the directed-route limit and stay undiscovered.
    SCOPED_TRACE("line of 70 switches");
    const auto g = network::gen::line(70, 1);
    const SubnetManager sm(g);
    expect_sweep(sm, {252, 8062, 125, false, 127, 0xc1b4b693117c1a60ull});
    EXPECT_LT(sm.sweep_order().size(), g.node_count());
  }
}

TEST(SubnetManager, ResweepOutputsArePinned) {
  {
    SCOPED_TRACE("torus3d 3x3x3, one link down");
    const auto g = network::gen::torus3d(3, 3, 3, 1);
    SubnetManager sm(g);
    sim::Simulator sim(g, sm.routes(), {});
    const auto out = sm.resweep(sim, {network::PortRef{0, 1}});
    EXPECT_EQ(out.smps_sent, 217u);
    EXPECT_TRUE(out.complete);
    EXPECT_TRUE(out.routes_changed);
    expect_sweep(sm, {217, 681, 107, true, 54, 0x4e84ce765d1f8d00ull});
  }
  {
    // Switch 1's port 1 is the trunk to switch 2: the sweep from switch 0
    // cannot reach switches 2 and 3, so the old routes stay (fail-static).
    SCOPED_TRACE("line of 4 switches, partitioned");
    const auto g = network::gen::line(4, 1);
    SubnetManager sm(g);
    const auto before = sm.discovery();
    const auto order_before = sm.sweep_order();
    sim::Simulator sim(g, sm.routes(), {});
    const auto out = sm.resweep(sim, {network::PortRef{1, 1}});
    EXPECT_EQ(out.smps_sent, 9u);
    EXPECT_FALSE(out.complete);
    EXPECT_FALSE(out.routes_changed);
    EXPECT_EQ(sm.discovery().smps_sent, before.smps_sent);
    EXPECT_EQ(sm.discovery().sweep_hops, before.sweep_hops);
    EXPECT_EQ(sm.sweep_order(), order_before);
  }
}

}  // namespace
}  // namespace ibarb::subnet
