#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "network/topology.hpp"

namespace ibarb::sim {
namespace {

/// Arbitration table serving the given VLs round-robin with the given
/// weights from the high-priority table.
iba::VlArbitrationTable table_for(
    std::initializer_list<std::pair<iba::VirtualLane, std::uint8_t>> vls) {
  iba::VlArbitrationTable t;
  unsigned i = 0;
  for (const auto& [vl, w] : vls) t.high()[i++] = iba::ArbTableEntry{vl, w};
  return t;
}

/// Programs every wired output port of the fabric with the same table.
void program_all(Simulator& sim, const network::FabricGraph& g,
                 const iba::VlArbitrationTable& t) {
  for (iba::NodeId n = 0; n < g.node_count(); ++n) {
    const unsigned ports = g.is_switch(n) ? g.port_count(n) : 1;
    for (unsigned p = 0; p < ports; ++p)
      if (g.peer(n, static_cast<iba::PortIndex>(p)))
        sim.set_output_arbitration(n, static_cast<iba::PortIndex>(p), t);
  }
}

FlowSpec cbr(iba::NodeId src, iba::NodeId dst, iba::ServiceLevel sl,
             std::uint32_t payload, iba::Cycle interval) {
  FlowSpec f;
  f.src_host = src;
  f.dst_host = dst;
  f.sl = sl;
  f.payload_bytes = payload;
  f.interval = interval;
  f.deadline = 1u << 20;
  return f;
}

TEST(Simulator, DeliversCbrPackets) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  const auto flow = sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 2000));
  sim.metrics().start_window(0);
  sim.run_until(200000);
  const auto& c = sim.metrics().connections[flow];
  // 200000/2000 = 100 packets generated; nearly all should have landed.
  EXPECT_GE(c.rx_packets, 95u);
  EXPECT_LE(c.rx_packets, 101u);
  EXPECT_EQ(c.rx_payload_bytes, c.rx_packets * 256u);
  EXPECT_GT(c.mean_delay(), 0.0);
}

TEST(Simulator, PacketConservation) {
  const auto g = network::gen::line(3, 1);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}, {1, 100}}));
  const auto hosts = g.hosts();
  const auto f1 = sim.add_flow(cbr(hosts[0], hosts[2], 0, 512, 1500));
  const auto f2 = sim.add_flow(cbr(hosts[2], hosts[0], 1, 256, 900));
  sim.metrics().start_window(0);
  sim.run_until(500000);
  const auto& m = sim.metrics();
  const auto tx = m.connections[f1].tx_packets + m.connections[f2].tx_packets;
  const auto rx = m.connections[f1].rx_packets + m.connections[f2].rx_packets;
  ASSERT_GE(tx, rx);
  // Everything generated is delivered, queued, or in flight on a link; the
  // line has 5 links x 2 directions, at most ~2 packets in flight each.
  const auto queued = sim.packets_in_network();
  ASSERT_GE(tx, rx + queued);
  EXPECT_LE(tx - rx - queued, 20u);
}

TEST(Simulator, MultiHopDelayGrowsWithDistance) {
  const auto g = network::gen::line(4, 1);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}, {1, 100}}));
  const auto hosts = g.hosts();
  const auto near = sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 3000));
  const auto far = sim.add_flow(cbr(hosts[0], hosts[3], 1, 256, 3000));
  sim.metrics().start_window(0);
  sim.run_until(300000);
  const auto& m = sim.metrics();
  ASSERT_GT(m.connections[near].rx_packets, 10u);
  ASSERT_GT(m.connections[far].rx_packets, 10u);
  EXPECT_GT(m.connections[far].mean_delay(),
            m.connections[near].mean_delay());
}

TEST(Simulator, ArbitrationWeightsShapeContendedBandwidth) {
  // Two sources flood one destination; table weights 2:1 on their VLs must
  // shape the delivered bytes accordingly.
  const auto g = network::gen::single_switch(3);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 200}, {1, 100}}));
  const auto hosts = g.hosts();
  // Each source offers ~90% of the link: the shared output saturates.
  const auto fa = sim.add_flow(cbr(hosts[0], hosts[2], 0, 1024, 1160));
  const auto fb = sim.add_flow(cbr(hosts[1], hosts[2], 1, 1024, 1160));
  sim.metrics().start_window(0);
  sim.run_until(3000000);
  const auto& m = sim.metrics();
  const auto ra = m.connections[fa].rx_wire_bytes;
  const auto rb = m.connections[fb].rx_wire_bytes;
  ASSERT_GT(rb, 0u);
  EXPECT_NEAR(static_cast<double>(ra) / static_cast<double>(rb), 2.0, 0.15);
}

TEST(Simulator, ManagementTrafficPreemptsData) {
  const auto g = network::gen::single_switch(3);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  // Saturating data flow and a trickle of management MADs to the same dst.
  const auto data = sim.add_flow(cbr(hosts[0], hosts[2], 0, 4096, 4200));
  auto mad = cbr(hosts[1], hosts[2], 0, 64, 50000);
  mad.management = true;
  const auto mgmt = sim.add_flow(mad);
  sim.metrics().start_window(0);
  sim.run_until(2000000);
  const auto& m = sim.metrics();
  EXPECT_GT(m.connections[data].rx_packets, 100u);
  // Management packets are tiny and few: all of them must get through.
  EXPECT_GE(m.connections[mgmt].rx_packets, 38u);
  EXPECT_LT(m.connections[mgmt].delay_max, 100000u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto run = [] {
    const auto g = network::gen::line(3, 2);
    const auto routes = network::compute_routes(g);
    Simulator sim(g, routes, SimConfig{});
    iba::VlArbitrationTable t = iba::VlArbitrationTable();
    t.high()[0] = iba::ArbTableEntry{0, 50};
    t.high()[1] = iba::ArbTableEntry{1, 30};
    t.high()[2] = iba::ArbTableEntry{2, 20};
    for (iba::NodeId n = 0; n < g.node_count(); ++n) {
      const unsigned ports = g.is_switch(n) ? g.port_count(n) : 1;
      for (unsigned p = 0; p < ports; ++p)
        if (g.peer(n, static_cast<iba::PortIndex>(p)))
          sim.set_output_arbitration(n, static_cast<iba::PortIndex>(p), t);
    }
    const auto hosts = g.hosts();
    sim.add_flow(cbr(hosts[0], hosts[5], 0, 256, 700));
    sim.add_flow(cbr(hosts[1], hosts[4], 1, 512, 900));
    sim.add_flow(cbr(hosts[5], hosts[0], 2, 1024, 1100));
    sim.metrics().start_window(0);
    sim.run_until(800000);
    std::uint64_t digest = sim.events_processed();
    for (const auto& c : sim.metrics().connections) {
      digest = digest * 31 + c.rx_packets;
      digest = digest * 31 + static_cast<std::uint64_t>(c.mean_delay() * 16);
    }
    return digest;
  };
  EXPECT_EQ(run(), run());
}

TEST(Simulator, PaperPhasesStopAtTargetPackets) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  const auto flow = sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 5000));
  const auto summary =
      sim.run_paper_phases(/*warmup=*/50000, /*min_rx=*/50,
                           /*hard_limit=*/100000000);
  EXPECT_FALSE(summary.hit_hard_limit);
  EXPECT_GE(sim.metrics().connections[flow].rx_packets, 50u);
  EXPECT_GT(summary.window_cycles, 0u);
  // Warm-up deliveries must not appear in the window stats.
  EXPECT_LT(sim.metrics().connections[flow].rx_packets, 120u);
}

TEST(Simulator, HardLimitStopsStarvedRun) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  // No arbitration entries programmed: the flow's VL is never scheduled.
  const auto hosts = g.hosts();
  sim.add_flow(cbr(hosts[0], hosts[1], 3, 256, 5000));
  const auto summary = sim.run_paper_phases(1000, 10, /*hard_limit=*/300000);
  EXPECT_TRUE(summary.hit_hard_limit);
}

TEST(Simulator, UtilizationMatchesOfferedLoad) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  // 282-byte wire packets every 1128 cycles = 25% of a 1x link.
  sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 1128));
  sim.metrics().start_window(0);
  sim.run_until(2000000);
  sim.metrics().stop_window(sim.now());
  const auto id = sim.flat_port_id(hosts[0], 0);
  const auto& pm = sim.metrics().ports[id];
  EXPECT_TRUE(pm.is_host_interface);
  EXPECT_NEAR(pm.utilization(sim.metrics().window_length()), 0.25, 0.01);
}

TEST(Simulator, RejectsBadFlows) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  const auto hosts = g.hosts();
  auto self = cbr(hosts[0], hosts[0], 0, 256, 100);
  EXPECT_THROW(sim.add_flow(self), std::invalid_argument);
  auto zero = cbr(hosts[0], hosts[1], 0, 256, 100);
  zero.interval = 0;
  EXPECT_THROW(sim.add_flow(zero), std::invalid_argument);
  auto sw = cbr(g.switches()[0], hosts[1], 0, 256, 100);
  EXPECT_THROW(sim.add_flow(sw), std::invalid_argument);
}

/// The what() of the std::invalid_argument `fn` throws; empty if none.
template <class Fn>
std::string invalid_argument_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(Simulator, SetForwardingRejectsMalformedTables) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  const auto sw = g.switches()[0];
  const auto hosts = g.hosts();
  const std::string sw_name = "switch " + std::to_string(sw);
  const auto lid = [](iba::NodeId h) { return static_cast<iba::Lid>(h + 1); };

  // One entry per LID 0..node_count(); only host LIDs need a port.
  std::vector<iba::PortIndex> good(g.node_count() + 1, 0xFF);
  for (const auto h : hosts) good[lid(h)] = routes.out_port(sw, h);
  EXPECT_NO_THROW(sim.set_forwarding(sw, good));

  const auto short_table =
      std::vector<iba::PortIndex>(good.begin(), good.end() - 1);
  EXPECT_NE(invalid_argument_of([&] { sim.set_forwarding(sw, short_table); })
                .find(sw_name),
            std::string::npos);
  EXPECT_THROW(sim.set_forwarding(sw, {}), std::invalid_argument);

  const std::string host_lid = "LID " + std::to_string(lid(hosts[1]));
  for (const iba::PortIndex bad : {iba::PortIndex{0xFF},   // unprogrammed
                                   iba::PortIndex{8},      // beyond the ports
                                   iba::PortIndex{5}}) {   // unwired
    auto table = good;
    table[lid(hosts[1])] = bad;
    const auto what =
        invalid_argument_of([&] { sim.set_forwarding(sw, table); });
    SCOPED_TRACE(what);
    EXPECT_NE(what.find(sw_name), std::string::npos);
    EXPECT_NE(what.find(host_lid), std::string::npos);
  }

  EXPECT_THROW(sim.set_forwarding(hosts[0], good), std::invalid_argument);

  // The rejected tables left the accepted one in place: traffic flows.
  program_all(sim, g, table_for({{0, 255}}));
  const auto flow = sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 2000));
  sim.metrics().start_window(0);
  sim.run_until(100000);
  EXPECT_GT(sim.metrics().connections[flow].rx_packets, 40u);
}

TEST(Simulator, PerPortEntryPointsRejectOutOfRangeNodeAndPort) {
  // Every public per-port entry point names the node and the port in a
  // std::invalid_argument, instead of letting a bare std::out_of_range (or
  // worse, with the unchecked per-packet lookup, a wild read) escape.
  const auto g = network::gen::single_switch(2);
  ASSERT_EQ(g.node_count(), 3u);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  const auto sw = g.switches()[0];
  const auto ports = g.port_count(sw);
  ASSERT_EQ(ports, 8u);
  const auto host = g.hosts()[0];
  const auto table = table_for({{0, 255}});

  const std::vector<std::pair<const char*, std::function<void(
                                               iba::NodeId, iba::PortIndex)>>>
      entry_points{
          {"set_output_arbitration",
           [&](iba::NodeId n, iba::PortIndex p) {
             sim.set_output_arbitration(n, p, table);
           }},
          {"set_sl_to_vl",
           [&](iba::NodeId n, iba::PortIndex p) {
             sim.set_sl_to_vl(n, p, iba::SlToVlMappingTable{});
           }},
          {"set_port_reserved_mbps",
           [&](iba::NodeId n, iba::PortIndex p) {
             sim.set_port_reserved_mbps(n, p, 10.0);
           }},
          {"flat_port_id",
           [&](iba::NodeId n, iba::PortIndex p) { (void)sim.flat_port_id(n, p); }},
          {"kick_port",
           [&](iba::NodeId n, iba::PortIndex p) { sim.kick_port(n, p); }},
          {"flush_output_queue",
           [&](iba::NodeId n, iba::PortIndex p) {
             (void)sim.flush_output_queue(n, p);
           }},
          {"purge_flow_from_output",
           [&](iba::NodeId n, iba::PortIndex p) {
             (void)sim.purge_flow_from_output(n, p, 0);
           }},
          {"clear_flow_purge",
           [&](iba::NodeId n, iba::PortIndex p) {
             sim.clear_flow_purge(n, p, 0);
           }},
      };
  for (const auto& [name, call] : entry_points) {
    SCOPED_TRACE(name);
    const auto bad_port = invalid_argument_of([&] { call(sw, 9); });
    EXPECT_NE(bad_port.find(name), std::string::npos) << bad_port;
    EXPECT_NE(bad_port.find("node " + std::to_string(sw) + " port 9"),
              std::string::npos)
        << bad_port;
    EXPECT_NE(bad_port.find("8 ports"), std::string::npos) << bad_port;

    const auto bad_node = invalid_argument_of([&] { call(99, 0); });
    EXPECT_NE(bad_node.find("node 99 port 0"), std::string::npos) << bad_node;
    EXPECT_NE(bad_node.find("3 nodes"), std::string::npos) << bad_node;

    const auto bad_host = invalid_argument_of([&] { call(host, 1); });
    EXPECT_NE(bad_host.find("host " + std::to_string(host)),
              std::string::npos)
        << bad_host;
    EXPECT_NE(bad_host.find("port 1"), std::string::npos) << bad_host;

    // The last valid port still works.
    EXPECT_NO_THROW(call(sw, static_cast<iba::PortIndex>(ports - 1)));
  }

  FlowSpec stray = cbr(host, 99, 0, 256, 2000);
  EXPECT_NE(invalid_argument_of([&] { sim.add_flow(stray); }).find("node 99"),
            std::string::npos);
  std::vector<iba::PortIndex> lft(g.node_count() + 1, 0);
  EXPECT_NE(invalid_argument_of([&] { sim.set_forwarding(99, lft); })
                .find("node 99"),
            std::string::npos);
}

TEST(Simulator, SetOutputArbitrationRejectsInvalidTables) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  const auto sw = g.switches()[0];
  const auto hosts = g.hosts();
  program_all(sim, g, table_for({{0, 255}}));

  struct Bad {
    bool high;
    unsigned slot;
    iba::VirtualLane vl;
  };
  for (const Bad bad : {Bad{true, 7, iba::kManagementVl}, Bad{false, 40, 33},
                        Bad{true, 63, 200}, Bad{false, 0, 16}}) {
    auto t = table_for({{0, 255}});
    (bad.high ? t.high() : t.low())[bad.slot] = iba::ArbTableEntry{bad.vl, 1};
    const auto what =
        invalid_argument_of([&] { sim.set_output_arbitration(sw, 1, t); });
    SCOPED_TRACE(what);
    EXPECT_NE(what.find("node " + std::to_string(sw) + " port 1"),
              std::string::npos);
    EXPECT_NE(what.find(std::string(bad.high ? "high" : "low") +
                        "-priority slot " + std::to_string(bad.slot)),
              std::string::npos);
    EXPECT_NE(what.find("VL " + std::to_string(bad.vl)), std::string::npos);
  }
  // An inactive entry's VL is never read.
  auto idle = table_for({{0, 255}});
  idle.low()[3] = iba::ArbTableEntry{33, 0};
  EXPECT_NO_THROW(sim.set_output_arbitration(sw, 1, idle));

  // Hosts have one output port, 0; every per-port setter says so.
  const auto good = table_for({{0, 255}});
  const std::string host_name = "host " + std::to_string(hosts[0]);
  EXPECT_NE(invalid_argument_of([&] {
              sim.set_output_arbitration(hosts[0], 1, good);
            }).find(host_name),
            std::string::npos);
  EXPECT_THROW(sim.set_sl_to_vl(hosts[0], 2, iba::SlToVlMappingTable{}),
               std::invalid_argument);
  EXPECT_THROW(sim.set_port_reserved_mbps(hosts[0], 1, 10.0),
               std::invalid_argument);

  // The rejected tables left the accepted ones in place: traffic flows.
  const auto flow = sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 2000));
  sim.metrics().start_window(0);
  sim.run_until(100000);
  EXPECT_GT(sim.metrics().connections[flow].rx_packets, 40u);
}

TEST(Simulator, PoissonFlowApproximatesRate) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  auto f = cbr(hosts[0], hosts[1], 0, 256, 2000);
  f.kind = GeneratorKind::kPoisson;
  const auto flow = sim.add_flow(f);
  sim.metrics().start_window(0);
  sim.run_until(4000000);
  const auto& c = sim.metrics().connections[flow];
  EXPECT_NEAR(static_cast<double>(c.rx_packets), 2000.0, 150.0);
}

TEST(Simulator, VbrFlowKeepsLongRunMeanRate) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  auto f = cbr(hosts[0], hosts[1], 0, 256, 2000);
  f.kind = GeneratorKind::kOnOffVbr;
  f.on_fraction = 0.25;
  f.burst_mean_packets = 8.0;
  const auto flow = sim.add_flow(f);
  sim.metrics().start_window(0);
  sim.run_until(8000000);
  const auto& c = sim.metrics().connections[flow];
  // 8e6 / 2000 = 4000 expected; allow generous slack for burst variance.
  EXPECT_NEAR(static_cast<double>(c.rx_packets), 4000.0, 600.0);
}

/// One line per flow: how many packets its generator injected, and an
/// FNV-1a hash over every (inject time, packet id) in order — the id
/// carries the sequence number.
std::string inject_fingerprint(const Simulator& sim, std::size_t flows) {
  std::vector<std::uint64_t> count(flows, 0);
  std::vector<std::uint64_t> hash(flows, 0xcbf29ce484222325ull);
  const auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (const TraceRecord& r : sim.trace().chronological()) {
    if (r.event != TraceEvent::kInject) continue;
    ++count[r.connection];
    mix(hash[r.connection], r.time);
    mix(hash[r.connection], r.packet);
  }
  std::string out;
  for (std::size_t f = 0; f < flows; ++f) {
    char line[64];
    std::snprintf(line, sizeof line, "%zu %llu %016llx\n", f,
                  static_cast<unsigned long long>(count[f]),
                  static_cast<unsigned long long>(hash[f]));
    out += line;
  }
  return out;
}

TEST(Simulator, FlowGenerateTimesArePinnedThroughStopResumeAndOverdrive) {
  // Every generator kind, driven through stop_flow, resume_flow and
  // set_flow_overdrive (overdrive toggled back to 1.0 included). The
  // figures are the simulator's output before the flow record was split
  // into a per-packet and a cold part; any drift in a generate time, a
  // sequence number or an RNG draw changes a hash.
  const auto g = network::gen::single_switch(6);
  const auto routes = network::compute_routes(g);
  SimConfig cfg;
  cfg.trace_capacity = 1u << 16;
  cfg.seed = 77;
  Simulator sim(g, routes, cfg);
  program_all(sim, g, table_for({{0, 100}, {1, 100}, {2, 100}}));
  const auto h = g.hosts();
  auto poisson = cbr(h[1], h[2], 1, 128, 1800);
  poisson.kind = GeneratorKind::kPoisson;
  poisson.seed = 5;
  auto vbr = cbr(h[2], h[3], 2, 64, 2000);
  vbr.kind = GeneratorKind::kOnOffVbr;
  vbr.on_fraction = 0.5;
  vbr.burst_mean_packets = 4.0;
  auto late_cbr = cbr(h[4], h[5], 0, 32, 2500);
  late_cbr.start_offset = 7'000;
  const auto c0 = sim.add_flow(cbr(h[0], h[1], 0, 256, 1500));
  const auto p1 = sim.add_flow(poisson);
  const auto v2 = sim.add_flow(vbr);
  const auto c3 = sim.add_flow(late_cbr);

  sim.run_until(20'000);
  sim.stop_flow(c0);
  sim.set_flow_overdrive(p1, 2.5);
  sim.set_flow_overdrive(v2, 3.0);
  sim.set_flow_overdrive(c3, 1.7);
  sim.run_until(40'000);
  sim.resume_flow(c0);
  sim.set_flow_overdrive(c0, 2.0);
  sim.resume_flow(c3);  // never stopped: a no-op
  sim.run_until(60'000);
  for (const auto f : {c0, p1, v2, c3}) sim.set_flow_overdrive(f, 1.0);
  sim.stop_flow(v2);
  sim.stop_flow(p1);
  sim.run_until(61'000);
  sim.resume_flow(p1);  // restarts the chain only if it died meanwhile
  sim.run_until(80'000);
  sim.resume_flow(v2);
  sim.run_until(100'000);

  EXPECT_EQ(inject_fingerprint(sim, 4),
            "0 68 40c3cbf0250dc23b\n"
            "1 92 7ccafd2b562c8d55\n"
            "2 106 a3b7e197ac611a58\n"
            "3 48 2f8c72e82281364a\n");
}

TEST(Simulator, RoutesThroughInputPortsAboveSixtyThree) {
  // A 100-port switch: the crossbar's ready-input mask spans two words.
  // Inputs p and p + 64 carry traffic at once, so a mask that aliased them
  // would stall or misreport an input (debug builds also check every mask
  // read against the port's own state).
  constexpr unsigned kPorts = 100;
  const auto g = network::gen::single_switch(kPorts, kPorts);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}, {1, 100}}));
  const auto h = g.hosts();
  std::vector<std::uint32_t> flows;
  for (unsigned p = 0; p < kPorts; ++p) {
    flows.push_back(
        sim.add_flow(cbr(h[p], h[(p + 64) % kPorts], 0, 256, 1500)));
    // A second flow per input converging on a few outputs, so inputs
    // queue behind busy crossbar outputs.
    flows.push_back(
        sim.add_flow(cbr(h[p], h[(p % 4) * 25 + 3], 1, 128, 4000)));
  }
  sim.metrics().start_window(0);
  sim.run_until(200'000);
  for (const auto f : flows) sim.stop_flow(f);
  sim.run_until(2'000'000);
  EXPECT_EQ(sim.packets_in_network(), 0u);
  for (const auto f : flows) {
    const auto& c = sim.metrics().connections[f];
    EXPECT_GT(c.rx_packets, 0u) << "flow " << f;
    EXPECT_EQ(c.rx_packets, c.tx_packets) << "flow " << f;
  }
}

TEST(Simulator, AddFlowRejectsMalformedVbrShape) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  const auto hosts = g.hosts();
  const auto vbr = [&](double on_fraction, double burst_mean_packets) {
    auto f = cbr(hosts[0], hosts[1], 0, 256, 2000);
    f.kind = GeneratorKind::kOnOffVbr;
    f.on_fraction = on_fraction;
    f.burst_mean_packets = burst_mean_packets;
    return f;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double on : {-1.0, 0.0, 1.5, nan})
    EXPECT_THROW(sim.add_flow(vbr(on, 16.0)), std::invalid_argument) << on;
  for (const double burst : {0.5, -3.0, nan})
    EXPECT_THROW(sim.add_flow(vbr(0.25, burst)), std::invalid_argument)
        << burst;
  // Nothing rejected was registered; the boundary shapes are accepted.
  EXPECT_EQ(sim.add_flow(vbr(1.0, 1.0)), 0u);
  EXPECT_EQ(sim.add_flow(vbr(0.25, 16.0)), 1u);
}

}  // namespace
}  // namespace ibarb::sim

namespace ibarb::sim {
namespace {

TEST(Simulator, FourXLinksMoveFourTimesTheData) {
  // Same saturating workload on a 1x and a 4x single-switch fabric: the 4x
  // fabric must deliver ~4x the bytes in the same simulated time.
  const auto run = [](iba::LinkRate rate) {
    const auto g = network::gen::single_switch(2, 8, rate);
    const auto routes = network::compute_routes(g);
    Simulator sim(g, routes, SimConfig{});
    program_all(sim, g, table_for({{0, 200}}));
    const auto hosts = g.hosts();
    auto f = cbr(hosts[0], hosts[1], 0, 2048, 100);  // far beyond 1x capacity
    sim.add_flow(f);
    sim.metrics().start_window(0);
    sim.run_until(3'000'000);
    return sim.metrics().connections[0].rx_wire_bytes;
  };
  const auto bytes_1x = run(iba::LinkRate::k1x);
  const auto bytes_4x = run(iba::LinkRate::k4x);
  EXPECT_NEAR(static_cast<double>(bytes_4x) / static_cast<double>(bytes_1x),
              4.0, 0.2);
  // And the 1x run is itself at line rate (1 byte/cycle, minus overheads).
  EXPECT_GT(static_cast<double>(bytes_1x) / 3'000'000.0, 0.9);
}

TEST(Simulator, RefusesAnyShardCountButOne) {
  // Runs are sequential: SimConfig::shards survives only as a field the
  // benchmark sources set, and it must be 1.
  const auto g = network::gen::line(4, 2);
  const auto routes = network::compute_routes(g);
  for (const unsigned shards : {0u, 2u, 4u}) {
    SimConfig cfg;
    cfg.shards = shards;
    EXPECT_THROW(Simulator(g, routes, cfg), std::invalid_argument)
        << "shards " << shards;
  }
  EXPECT_NO_THROW(Simulator(g, routes, SimConfig{}));
}

TEST(Simulator, ExternalInjectionsAreAllDelivered) {
  // A four-switch line with a generated flow from every host, and one
  // external flow whose header-only packets are injected between run_until
  // slices: every one of the 48 injections must reach its destination.
  const auto g = network::gen::line(4, 2);
  const auto routes = network::compute_routes(g);
  SimConfig cfg;
  cfg.trace_capacity = 1u << 16;
  Simulator sim(g, routes, cfg);
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  FlowSpec ext = cbr(hosts[2], hosts[5], 0, 256, 3'000);
  ext.external = true;  // payload_bytes stays 256; injections carry none
  const auto e = sim.add_flow(ext);
  for (std::size_t h = 0; h < hosts.size(); ++h)
    sim.add_flow(cbr(hosts[h], hosts[(h + 5) % hosts.size()], 0, 256, 3'000));
  std::uint32_t seq = 0;
  for (iba::Cycle t = 5'000; t <= 60'000; t += 5'000) {
    sim.run_until(t);
    for (int k = 0; k < 4; ++k)
      sim.inject_external(e, /*payload_bytes=*/0, seq++, 0, false);
  }
  sim.run_until(80'000);
  std::size_t delivered = 0;
  for (const TraceRecord& r : sim.trace().chronological())
    if (r.event == TraceEvent::kDeliver && r.connection == e) ++delivered;
  EXPECT_EQ(delivered, 48u);
}

}  // namespace
}  // namespace ibarb::sim
