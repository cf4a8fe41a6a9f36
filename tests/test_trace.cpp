#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "network/topology.hpp"
#include "sim/simulator.hpp"

namespace ibarb::sim {
namespace {

iba::Packet pkt(std::uint64_t id, iba::ConnectionId conn = 0) {
  iba::Packet p;
  p.id = id;
  p.connection = conn;
  return p;
}

TEST(PacketTrace, DisabledByDefaultRecordsNothing) {
  PacketTrace t;
  EXPECT_FALSE(t.enabled());
  t.record(1, TraceEvent::kInject, 0, 0, 0, pkt(1));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(PacketTrace, RecordsInOrder) {
  PacketTrace t(16);
  for (std::uint64_t i = 0; i < 5; ++i)
    t.record(i * 10, TraceEvent::kLinkTx, 1, 2, 3, pkt(i));
  const auto recs = t.chronological();
  ASSERT_EQ(recs.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(recs[i].time, i * 10);
    EXPECT_EQ(recs[i].packet, i);
  }
}

TEST(PacketTrace, RingOverwritesOldest) {
  PacketTrace t(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    t.record(i, TraceEvent::kXbar, 0, 0, 0, pkt(i));
  EXPECT_EQ(t.total_recorded(), 10u);
  const auto recs = t.chronological();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs.front().packet, 6u);
  EXPECT_EQ(recs.back().packet, 9u);
}

TEST(PacketTrace, JourneyFiltersOnePacket) {
  PacketTrace t(16);
  t.record(0, TraceEvent::kInject, 0, 0, 0, pkt(7));
  t.record(1, TraceEvent::kInject, 0, 0, 0, pkt(8));
  t.record(2, TraceEvent::kDeliver, 1, 0, 0, pkt(7));
  const auto j = t.journey(7);
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j[0].event, TraceEvent::kInject);
  EXPECT_EQ(j[1].event, TraceEvent::kDeliver);
}

TEST(PacketTrace, SimulatorJourneyIsPhysicallyOrdered) {
  const auto g = network::gen::line(3, 1);
  const auto routes = network::compute_routes(g);
  SimConfig cfg;
  cfg.trace_capacity = 4096;
  Simulator sim(g, routes, cfg);
  iba::VlArbitrationTable table;
  table.high()[0] = iba::ArbTableEntry{0, 100};
  for (iba::NodeId n = 0; n < g.node_count(); ++n) {
    const unsigned ports = g.is_switch(n) ? g.port_count(n) : 1;
    for (unsigned p = 0; p < ports; ++p)
      if (g.peer(n, static_cast<iba::PortIndex>(p)))
        sim.set_output_arbitration(n, static_cast<iba::PortIndex>(p), table);
  }
  const auto hosts = g.hosts();
  FlowSpec f;
  f.src_host = hosts[0];
  f.dst_host = hosts[2];  // 4 stages: host + 3 switches
  f.payload_bytes = 256;
  f.interval = 100000;
  sim.add_flow(f);
  sim.run_until(250000);

  // The first generated packet of flow 0 (id = (flow+1)<<32 | sequence+1):
  // inject, then alternating link-tx / xbar along three switches, ending
  // with a delivery; times must be non-decreasing.
  const auto j = sim.trace().journey((1ull << 32) | 1u);
  ASSERT_GE(j.size(), 3u);
  EXPECT_EQ(j.front().event, TraceEvent::kInject);
  EXPECT_EQ(j.back().event, TraceEvent::kDeliver);
  unsigned xbars = 0;
  unsigned txs = 0;
  for (std::size_t i = 1; i < j.size(); ++i) {
    EXPECT_GE(j[i].time, j[i - 1].time);
    if (j[i].event == TraceEvent::kXbar) ++xbars;
    if (j[i].event == TraceEvent::kLinkTx) ++txs;
  }
  EXPECT_EQ(xbars, 3u);  // three switches crossed
  EXPECT_EQ(txs, 4u);    // host link + three switch links
}

}  // namespace
}  // namespace ibarb::sim
