// Fault-injection & recovery subsystem: plan grammar and storm determinism,
// end-to-end link-flap recovery (re-sweep, reroute, graceful degradation),
// corruption dropped as CRC-detected and recovered by the RC transport,
// fault targets checked against the fabric, and bit-identical
// replay of a full faulty run.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "faults/rc_session.hpp"
#include "faults/recovery.hpp"
#include "network/topology.hpp"
#include "qos/admission.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/cbr.hpp"

namespace ibarb::faults {
namespace {

// --------------------------------------------------------------------------
// Plan grammar

TEST(FaultPlan, ParseDescribeRoundTrip) {
  const auto plan = FaultPlan::parse(
      "linkflap@200000+300000:3.2;"
      "corrupt@100000+50000:5.0:0.25,"
      "drop@150000+10000:4.1:0.5;"
      "stuck@400000+20000:2.7;"
      "slow@500000+30000:1.3:4;"
      "overload@600000+100000:f12:8");
  ASSERT_EQ(plan.events().size(), 6u);
  // Sorted by activation time.
  EXPECT_EQ(plan.events().front().kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan.events().back().kind, FaultKind::kOverload);
  EXPECT_EQ(plan.events().back().flow, 12u);
  EXPECT_DOUBLE_EQ(plan.events().back().factor, 8.0);

  const auto text = plan.describe();
  const auto reparsed = FaultPlan::parse(text);
  EXPECT_EQ(reparsed.describe(), text) << "describe() must round-trip";
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  for (const auto* bad :
       {"flap@1:0.0",                   // unknown kind
        "linkflap@:3.2",                // missing time
        "linkflap@100",                 // missing target
        "corrupt@100:3.2:1.5",          // probability out of range
        "slow@100:3.2:0",               // non-positive factor
        "overload@100:3.2:2",           // overload needs an fN target
        "linkflap@100:f3",              // port fault needs node.port
        "linkflap@100:3",               // missing port
        "slow@100+500000:1.1:nan",      // NaN factor
        "corrupt@100+500000:1.1:nan",   // NaN probability
        "slow@100+5:1.1:inf",           // infinite factor
        "overload@100+5:f0:-inf",       // infinite factor
        "overload@100+5:f0:0.5",        // a factor below 1 throttles
        "slow@100+5:1.1:1e400",         // beyond double's range
        "linkflap@100+5:1.257",         // port does not fit 8 bits
        "linkflap@100+5:4294967296.1",  // node does not fit 32 bits
        "overload@100+5:f4294967296:2",          // flow does not fit 32 bits
        "linkflap@18446744073709551615+5:1.1"}) {  // at + duration wraps
    EXPECT_THROW((void)FaultPlan::parse(bad), std::invalid_argument) << bad;
  }
  // The last representable window and a huge finite factor are accepted.
  EXPECT_NO_THROW(
      (void)FaultPlan::parse("linkflap@18446744073709551610+5:1.1"));
  EXPECT_NO_THROW((void)FaultPlan::parse("slow@100+5:1.255:1e300"));
}

TEST(FaultPlan, ParseErrorsNameTokenAndOffset) {
  const auto message_of = [](const char* spec) {
    try {
      (void)FaultPlan::parse(spec);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // Unknown kind: the kind token sits at offset 0.
  auto msg = message_of("frobnicate@100:3.2");
  EXPECT_NE(msg.find("unknown fault kind"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at offset 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'frobnicate'"), std::string::npos) << msg;
  // Malformed number mid-spec: the offset points at the numeric token, not
  // the start of the spec.
  msg = message_of("linkflap@1x0:3.2");
  EXPECT_NE(msg.find("expected an unsigned integer"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("at offset 9"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'1x0'"), std::string::npos) << msg;
  // Out-of-range probability: the value token is named with its position.
  msg = message_of("corrupt@100+5:3.2:1.5");
  EXPECT_NE(msg.find("probability outside [0, 1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at offset 18"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'1.5'"), std::string::npos) << msg;
  // A NaN names its own token, so the user sees which value to fix.
  msg = message_of("slow@100+500000:1.1:nan");
  EXPECT_NE(msg.find("number must be finite"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at offset 20"), std::string::npos) << msg;
  msg = message_of("slow@100+5:1.1:4x");
  EXPECT_NE(msg.find("trailing characters in number"), std::string::npos)
      << msg;
  msg = message_of("linkflap@100+5:1.257");
  EXPECT_NE(msg.find("port index out of range"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at offset 17"), std::string::npos) << msg;
}

TEST(FaultPlan, RandomStormIsDeterministicAndInBounds) {
  network::IrregularSpec ns;
  ns.switches = 8;
  ns.seed = 21;
  const auto graph = network::gen::irregular(ns);

  StormConfig cfg;
  cfg.seed = 7;
  cfg.start = 100'000;
  cfg.length = 900'000;
  cfg.first_flow = 4;
  cfg.flows = 3;

  const auto a = FaultPlan::random_storm(graph, cfg);
  const auto b = FaultPlan::random_storm(graph, cfg);
  EXPECT_EQ(a.describe(), b.describe()) << "same seed, same storm";

  cfg.seed = 8;
  const auto c = FaultPlan::random_storm(graph, cfg);
  EXPECT_NE(a.describe(), c.describe()) << "different seed, different storm";

  ASSERT_FALSE(a.empty());
  for (const auto& ev : a.events()) {
    EXPECT_GE(ev.at, cfg.start);
    EXPECT_LT(ev.at, cfg.start + cfg.length);
    if (ev.kind == FaultKind::kOverload) {
      EXPECT_GE(ev.flow, cfg.first_flow);
      EXPECT_LT(ev.flow, cfg.first_flow + cfg.flows);
    } else {
      // Port faults only ever target switch-switch wiring.
      ASSERT_TRUE(graph.is_switch(ev.node));
      const auto peer = graph.peer(ev.node, ev.port);
      ASSERT_TRUE(peer.has_value());
      EXPECT_TRUE(graph.is_switch(peer->node));
    }
  }
}

// --------------------------------------------------------------------------
// Full-stack rig: fat tree (redundant spines, so a downed uplink is
// route-aroundable), subnet manager, admission, coordinator.

struct Rig {
  network::FabricGraph graph;
  subnet::SubnetManager sm;
  qos::AdmissionControl admission;
  sim::Simulator sim;
  std::vector<qos::ConnectionId> guaranteed_ids;
  std::vector<std::uint32_t> guaranteed_flows;
  std::vector<qos::ConnectionId> be_ids;
  std::vector<std::uint32_t> be_flows;

  explicit Rig(std::uint64_t seed)
      : graph(network::gen::fat_tree2(/*spines=*/2, /*leaves=*/4,
                                     /*hosts_per_leaf=*/2)),
        sm(graph),
        admission(graph, sm.routes(), qos::paper_catalogue(), acfg(seed)),
        sim(graph, sm.routes(), scfg(seed)) {}

  static qos::AdmissionControl::Config acfg(std::uint64_t seed) {
    qos::AdmissionControl::Config c;
    c.seed = seed;
    return c;
  }
  static sim::SimConfig scfg(std::uint64_t seed) {
    sim::SimConfig c;
    c.seed = seed ^ 0x51Dull;
    return c;
  }

  void add_guaranteed(iba::NodeId src, iba::NodeId dst, iba::ServiceLevel sl,
                      double wire_mbps, std::uint64_t seed) {
    qos::ConnectionRequest req;
    req.src_host = src;
    req.dst_host = dst;
    req.sl = sl;
    req.max_distance = qos::find_sl(admission.catalogue(), sl)->max_distance;
    req.wire_mbps = wire_mbps;
    const auto id = admission.request(req);
    ASSERT_TRUE(id.has_value());
    auto spec = traffic::make_cbr_flow(src, dst, sl, /*payload=*/256,
                                       wire_mbps,
                                       admission.connection(*id).deadline,
                                       seed);
    guaranteed_ids.push_back(*id);
    guaranteed_flows.push_back(sim.add_flow(spec));
  }

  void add_best_effort(iba::NodeId src, iba::NodeId dst, iba::ServiceLevel sl,
                       double wire_mbps, std::uint64_t seed) {
    qos::ConnectionRequest req;
    req.src_host = src;
    req.dst_host = dst;
    req.sl = sl;
    req.wire_mbps = wire_mbps;
    const auto id = admission.request_best_effort(req);
    ASSERT_TRUE(id.has_value());
    auto spec = traffic::make_cbr_flow(src, dst, sl, /*payload=*/256,
                                       wire_mbps, /*deadline=*/0, seed);
    spec.qos = false;
    be_ids.push_back(*id);
    be_flows.push_back(sim.add_flow(spec));
  }
};

TEST(FaultRecovery, LinkFlapTriggersResweepRerouteAndRepair) {
  Rig rig(11);
  const auto hosts = rig.graph.hosts();
  ASSERT_GE(hosts.size(), 6u);
  // Cross-leaf guaranteed connections (paths traverse a spine).
  rig.add_guaranteed(hosts[0], hosts[2], /*sl=*/8, /*mbps=*/40, 100);
  rig.add_guaranteed(hosts[1], hosts[4], /*sl=*/9, /*mbps=*/40, 101);
  rig.add_best_effort(hosts[3], hosts[5], /*sl=*/10, /*mbps=*/60, 102);

  // Down the first connection's leaf→spine uplink for 300k cycles.
  const auto& hops = rig.admission.connection(rig.guaranteed_ids[0]).hops;
  ASSERT_GE(hops.size(), 3u) << "expected a host->leaf->spine->leaf path";
  const auto trunk = hops[1].port;
  ASSERT_TRUE(rig.graph.is_switch(trunk.node));

  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.at = 200'000;
  flap.duration = 300'000;
  flap.node = trunk.node;
  flap.port = trunk.port;
  FaultInjector injector(rig.sim, rig.graph, FaultPlan({flap}), /*seed=*/5);
  RecoveryCoordinator coordinator(rig.sim, rig.graph, rig.sm, rig.admission,
                                  injector);
  for (std::size_t i = 0; i < rig.guaranteed_ids.size(); ++i)
    coordinator.track(rig.guaranteed_ids[i], rig.guaranteed_flows[i]);
  for (std::size_t i = 0; i < rig.be_ids.size(); ++i)
    coordinator.track_best_effort(rig.be_ids[i], rig.be_flows[i]);

  rig.sm.configure_fabric(rig.sim, rig.admission);
  injector.arm();
  rig.sim.metrics().start_window(0);

  rig.sim.run_until(195'000);
  std::vector<std::uint64_t> rx_before;
  for (const auto flow : rig.guaranteed_flows)
    rx_before.push_back(rig.sim.metrics().connections[flow].rx_packets);

  rig.sim.run_until(1'000'000);

  EXPECT_EQ(injector.stats().link_down_events, 1u);
  EXPECT_EQ(injector.stats().link_up_events, 1u);
  const auto& rs = coordinator.stats();
  EXPECT_GE(rs.resweeps, 2u) << "one for the fault, one for the repair";
  EXPECT_EQ(rs.failed_resweeps, 0u) << "a fat tree survives one downed link";
  EXPECT_GE(rs.rerouted, 1u) << "the broken path must move to the other spine";
  EXPECT_EQ(rs.guarantee_revocations, 0u);
  EXPECT_GT(rs.smps_sent, 0u);
  EXPECT_GT(rs.max_recovery_latency, 0u);
  EXPECT_EQ(coordinator.suspended_now(), 0u) << "everything readmitted";

  // Guaranteed traffic kept flowing through fault and repair.
  for (std::size_t i = 0; i < rig.guaranteed_flows.size(); ++i) {
    const auto& c = rig.sim.metrics().connections[rig.guaranteed_flows[i]];
    // ~57 packets fit in the remaining 800k cycles at this rate; well over
    // half must land despite 300k cycles of downed link plus two reroutes.
    EXPECT_GT(c.rx_packets, rx_before[i] + 30)
        << "guaranteed flow " << i << " starved across the fault";
    EXPECT_TRUE(rig.admission.is_live(rig.guaranteed_ids[i]) ||
                rs.rerouted > 0);
  }
  std::string why;
  EXPECT_TRUE(rig.admission.check_all_invariants(&why)) << why;
}

TEST(FaultRecovery, PurgeBarrierDropsStragglersUntilCleared) {
  Rig rig(17);
  const auto hosts = rig.graph.hosts();
  ASSERT_GE(hosts.size(), 4u);
  // Cross-leaf, so the path has a leaf->spine trunk hop to abandon.
  rig.add_guaranteed(hosts[0], hosts[2], /*sl=*/8, /*mbps=*/80, 200);
  rig.sm.configure_fabric(rig.sim, rig.admission);
  rig.sim.metrics().start_window(0);

  const auto flow = rig.guaranteed_flows[0];
  const auto& hops = rig.admission.connection(rig.guaranteed_ids[0]).hops;
  ASSERT_GE(hops.size(), 3u);
  const auto trunk = hops[1].port;
  ASSERT_TRUE(rig.graph.is_switch(trunk.node));

  rig.sim.run_until(200'000);
  const auto rx_mid = rig.sim.metrics().connections[flow].rx_packets;
  EXPECT_GT(rx_mid, 10u);

  // Abandon the flow on its trunk: anything queued purges now, and the
  // barrier keeps dropping stragglers that were in flight towards the port.
  rig.sim.purge_flow_from_output(trunk.node, trunk.port, flow);
  rig.sim.run_until(400'000);
  const auto& c = rig.sim.metrics().connections[flow];
  EXPECT_LE(c.rx_packets, rx_mid + 2)
      << "only packets already past the trunk may still land";
  EXPECT_GT(c.dropped_packets, 5u) << "arrivals at the barrier must drop";
  EXPECT_GT(rig.sim.purged_in_flight_late(), 0u);

  // Lifting the barrier restores the data path end to end.
  rig.sim.clear_flow_purge(trunk.node, trunk.port, flow);
  const auto rx_cleared = c.rx_packets;
  rig.sim.run_until(600'000);
  EXPECT_GT(c.rx_packets, rx_cleared + 10u)
      << "flow must resume once the purge is cleared";
}

TEST(FaultInjector, RejectsTargetsMissingFromTheFabric) {
  Rig rig(23);
  const auto hosts = rig.graph.hosts();
  rig.add_best_effort(hosts[0], hosts[2], /*sl=*/10, /*mbps=*/40, 300);
  const auto message_of = [&rig](const char* spec) {
    try {
      FaultInjector injector(rig.sim, rig.graph, FaultPlan::parse(spec), 1);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // A port the node does not have, a node the fabric does not have, and a
  // flow the simulator does not run: each is refused, naming the event.
  auto msg = message_of("linkflap@100+5:0.200");
  EXPECT_NE(msg.find("'linkflap@100+5:0.200'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no wired port"), std::string::npos) << msg;
  msg = message_of("corrupt@100+5:999.1:0.5");
  EXPECT_NE(msg.find("'corrupt@100+5:999.1:0.5'"), std::string::npos) << msg;
  msg = message_of("overload@100+50:f99999:2");
  EXPECT_NE(msg.find("'overload@100+50:f99999:2'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no such flow"), std::string::npos) << msg;
  // Targets that exist are accepted.
  const std::string ok = "linkflap@100+5:" + std::to_string(hosts[0]) +
                         ".0;overload@100+50:f" +
                         std::to_string(rig.be_flows[0]) + ":2";
  EXPECT_EQ(message_of(ok.c_str()), "");
}

TEST(FaultInjector, HugeSlowFactorSaturatesTheStretchedTime) {
  Rig rig(29);
  const auto host = rig.graph.hosts()[0];
  FaultInjector injector(
      rig.sim, rig.graph,
      FaultPlan::parse("slow@10+1000:" + std::to_string(host) + ".0:1e300"),
      1);
  injector.arm();
  rig.sim.run_until(20);
  // 100 * 1e300 cycles does not fit a Cycle; the cast must not see it.
  EXPECT_EQ(injector.stretch_serialization(host, 0, 100),
            iba::Cycle{1} << 62);
  rig.sim.run_until(2'000);
  EXPECT_EQ(injector.stretch_serialization(host, 0, 100), 100u);
}

TEST(FaultRecovery, CorruptionIsCrcDetectedAndRecoveredByRcRetransmit) {
  Rig rig(13);
  const auto hosts = rig.graph.hosts();
  ASSERT_GE(hosts.size(), 2u);

  RcSession::Config rc;
  rc.src_host = hosts[0];
  rc.dst_host = hosts[2];
  rc.message_bytes = 1024;  // 4 MTU-256 packets each
  rc.messages = 24;
  rc.message_interval = 20'000;
  rc.rc.mtu_payload = 256;
  rc.rc.retransmit_timeout = 40'000;
  rc.rc.max_retries = 20;
  RcSession session(rig.sim, rc);
  rig.sim.set_delivery_listener(
      [&session](const iba::Packet& p, iba::Cycle now) {
        if (session.wants(p)) session.on_delivery(p, now);
      });

  // Corrupt *everything* arriving at the destination host for a while: the
  // CRC path must reject each damaged packet and go-back-N must repair.
  FaultEvent ev;
  ev.kind = FaultKind::kCorrupt;
  ev.at = 60'000;
  ev.duration = 80'000;
  ev.node = hosts[2];
  ev.port = 0;
  ev.probability = 1.0;
  FaultInjector injector(rig.sim, rig.graph, FaultPlan({ev}), /*seed=*/3);

  rig.sm.configure_fabric(rig.sim, rig.admission);
  injector.arm();
  rig.sim.metrics().start_window(0);
  rig.sim.run_until(3'000'000);

  EXPECT_GT(injector.stats().corrupt_attempts, 0u);
  EXPECT_GT(injector.stats().crc_rejected, 0u);
  EXPECT_EQ(injector.stats().crc_escaped, 0u)
      << "every injected damage pattern is detected by construction";
  EXPECT_EQ(injector.stats().crc_rejected, injector.stats().corrupt_attempts);

  EXPECT_FALSE(session.failed()) << "retry budget exhausted";
  EXPECT_TRUE(session.complete())
      << session.session_stats().messages_completed << " of " << rc.messages;
  EXPECT_GT(session.tx_stats().retransmitted_packets, 0u);
  const auto ss = session.session_stats();
  EXPECT_GT(ss.recovered_packets, 0u);
  EXPECT_GT(ss.max_recovery_latency, 0u);
  // Backoff keeps the worst recovery bounded by the retry budget.
  const iba::Cycle cap_timeout = rc.rc.retransmit_timeout
                                 << rc.rc.backoff_shift_cap;
  EXPECT_LT(ss.max_recovery_latency,
            static_cast<iba::Cycle>(rc.rc.max_retries + 1) * cap_timeout);
  EXPECT_EQ(session.rx_stats().messages,
            static_cast<std::uint64_t>(rc.messages));
}

// --------------------------------------------------------------------------
// Determinism: one full storm, run twice, must be bit-identical.

std::string storm_fingerprint(std::uint64_t seed) {
  Rig rig(seed);
  const auto hosts = rig.graph.hosts();
  rig.add_guaranteed(hosts[0], hosts[3], 8, 30, 200);
  rig.add_guaranteed(hosts[1], hosts[5], 9, 30, 201);
  rig.add_best_effort(hosts[2], hosts[6], 10, 50, 202);
  rig.add_best_effort(hosts[4], hosts[7], 11, 50, 203);

  StormConfig sc;
  sc.seed = seed * 11 + 1;
  sc.start = 100'000;
  sc.length = 700'000;
  sc.first_flow = rig.be_flows.front();
  sc.flows = static_cast<std::uint32_t>(rig.be_flows.size());
  FaultInjector injector(rig.sim, rig.graph,
                         FaultPlan::random_storm(rig.graph, sc), seed);
  RecoveryCoordinator coordinator(rig.sim, rig.graph, rig.sm, rig.admission,
                                  injector);
  for (std::size_t i = 0; i < rig.guaranteed_ids.size(); ++i)
    coordinator.track(rig.guaranteed_ids[i], rig.guaranteed_flows[i]);
  for (std::size_t i = 0; i < rig.be_ids.size(); ++i)
    coordinator.track_best_effort(rig.be_ids[i], rig.be_flows[i]);

  rig.sm.configure_fabric(rig.sim, rig.admission);
  injector.arm();
  rig.sim.metrics().start_window(0);
  rig.sim.run_until(1'200'000);

  std::ostringstream out;
  out << "events=" << rig.sim.events_processed();
  const auto& fs = injector.stats();
  out << " down=" << fs.link_down_events << " up=" << fs.link_up_events
      << " stuck=" << fs.stuck_windows << " slow=" << fs.slow_windows
      << " corrupt=" << fs.corrupt_attempts << " rej=" << fs.crc_rejected
      << " esc=" << fs.crc_escaped << " drop=" << fs.dropped_packets
      << " flushed=" << fs.flushed_packets;
  const auto& rs = coordinator.stats();
  out << " resweeps=" << rs.resweeps << " rerouted=" << rs.rerouted
      << " suspended=" << rs.suspended << " restored=" << rs.restored
      << " shed=" << rs.shed_best_effort
      << " revoked=" << rs.guarantee_revocations
      << " lat=" << rs.max_recovery_latency;
  for (const auto& c : rig.sim.metrics().connections)
    out << " [" << c.tx_packets << "/" << c.rx_packets << "/"
        << c.dropped_packets << "/" << c.deadline_misses << "]";

  // The storm must not have broken the degradation contract or the tables.
  EXPECT_EQ(rs.guarantee_revocations, 0u);
  std::string why;
  EXPECT_TRUE(rig.admission.check_all_invariants(&why)) << why;
  return out.str();
}

TEST(FaultRecovery, SameSeedStormReplaysBitIdentically) {
  const auto a = storm_fingerprint(29);
  const auto b = storm_fingerprint(29);
  EXPECT_EQ(a, b);
  const auto c = storm_fingerprint(30);
  EXPECT_NE(a, c) << "different seed should perturb the run";
}

// --------------------------------------------------------------------------
// Graceful degradation at the admission level.

TEST(GracefulDegradation, ShedsBestEffortFirstAndNeverGuaranteed) {
  auto graph = network::gen::single_switch(/*hosts=*/4);
  subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config ac;
  ac.seed = 3;
  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  ac);
  const auto hosts = graph.hosts();

  // A guaranteed baseline connection that must survive everything.
  qos::ConnectionRequest keeper;
  keeper.src_host = hosts[0];
  keeper.dst_host = hosts[1];
  keeper.sl = 8;
  keeper.max_distance =
      qos::find_sl(admission.catalogue(), 8)->max_distance;
  keeper.wire_mbps = 60;
  const auto keeper_id = admission.request(keeper);
  ASSERT_TRUE(keeper_id.has_value());

  // Saturate the same path with best-effort reservations.
  std::vector<qos::ConnectionId> be;
  for (int i = 0; i < 1000; ++i) {
    qos::ConnectionRequest req;
    req.src_host = hosts[0];
    req.dst_host = hosts[1];
    req.sl = static_cast<iba::ServiceLevel>(10 + i % 3);
    req.wire_mbps = 90;
    const auto id = admission.request_best_effort(req);
    if (!id) break;
    be.push_back(*id);
  }
  ASSERT_GE(be.size(), 3u) << "path never saturated";

  // A straight request now fails...
  qos::ConnectionRequest req = keeper;
  req.sl = 9;
  req.max_distance = qos::find_sl(admission.catalogue(), 9)->max_distance;
  req.wire_mbps = 120;
  ASSERT_FALSE(admission.request(req).has_value());

  // ...but the degrading request sheds best-effort load and succeeds.
  const auto result = admission.request_degrading(req);
  ASSERT_TRUE(result.id.has_value());
  EXPECT_FALSE(result.shed.empty());
  for (const auto id : result.shed) {
    EXPECT_FALSE(admission.is_live(id));
    const auto cat = admission.connection(id).category;
    EXPECT_TRUE(cat == qos::TrafficCategory::kPbe ||
                cat == qos::TrafficCategory::kBe ||
                cat == qos::TrafficCategory::kCh)
        << "shed a guaranteed-class connection";
  }
  EXPECT_TRUE(admission.is_live(*keeper_id))
      << "degradation revoked a guaranteed connection";
  EXPECT_TRUE(admission.is_live(*result.id));
  std::string why;
  EXPECT_TRUE(admission.check_all_invariants(&why)) << why;
}

}  // namespace
}  // namespace ibarb::faults
