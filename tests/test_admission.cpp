#include "qos/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arbtable/entry_set.hpp"
#include "network/topology.hpp"
#include "qos/traffic_classes.hpp"
#include "subnet/subnet_manager.hpp"
#include "util/binary.hpp"
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

TEST(Admission, RejectsNonFiniteOrNegativeRatesBeforeReservingAnything) {
  // Comparisons with NaN are false, so a NaN rate would pass every
  // bandwidth check on every hop and poison each port's reserved total.
  Fixture f(network::gen::line(3, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto expect_named = [](const auto& call, double rate) {
    try {
      call();
      ADD_FAILURE() << "rate " << rate << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(rate)),
                std::string::npos)
          << e.what();
    }
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1.0}) {
    const auto guaranteed = req(hosts[0], hosts[2], 2, 8, bad);
    auto best_effort = guaranteed;
    best_effort.sl = 10;
    expect_named([&] { (void)ac.request(guaranteed); }, bad);
    expect_named([&] { (void)ac.request_best_effort(best_effort); }, bad);
    expect_named([&] { (void)ac.can_admit_path(guaranteed); }, bad);
  }
  EXPECT_EQ(ac.accepted(), 0u);
  EXPECT_EQ(ac.rejected(), 0u);
  for (const auto& port : f.routes.path(hosts[0], hosts[2]))
    EXPECT_EQ(ac.port_manager(port.node, port.port).reserved_mbps(), 0.0);
  std::string why;
  EXPECT_TRUE(ac.audit_full(&why)) << why;
  EXPECT_TRUE(ac.request(req(hosts[0], hosts[2], 2, 8, 0.0)).has_value());
}

TEST(Admission, RefusesARateWhoseWeightWouldWrap) {
  // ceil(share * 16320) == 2^32 + 100: cast straight to a 32-bit unsigned,
  // the weight would wrap to 100 units, a small and feasible request.
  Fixture f(network::gen::line(3, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const double link = iba::link_mbps(f.graph.link(hosts[0], 0).rate);
  const double full = static_cast<double>(iba::kFullTableWeight);
  const double wraps = 4294967296.0 + 100.0;
  const double mbps = (wraps - 0.5) / full * link;
  ASSERT_EQ(std::ceil(mbps / link * full), wraps);
  EXPECT_EQ(arbtable::compute_requirement(mbps, link, 8), std::nullopt);

  EXPECT_FALSE(ac.request(req(hosts[0], hosts[2], 2, 8, mbps)).has_value());
  EXPECT_EQ(ac.accepted(), 0u);
  EXPECT_EQ(ac.rejected(), 1u);
  for (const auto& port : f.routes.path(hosts[0], hosts[2])) {
    const auto& m = ac.port_manager(port.node, port.port);
    EXPECT_EQ(m.reserved_mbps(), 0.0);
    EXPECT_EQ(m.free_entries(), iba::kArbTableEntries);
  }
  std::string why;
  EXPECT_TRUE(ac.audit_full(&why)) << why;
}

TEST(Admission, MixedRateHopsEachGetTheirOwnRequirement) {
  // h0 -1x- s0 -4x- s1 -1x- h1: the path's link rates go A, B, A, so a
  // requirement computed for one hop must not be reused on the next.
  network::FabricGraph g;
  const auto s0 = g.add_switch(2);
  const auto s1 = g.add_switch(2);
  const auto h0 = g.add_host();
  const auto h1 = g.add_host();
  g.connect(h0, 0, s0, 0, iba::Link{iba::LinkRate::k1x});
  g.connect(s0, 1, s1, 0, iba::Link{iba::LinkRate::k4x});
  g.connect(s1, 1, h1, 0, iba::Link{iba::LinkRate::k1x});
  Fixture f(std::move(g));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const double mbps = 300.0;
  const auto expect_per_hop = [&](ConnectionId id, unsigned distance) {
    const auto hops = ac.connection(id).hops;
    ASSERT_EQ(hops.size(), 3u);
    for (const auto& hop : hops) {
      const auto link = iba::link_mbps(f.graph.link(hop.port.node,
                                                    hop.port.port).rate);
      EXPECT_EQ(hop.requirement,
                *arbtable::compute_requirement(mbps, link, distance))
          << "node " << hop.port.node << " port " << int{hop.port.port};
    }
    EXPECT_NE(hops[0].requirement, hops[1].requirement);
    EXPECT_EQ(hops[0].requirement, hops[2].requirement);
  };

  const auto guaranteed = req(h0, h1, 2, 8, mbps);
  EXPECT_TRUE(ac.can_admit_path(guaranteed));
  const auto id = ac.request(guaranteed);
  ASSERT_TRUE(id.has_value());
  expect_per_hop(*id, 8);
  auto best_effort = guaranteed;
  best_effort.sl = 10;
  const auto be = ac.request_best_effort(best_effort);
  ASSERT_TRUE(be.has_value());
  expect_per_hop(*be, iba::kArbTableEntries);
  std::string why;
  EXPECT_TRUE(ac.audit_full(&why)) << why;
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

// --------------------------------------------------------------------------
// Connection records: a dense slot array with an open-addressing id index.

ConnectionRequest tiny_request(const std::vector<iba::NodeId>& hosts,
                               util::Xoshiro256& rng) {
  ConnectionRequest r;
  r.src_host = hosts[rng.below(hosts.size())];
  do {
    r.dst_host = hosts[rng.below(hosts.size())];
  } while (r.dst_host == r.src_host);
  r.sl = 7;
  r.max_distance = 64;
  r.wire_mbps = 0.25;
  return r;
}

/// The connection ids in AdmissionControl::save_state's bytes, in the order
/// written. Each port manager's state is skipped by loading it into a
/// scratch manager built with that port's config.
std::vector<ConnectionId> saved_ids(const AdmissionControl& ac) {
  util::BinWriter w;
  ac.save_state(w);
  util::BinReader r(w.bytes());
  const auto managers = r.get_u64();
  for (std::uint64_t i = 0; i < managers; ++i) {
    const auto key = r.get_u64();
    arbtable::TableManager scratch(
        ac.port_manager(static_cast<iba::NodeId>(key / 256),
                        static_cast<iba::PortIndex>(key % 256))
            .config());
    scratch.load_state(r);
  }
  std::vector<ConnectionId> ids(r.get_length());
  for (auto& id : ids) {
    id = r.get_u32();
    (void)r.get_u32();  // src
    (void)r.get_u32();  // dst
    (void)r.get_u8();   // sl
    (void)r.get_u32();  // max distance
    (void)r.get_double();
    const auto hops = r.get_length();
    for (std::size_t h = 0; h < hops; ++h) {
      (void)r.get_u32();
      (void)r.get_u8();
      for (int k = 0; k < 5; ++k) (void)r.get_u32();
      (void)r.get_double();
      (void)r.get_bool();
      (void)r.get_u8();
    }
    (void)r.get_u64();  // deadline
    (void)r.get_u8();   // category
  }
  return ids;
}

TEST(ConnectionRecords, TenThousandSetupForgetCyclesKeepEveryRecord) {
  // The live count swings between ~40 and ~1500 records, so the id index
  // grows several times and each shrink deletes from the middle of probe
  // runs (backward shift), leaving the surviving ids scattered. Every
  // record must stay reachable by its id and every forgotten id unknown.
  Fixture f(network::gen::single_switch(8));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  util::Xoshiro256 rng(77);
  std::vector<std::pair<ConnectionId, ConnectionRequest>> live;
  std::vector<ConnectionId> forgotten;
  ConnectionId last_id = 0;
  std::size_t cycles = 0;
  bool growing = true;
  for (int step = 0; cycles < 10'000; ++step) {
    if (growing) {
      const auto r = tiny_request(hosts, rng);
      const auto id = ac.request(r);
      ASSERT_TRUE(id.has_value()) << "step " << step;
      ASSERT_GT(*id, last_id) << "ids are minted in ascending order";
      last_id = *id;
      live.emplace_back(*id, r);
      growing = live.size() < 1500;
    } else {
      const auto k = rng.below(live.size());
      const auto id = live[k].first;
      live[k] = live.back();
      live.pop_back();
      ac.release(id);
      ac.forget(id);
      forgotten.push_back(id);
      ++cycles;
      growing = live.size() <= 40;
    }
    if (step % 97 != 0) continue;
    for (const auto& [id, r] : live) {
      ASSERT_TRUE(ac.is_live(id)) << "id " << id << " at step " << step;
      const auto& conn = ac.connection(id);
      ASSERT_EQ(conn.id, id);
      ASSERT_EQ(conn.request.src_host, r.src_host);
      ASSERT_EQ(conn.request.dst_host, r.dst_host);
    }
    for (std::size_t i = forgotten.size() > 50 ? forgotten.size() - 50 : 0;
         i < forgotten.size(); ++i) {
      ASSERT_FALSE(ac.is_live(forgotten[i]));
      ASSERT_THROW((void)ac.connection(forgotten[i]), std::out_of_range);
    }
  }
  EXPECT_EQ(ac.live_count(), live.size());
  std::string why;
  EXPECT_TRUE(ac.check_all_invariants(&why)) << why;
}

TEST(ConnectionRecords, UnknownIdThrowsOutOfRange) {
  Fixture f(network::gen::line(2, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  EXPECT_THROW((void)ac.connection(1), std::out_of_range);  // empty store
  const auto hosts = f.graph.hosts();
  const auto id = ac.request(req(hosts[0], hosts[1], 7, 64, 1.0));
  ASSERT_TRUE(id.has_value());
  EXPECT_THROW((void)ac.connection(0), std::out_of_range);
  EXPECT_THROW((void)ac.connection(*id + 1), std::out_of_range);
  ac.release(*id);
  EXPECT_EQ(ac.connection(*id).id, *id);  // released, not yet forgotten
  ac.forget(*id);
  EXPECT_THROW((void)ac.connection(*id), std::out_of_range);
}

TEST(ConnectionRecords, ForgetRejectsLiveAndUnknownIds) {
  Fixture f(network::gen::line(2, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto id = ac.request(req(hosts[0], hosts[1], 7, 64, 1.0));
  ASSERT_TRUE(id.has_value());
  EXPECT_THROW(ac.forget(*id), std::invalid_argument);  // still live
  EXPECT_THROW(ac.forget(*id + 1), std::invalid_argument);
  EXPECT_THROW(ac.forget(0), std::invalid_argument);
  ac.release(*id);
  ac.forget(*id);
  EXPECT_THROW(ac.forget(*id), std::invalid_argument);  // already forgotten
}

TEST(ConnectionRecords, SaveStateWritesIdsAscendingAfterSlotReuse) {
  Fixture f(network::gen::single_switch(4));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  util::Xoshiro256 rng(3);
  std::vector<ConnectionId> ids;
  const auto admit = [&] {
    ids.push_back(*ac.request(tiny_request(hosts, rng)));
  };
  for (int i = 0; i < 12; ++i) admit();
  // Free slots in an order that hands them back out of id order.
  for (const auto k : {1, 6, 3, 9}) {
    ac.release(ids[k]);
    ac.forget(ids[k]);
  }
  ac.release(ids[4]);  // released but not forgotten: not written
  for (int i = 0; i < 3; ++i) admit();

  const auto saved = saved_ids(ac);
  ASSERT_EQ(saved.size(), ac.live_count());
  for (std::size_t i = 1; i < saved.size(); ++i)
    EXPECT_LT(saved[i - 1], saved[i]) << "position " << i;
  EXPECT_EQ(std::count(saved.begin(), saved.end(), ids[4]), 0);
  EXPECT_EQ(saved.back(), ids.back());
}

TEST(ConnectionRecords, RestoreThenSaveIsByteIdentical) {
  Fixture f(network::gen::single_switch(6));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  util::Xoshiro256 rng(19);
  std::vector<ConnectionId> live;
  for (int step = 0; step < 600; ++step) {
    if (live.size() > 20 && rng.below(3) == 0) {
      const auto k = rng.below(live.size());
      ac.release(live[k]);
      if (rng.below(2) == 0) ac.forget(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else if (rng.below(4) == 0) {
      auto r = tiny_request(hosts, rng);
      r.sl = 10;  // best effort: low-table weight
      r.wire_mbps = 1.0;
      if (const auto id = ac.request_best_effort(r)) live.push_back(*id);
    } else if (const auto id = ac.request(tiny_request(hosts, rng))) {
      live.push_back(*id);
    }
  }
  util::BinWriter saved;
  ac.save_state(saved);

  AdmissionControl restored(f.graph, f.routes, paper_catalogue(), cfg());
  util::BinReader r(saved.bytes());
  restored.load_state(r);
  EXPECT_TRUE(r.at_end());
  std::string why;
  EXPECT_TRUE(restored.audit_full(&why)) << why;
  util::BinWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.bytes(), saved.bytes());

  // Both sides mint the same next id, and it clashes with nothing restored.
  const auto next = tiny_request(hosts, rng);
  const auto a = ac.request(next);
  const auto b = restored.request(next);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);
  for (const auto id : live) EXPECT_EQ(restored.is_live(id), ac.is_live(id));
}

}  // namespace
}  // namespace ibarb::qos
