// The routing-engine registry (ISSUE 9): the `updown` engine must be
// table-for-table identical to the pre-registry up*/down* routing pass
// (transliterated below as the oracle), every registered engine must leave
// the channel-dependency graph of every topology it accepts cycle-free
// (Dally/Seitz deadlock freedom), and structure-aware engines must refuse
// graphs without their hint so the SubnetManager can fall back to updown
// on degraded fabrics.
#include "network/routing_engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "network/topology.hpp"
#include "network/registry.hpp"
#include "subnet/subnet_manager.hpp"

namespace ibarb::network {
namespace {

constexpr unsigned kUnreached = std::numeric_limits<unsigned>::max();

// --- Oracle: the pre-registry up*/down* pass, kept verbatim ---------------
// This is the exact algorithm the up*/down* routing pass ran before the engine
// registry existed (root = highest-degree switch, BFS levels, per-sink
// down-BFS + up-Dijkstra, all-down preferred when optimal). The refactor
// promised table-for-table identity; this copy is the proof's fixed point.

struct LegacyTable {
  std::vector<iba::NodeId> switch_ids, host_ids;
  std::vector<std::uint32_t> dense;
  std::vector<std::vector<iba::PortIndex>> table;  // [sw][host]
  iba::NodeId root = 0;
  std::vector<unsigned> level;

  bool is_up_hop(iba::NodeId a, iba::NodeId b) const {
    const unsigned la = level[dense[a]], lb = level[dense[b]];
    if (lb != la) return lb < la;
    return b < a;
  }
};

LegacyTable legacy_updown(const FabricGraph& g) {
  LegacyTable r;
  r.switch_ids = g.switches();
  r.host_ids = g.hosts();
  r.dense.assign(g.node_count(), 0);
  for (std::uint32_t i = 0; i < r.switch_ids.size(); ++i)
    r.dense[r.switch_ids[i]] = i;
  for (std::uint32_t i = 0; i < r.host_ids.size(); ++i)
    r.dense[r.host_ids[i]] = i;
  const auto n_sw = r.switch_ids.size();
  const auto n_host = r.host_ids.size();

  r.root = r.switch_ids[0];
  unsigned best_degree = 0;
  for (const auto s : r.switch_ids) {
    unsigned deg = 0;
    for (unsigned p = 0; p < g.port_count(s); ++p) {
      const auto peer = g.peer(s, static_cast<iba::PortIndex>(p));
      if (peer && g.is_switch(peer->node)) ++deg;
    }
    if (deg > best_degree) {
      best_degree = deg;
      r.root = s;
    }
  }

  r.level.assign(n_sw, kUnreached);
  std::queue<iba::NodeId> frontier;
  r.level[r.dense[r.root]] = 0;
  frontier.push(r.root);
  while (!frontier.empty()) {
    const auto at = frontier.front();
    frontier.pop();
    for (unsigned p = 0; p < g.port_count(at); ++p) {
      const auto peer = g.peer(at, static_cast<iba::PortIndex>(p));
      if (!peer || !g.is_switch(peer->node)) continue;
      auto& lvl = r.level[r.dense[peer->node]];
      if (lvl == kUnreached) {
        lvl = r.level[r.dense[at]] + 1;
        frontier.push(peer->node);
      }
    }
  }

  r.table.assign(n_sw, std::vector<iba::PortIndex>(n_host, kNoRoute));
  for (std::uint32_t h = 0; h < n_host; ++h) {
    const auto host = r.host_ids[h];
    const PortRef uplink = g.host_uplink(host);
    const auto sink = uplink.node;
    r.table[r.dense[sink]][h] = uplink.port;

    std::vector<unsigned> down_dist(n_sw, kUnreached);
    std::vector<iba::PortIndex> down_port(n_sw, kNoRoute);
    std::queue<iba::NodeId> bfs;
    down_dist[r.dense[sink]] = 0;
    bfs.push(sink);
    while (!bfs.empty()) {
      const auto x = bfs.front();
      bfs.pop();
      for (unsigned p = 0; p < g.port_count(x); ++p) {
        const auto peer = g.peer(x, static_cast<iba::PortIndex>(p));
        if (!peer || !g.is_switch(peer->node)) continue;
        const auto s = peer->node;
        if (!r.is_up_hop(x, s)) continue;
        if (down_dist[r.dense[s]] != kUnreached) continue;
        down_dist[r.dense[s]] = down_dist[r.dense[x]] + 1;
        down_port[r.dense[s]] = peer->port;
        bfs.push(s);
      }
    }

    std::vector<unsigned> dist(down_dist);
    std::vector<iba::PortIndex> up_port(n_sw, kNoRoute);
    using Item = std::pair<unsigned, iba::NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    for (std::uint32_t s = 0; s < n_sw; ++s)
      if (dist[s] != kUnreached) pq.emplace(dist[s], r.switch_ids[s]);
    while (!pq.empty()) {
      const auto [d, m] = pq.top();
      pq.pop();
      if (d != dist[r.dense[m]]) continue;
      for (unsigned p = 0; p < g.port_count(m); ++p) {
        const auto peer = g.peer(m, static_cast<iba::PortIndex>(p));
        if (!peer || !g.is_switch(peer->node)) continue;
        const auto s = peer->node;
        if (!r.is_up_hop(s, m)) continue;
        if (dist[r.dense[s]] <= d + 1) continue;
        dist[r.dense[s]] = d + 1;
        up_port[r.dense[s]] = peer->port;
        pq.emplace(d + 1, s);
      }
    }

    for (std::uint32_t s = 0; s < n_sw; ++s) {
      const auto sw = r.switch_ids[s];
      if (sw == sink) continue;
      r.table[s][h] =
          down_dist[s] == dist[s] ? down_port[s] : up_port[s];
    }
  }
  return r;
}

void expect_identical_to_legacy(const FabricGraph& g) {
  const auto legacy = legacy_updown(g);
  const auto routes = compute_routes(g, "updown");
  EXPECT_EQ(routes.root(), legacy.root);
  for (std::uint32_t s = 0; s < legacy.switch_ids.size(); ++s) {
    const auto sw = legacy.switch_ids[s];
    EXPECT_EQ(routes.level(sw), legacy.level[s]);
    for (std::uint32_t h = 0; h < legacy.host_ids.size(); ++h) {
      ASSERT_EQ(routes.out_port(sw, legacy.host_ids[h]), legacy.table[s][h])
          << "switch " << sw << " -> host " << legacy.host_ids[h];
    }
  }
}

TEST(UpdownEngine, TableForTableIdenticalToLegacyPassIrregular) {
  for (const std::uint64_t seed : {1u, 7u, 21u, 99u}) {
    IrregularSpec spec;
    spec.switches = 16;
    spec.seed = seed;
    expect_identical_to_legacy(gen::irregular(spec));
  }
}

TEST(UpdownEngine, TableForTableIdenticalToLegacyPassStructured) {
  expect_identical_to_legacy(gen::mesh2d(4, 3, 2));
  expect_identical_to_legacy(gen::torus2d(4, 4, 1));
  expect_identical_to_legacy(gen::fat_tree2(4, 8, 4));
  expect_identical_to_legacy(gen::kary_fattree(4, 2));
  expect_identical_to_legacy(gen::dragonfly(4, 2, 9, 2));
}

// --- Registry surface ----------------------------------------------------

TEST(RoutingRegistry, ListsAllEnginesAndRejectsUnknown) {
  const auto& engines = routing_engines();
  ASSERT_EQ(engines.size(), 3u);
  EXPECT_EQ(engines[0]->name(), "updown");
  EXPECT_EQ(engines[1]->name(), "minimal-vl-escape");
  EXPECT_EQ(engines[2]->name(), "fattree-dmodk");
  EXPECT_TRUE(is_routing_engine("updown"));
  EXPECT_FALSE(is_routing_engine("ecmp"));
  try {
    routing_engine("ecmp");
    FAIL() << "unknown engine accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("updown|minimal-vl-escape"),
              std::string::npos)
        << e.what();
  }
}

TEST(RoutingRegistry, StructureAwareEnginesRefuseHintlessGraphs) {
  IrregularSpec spec;
  spec.switches = 8;
  auto g = gen::irregular(spec);
  EXPECT_THROW(compute_routes(g, "minimal-vl-escape"), std::runtime_error);
  EXPECT_THROW(compute_routes(g, "fattree-dmodk"), std::runtime_error);
  // A graph whose hint was stripped (degraded-fabric copies) is refused
  // even if its wiring happens to still be a torus.
  auto torus = gen::torus2d(4, 4, 1);
  torus.set_topology_hint({});
  EXPECT_THROW(compute_routes(torus, "minimal-vl-escape"),
               std::runtime_error);
}

// --- Deadlock freedom: CDG acyclicity over the full registry matrix ------

/// Every route must actually arrive: walk the table hop by hop from each
/// sampled source switch and count hops against a generous diameter bound.
void expect_delivers(const Routes& r, std::size_t max_pairs = 4096) {
  const auto& g = r.graph();
  const auto& hosts = r.host_ids();
  const auto& sws = r.switch_ids();
  const std::size_t stride =
      std::max<std::size_t>(1, sws.size() * hosts.size() / max_pairs);
  std::size_t n = 0;
  for (const auto sw : sws) {
    for (const auto h : hosts) {
      if (n++ % stride != 0) continue;
      iba::NodeId at = sw;
      unsigned hops = 0;
      while (true) {
        const auto port = r.out_port(at, h);
        const auto peer = g.peer(at, port);
        ASSERT_TRUE(peer.has_value());
        if (peer->node == h) break;
        ASSERT_TRUE(g.is_switch(peer->node));
        at = peer->node;
        ASSERT_LT(++hops, sws.size() + 2) << "routing loop toward " << h;
      }
    }
  }
}

constexpr std::string_view kSpecs[] = {
    "irregular:switches=16,seed=11", "irregular:switches=32,seed=3",
    "single", "line:switches=5", "mesh2d:cols=4,rows=3",
    "mesh2d:cols=5,rows=4", "torus2d:cols=4,rows=4",
    "torus2d:cols=5,rows=3", "torus3d:x=3,y=3,z=3", "torus3d:x=3,y=4,z=5",
    "torus3d:x=8,y=8,z=8,hosts=2", "fattree:k=4,n=2", "fattree:k=4,n=3",
    "fattree:k=16,n=3", "fattree2:spines=4,leaves=8", "dragonfly:a=4,h=2",
    "dragonfly:a=4,h=2,g=9,p=2", "dragonfly:a=8,h=4,g=33,p=4"};
constexpr std::string_view kEngines[] = {"updown", "minimal-vl-escape",
                                         "fattree-dmodk"};

/// One matrix cell as indices into kSpecs / kEngines. gtest prints a
/// parameter without operator<< as its raw bytes, and ctest discovery puts
/// that text into the test name; string pointers there would change with
/// every build and every run (ASLR), plain indices do not.
struct Combo {
  std::size_t spec;
  std::size_t engine;
  std::string_view spec_name() const { return kSpecs[spec]; }
  std::string_view engine_name() const { return kEngines[engine]; }
};

template <std::size_t N>
consteval std::size_t index_of(const std::string_view (&table)[N],
                               std::string_view key) {
  for (std::size_t i = 0; i < N; ++i)
    if (table[i] == key) return i;
  throw "not in table";  // a compile error in a consteval call
}

consteval Combo combo(std::string_view spec, std::string_view engine) {
  return {index_of(kSpecs, spec), index_of(kEngines, engine)};
}

class EngineMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(EngineMatrix, CdgAcyclicAndDelivers) {
  const std::string spec(GetParam().spec_name());
  const std::string engine(GetParam().engine_name());
  const auto g = TopologySpec::parse(spec).build();
  const auto routes = compute_routes(g, engine);
  EXPECT_EQ(routes.engine(), engine);
  EXPECT_TRUE(cdg_acyclic(routes)) << spec << " x " << engine
                                   << ": channel dependency cycle";
  expect_delivers(routes);
}

// The checker itself: a 4-switch ring routed by hand. Turning clockwise
// toward every destination closes a dependency cycle around the ring;
// never crossing the 3 -> 0 link (line routing) leaves it acyclic.
TEST(RoutesTable, CdgAcyclicFindsTheCycleOfAClockwiseRing) {
  constexpr unsigned kSwitches = 4;
  FabricGraph g;
  std::vector<iba::NodeId> sw(kSwitches);
  for (auto& s : sw) s = g.add_switch(3);  // 0 clockwise, 1 back, 2 host
  for (unsigned i = 0; i < kSwitches; ++i) {
    g.connect(sw[i], 0, sw[(i + 1) % kSwitches], 1);
    g.connect(g.add_host(), 0, sw[i], 2);
  }
  const auto ring = [&](bool clockwise_only) {
    RoutesBuilder b(g, "hand");
    for (std::uint32_t s = 0; s < kSwitches; ++s)
      for (std::uint32_t t = 0; t < kSwitches; ++t)
        if (s != t) b.set_port(s, t, clockwise_only || s < t ? 0 : 1);
    return std::move(b).build();
  };
  EXPECT_FALSE(cdg_acyclic(ring(true)));
  EXPECT_TRUE(cdg_acyclic(ring(false)));
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EngineMatrix,
    ::testing::Values(
        // updown accepts every family.
        combo("irregular:switches=16,seed=11", "updown"),
        combo("irregular:switches=32,seed=3", "updown"),
        combo("single", "updown"), combo("line:switches=5", "updown"),
        combo("mesh2d:cols=4,rows=3", "updown"),
        combo("torus2d:cols=4,rows=4", "updown"),
        combo("torus3d:x=3,y=3,z=3", "updown"),
        combo("fattree:k=4,n=2", "updown"),
        combo("fattree2:spines=4,leaves=8", "updown"),
        combo("dragonfly:a=4,h=2", "updown"),
        // minimal-vl-escape: the mesh/torus/dragonfly structures.
        combo("mesh2d:cols=5,rows=4", "minimal-vl-escape"),
        combo("torus2d:cols=4,rows=4", "minimal-vl-escape"),
        combo("torus2d:cols=5,rows=3", "minimal-vl-escape"),
        combo("torus3d:x=3,y=4,z=5", "minimal-vl-escape"),
        combo("torus3d:x=8,y=8,z=8,hosts=2", "minimal-vl-escape"),
        combo("dragonfly:a=4,h=2,g=9,p=2", "minimal-vl-escape"),
        // ISSUE 9 acceptance: the 1k-host dragonfly.
        combo("dragonfly:a=8,h=4,g=33,p=4", "minimal-vl-escape"),
        // fattree-dmodk: k-ary n-trees and 2-level spine/leaf.
        combo("fattree:k=4,n=2", "fattree-dmodk"),
        combo("fattree:k=4,n=3", "fattree-dmodk"),
        combo("fattree2:spines=4,leaves=8", "fattree-dmodk"),
        // ISSUE 9 acceptance: the 4k-host fat-tree.
        combo("fattree:k=16,n=3", "fattree-dmodk")),
    [](const auto& info) {
      std::string name = std::string(info.param.spec_name()) + "_" +
                         std::string(info.param.engine_name());
      for (auto& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

// --- Engine-specific properties ------------------------------------------

TEST(MinimalVlEscape, TorusUsesTwoVlLayersAndDatelineVls) {
  const auto g = gen::torus2d(4, 4, 1);
  const auto routes = compute_routes(g, "minimal-vl-escape");
  EXPECT_EQ(routes.vl_layers(), 2u);
  // Some switch pair must ride the escape layer (VL1) and some the dateline
  // layer (VL0) — a torus route set that never crosses a dateline minimally
  // does not exist at this size.
  bool saw_vl0 = false, saw_vl1 = false;
  for (const auto s : routes.switch_ids())
    for (const auto t : routes.switch_ids()) {
      if (s == t) continue;
      const auto vl = routes.switch_vl(s, t);
      saw_vl0 |= vl == 0;
      saw_vl1 |= vl == 1;
    }
  EXPECT_TRUE(saw_vl0);
  EXPECT_TRUE(saw_vl1);
}

TEST(MinimalVlEscape, MeshIsSingleLayerDimensionOrder) {
  const auto g = gen::mesh2d(4, 4, 1);
  const auto routes = compute_routes(g, "minimal-vl-escape");
  EXPECT_EQ(routes.vl_layers(), 1u);
  // Minimality on a mesh: hop count equals Manhattan distance.
  const auto hosts = g.hosts();
  const auto coord = [&](iba::NodeId h) {
    const auto sw = g.host_uplink(h).node;
    return std::pair<unsigned, unsigned>(unsigned(sw) % 4,
                                         unsigned(sw) / 4);
  };
  for (const auto a : hosts)
    for (const auto b : hosts) {
      if (a == b) continue;
      const auto [ax, ay] = coord(a);
      const auto [bx, by] = coord(b);
      const unsigned manhattan =
          (ax > bx ? ax - bx : bx - ax) + (ay > by ? ay - by : by - ay);
      // hops() counts path() entries minus one: the source-host entry plus
      // one entry per switch, so a minimal route is manhattan + 1.
      EXPECT_EQ(routes.hops(a, b), manhattan + 1) << a << "->" << b;
    }
}

TEST(FattreeDmodk, SpreadsDestinationsAcrossUpPorts) {
  const auto g = gen::kary_fattree(4, 3);
  const auto routes = compute_routes(g, "fattree-dmodk");
  // From any leaf switch, destinations behind the other 15 leaves must use
  // all k up ports (d-mod-k: the up port is a function of the destination
  // leaf index, which covers every residue class mod k here).
  const auto leaf = routes.switch_ids()[0];
  std::unordered_set<unsigned> up_ports_used;
  for (const auto h : g.hosts()) {
    if (g.host_uplink(h).node == leaf) continue;
    up_ports_used.insert(routes.out_port(leaf, h));
  }
  EXPECT_EQ(up_ports_used.size(), 4u);
}

TEST(RoutesTable, FlatTableIsMemoryLeanAtScale) {
  // ISSUE 9 acceptance: destination-switch CSR keeps a 4k-host fat-tree
  // table under a megabyte (the per-host table it replaced needed
  // n_sw x n_host = 3.1 MB of ports alone).
  const auto g = TopologySpec::parse("fattree:k=16,n=3").build();
  const auto routes = compute_routes(g, "fattree-dmodk");
  EXPECT_EQ(g.hosts().size(), 4096u);
  EXPECT_LT(routes.table_bytes(), 1'000'000u);
  // hops() walks the table without materializing the path.
  const auto a = g.hosts().front(), b = g.hosts().back();
  EXPECT_EQ(routes.hops(a, b), routes.path(a, b).size() - 1);
}

// --- Degraded-fabric fallback --------------------------------------------

TEST(SubnetManagerFallback, StructureAwareEngineFallsBackToUpdownOnFault) {
  const auto g = gen::torus2d(4, 4, 1);
  subnet::SubnetManager sm(g, "minimal-vl-escape");
  EXPECT_EQ(sm.routing_engine(), "minimal-vl-escape");
  EXPECT_EQ(sm.routes().vl_layers(), 2u);

  sim::Simulator sim(g, sm.routes(), {});
  // Kill one torus ring link: the degraded copy carries no hint, the
  // structured engine refuses it, and the manager reroutes with updown.
  const auto sw = g.switches()[0];
  const auto report = sm.resweep(sim, {{sw, 0}});
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.routes_changed);
  EXPECT_EQ(sm.routing_engine(), "updown");
  EXPECT_TRUE(sm.routes().has_levels());

  // Repair: an empty mask restores the full fabric, but the manager stays
  // on updown (the hintless rebuilt copy is indistinguishable from an
  // irregular fabric — re-selecting the structured engine would guess).
  const auto repaired = sm.resweep(sim, {});
  EXPECT_TRUE(repaired.routes_changed);
  EXPECT_EQ(sm.routing_engine(), "updown");
}

}  // namespace
}  // namespace ibarb::network
