// The string-keyed topology registry (ISSUE 9): the `--topo` grammar, its
// parse-time rejection contract (unknown families/keys fail with the valid
// set, mirroring --crossbar), the per-family defaults, the canonical
// spelling reports echo, and the shapes of the generators it builds —
// including the new large-scale families (k-ary n-tree, dragonfly, 3-D
// torus) at their ISSUE 9 acceptance sizes.
#include "network/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "network/topology.hpp"

namespace ibarb::network {
namespace {

TEST(TopologySpec, BareFamilyParsesWithDefaults) {
  const auto spec = TopologySpec::parse("torus2d");
  EXPECT_EQ(spec.family(), "torus2d");
  EXPECT_FALSE(spec.has("cols"));
  EXPECT_EQ(spec.param("cols"), 4u);  // family default
  EXPECT_EQ(spec.canonical(), "torus2d:cols=4,rows=4,hosts=1,rate=1");
}

TEST(TopologySpec, ExplicitParametersOverrideDefaults) {
  auto spec = TopologySpec::parse("fattree:k=8,n=3");
  EXPECT_TRUE(spec.has("k"));
  EXPECT_EQ(spec.param("k"), 8u);
  EXPECT_EQ(spec.param("n"), 3u);
  EXPECT_EQ(spec.param("rate"), 1u);
  spec.set("rate", 4);
  EXPECT_EQ(spec.canonical(), "fattree:k=8,n=3,rate=4");
}

TEST(TopologySpec, CanonicalIsStableAcrossSpellings) {
  EXPECT_EQ(TopologySpec::parse("torus2d:rows=5,cols=3").canonical(),
            TopologySpec::parse("torus2d:cols=3,rows=5").canonical());
}

TEST(TopologySpec, UnknownFamilyRejectedWithValidList) {
  try {
    TopologySpec::parse("hypercube:d=4");
    FAIL() << "unknown family accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hypercube"), std::string::npos) << msg;
    EXPECT_NE(msg.find(kTopologyFamilyNames), std::string::npos) << msg;
  }
}

TEST(TopologySpec, UnknownKeyRejectedWithValidKeys) {
  try {
    TopologySpec::parse("torus2d:cols=4,depth=2");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("depth"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cols"), std::string::npos)
        << "message must list the valid keys: " << msg;
  }
}

TEST(TopologySpec, MalformedPairsRejected) {
  EXPECT_THROW(TopologySpec::parse("torus2d:cols"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("torus2d:cols="), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("torus2d:cols=four"),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("torus2d:cols=4x"),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse(""), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("irregular:rate=3"),
               std::invalid_argument);  // rate takes 1|4|12
}

TEST(TopologySpec, FamilyPredicateAndNameList) {
  EXPECT_TRUE(is_topology_family("dragonfly"));
  EXPECT_FALSE(is_topology_family("butterfly"));
  EXPECT_EQ(topology_family_names().size(), 9u);
}

// --- Generator shapes -----------------------------------------------------

TEST(Generators, EveryFamilyBuildsAndCarriesItsHint) {
  for (const auto family : topology_family_names()) {
    const auto g = TopologySpec::parse(std::string(family)).build();
    EXPECT_GT(g.hosts().size(), 0u) << family;
    EXPECT_TRUE(g.connected()) << family;
    EXPECT_EQ(g.topology_hint().family, family);
  }
}

TEST(Generators, KaryFattreeShape) {
  // k-ary n-tree: n levels of k^(n-1) switches, k^n hosts on the leaves.
  const auto g = TopologySpec::parse("fattree:k=4,n=3").build();
  EXPECT_EQ(g.switches().size(), 3u * 16u);
  EXPECT_EQ(g.hosts().size(), 64u);
  // Leaves carry k hosts + k up links; top level has only k down ports.
  const auto sws = g.switches();
  unsigned leaf_wired = 0;
  for (unsigned p = 0; p < g.port_count(sws[0]); ++p)
    if (g.peer(sws[0], static_cast<iba::PortIndex>(p))) ++leaf_wired;
  EXPECT_EQ(leaf_wired, 8u);
}

TEST(Generators, DragonflyShapeAndDefaults) {
  // Canonical maximal size: g defaults to a*h+1 groups, p to h.
  const auto spec = TopologySpec::parse("dragonfly:a=4,h=2");
  EXPECT_EQ(spec.param("g"), 0u);  // 0 = derive at build
  const auto g = spec.build();
  EXPECT_EQ(g.switches().size(), 4u * 9u);
  EXPECT_EQ(g.hosts().size(), 4u * 9u * 2u);
  // Every router: a-1 local + h global + p host ports, all wired except
  // possibly spare global ports (balanced wiring uses all of them here).
  const auto r0 = g.switches()[0];
  unsigned wired = 0;
  for (unsigned p = 0; p < g.port_count(r0); ++p)
    if (g.peer(r0, static_cast<iba::PortIndex>(p))) ++wired;
  EXPECT_EQ(wired, 3u + 2u + 2u);
}

TEST(Generators, Torus3dShape) {
  const auto g = TopologySpec::parse("torus3d:x=3,y=4,z=5,hosts=2").build();
  EXPECT_EQ(g.switches().size(), 60u);
  EXPECT_EQ(g.hosts().size(), 120u);
  // Every switch has exactly 6 switch neighbours (distinct per dim >= 3).
  for (const auto sw : g.switches()) {
    unsigned nbrs = 0;
    for (unsigned p = 0; p < 6; ++p)
      if (g.peer(sw, static_cast<iba::PortIndex>(p))) ++nbrs;
    EXPECT_EQ(nbrs, 6u) << "switch " << sw;
  }
}

TEST(Generators, AcceptanceSizesBuildFast) {
  // ISSUE 9: structured families must be constructible at 1k-100k hosts.
  const auto dragonfly =
      TopologySpec::parse("dragonfly:a=8,h=4,g=33,p=4").build();
  EXPECT_EQ(dragonfly.hosts().size(), 1056u);
  const auto fattree = TopologySpec::parse("fattree:k=16,n=3").build();
  EXPECT_EQ(fattree.hosts().size(), 4096u);
  EXPECT_EQ(fattree.switches().size(), 768u);
}

TEST(Generators, LinkRateParameterIsApplied) {
  const auto g = TopologySpec::parse("single:hosts=2,rate=12").build();
  const auto up = g.host_uplink(g.hosts()[0]);
  EXPECT_EQ(g.link(up.node, up.port).rate, iba::LinkRate::k12x);
}

// --- Satellite: descriptive validation messages ---------------------------

void expect_message_contains(const char* spec, const char* needle) {
  try {
    TopologySpec::parse(spec).build();
    FAIL() << spec << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << spec << " -> " << e.what();
  }
}

TEST(GeneratorValidation, MessagesNameTheOffendingParameter) {
  expect_message_contains("torus2d:cols=2", "cols=2");
  expect_message_contains("torus2d:rows=1", "rows=1");
  expect_message_contains("torus3d:y=2", "y=2");
  expect_message_contains("mesh2d:cols=0", "cols=0");
  expect_message_contains("fattree:k=1", "k=1");
  expect_message_contains("fattree:n=0", "n=0");
  expect_message_contains("dragonfly:a=1", "a=1");
  expect_message_contains("dragonfly:a=2,h=1,g=9", "g=9");
  expect_message_contains("line:switches=0", "switches=0");
}

TEST(GeneratorValidation, IrregularSpecValidated) {
  // ports must exceed hosts-per-switch (each switch needs switch-to-switch
  // links left over), and a single-switch "irregular" fabric is not one.
  expect_message_contains("irregular:hosts=8,ports=8", "hosts_per_switch=8");
  expect_message_contains("irregular:switches=1", "switches=1");
  IrregularSpec spec;
  spec.switches = 1;
  EXPECT_THROW(gen::irregular(spec), std::invalid_argument);
  spec.switches = 16;
  spec.hosts_per_switch = spec.ports_per_switch;
  EXPECT_THROW(gen::irregular(spec), std::invalid_argument);
}

TEST(GeneratorValidation, NodeBudgetGuardsRunawaySpecs) {
  // The budget rejects absurd sizes before allocation, naming the family.
  try {
    TopologySpec::parse("torus3d:x=200,y=200,z=200").build();
    FAIL() << "8M-switch torus accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("torus3d"), std::string::npos);
  }
}

}  // namespace
}  // namespace ibarb::network
