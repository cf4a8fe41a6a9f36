#include "arbtable/defrag.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arbtable/table_manager.hpp"

namespace ibarb::arbtable {
namespace {

TableManager::Config cfg(bool defrag) {
  TableManager::Config c;
  c.link_data_mbps = 2000.0;
  c.reservable_fraction = 1.0;  // bandwidth never the limit in these tests
  c.policy = FillPolicy::kBitReversal;
  c.defrag_on_release = defrag;
  c.seed = 3;
  return c;
}

Requirement fat_req(unsigned distance) {
  // weight_per_entry close to the cap so sequences never share.
  Requirement r;
  r.distance = distance;
  r.entries = iba::kArbTableEntries / distance;
  r.weight_per_entry = 200;
  r.total_weight = r.entries * r.weight_per_entry;
  return r;
}

TEST(Defrag, CoalescesFreedSetsIntoLargerOnes) {
  // Without defrag: allocate four distance-4 sequences (the whole table),
  // free two non-buddy ones; a distance-2 request (32 entries) has exactly
  // 32 free entries but they do not form one E_{1,j}. With defrag they must.
  TableManager no_defrag(cfg(false));
  TableManager with_defrag(cfg(true));
  const auto r4 = fat_req(4);
  std::vector<SeqHandle> h1, h2;
  for (int i = 0; i < 4; ++i) {
    auto a = no_defrag.allocate(1, r4, 1.0);
    auto b = with_defrag.allocate(1, r4, 1.0);
    ASSERT_TRUE(a && b);
    h1.push_back(*a);
    h2.push_back(*b);
  }
  // Bit-reversal fill order for d=4 is offsets 0, 2, 1, 3. Free offsets
  // 0 and 1 (handles 0 and 2): the free entries are not a single E_{1,j}.
  no_defrag.release(h1[0], r4, 1.0);
  no_defrag.release(h1[2], r4, 1.0);
  with_defrag.release(h2[0], r4, 1.0);
  with_defrag.release(h2[2], r4, 1.0);

  EXPECT_EQ(no_defrag.free_entries(), 32u);
  EXPECT_EQ(with_defrag.free_entries(), 32u);

  const auto r2 = fat_req(2);
  EXPECT_FALSE(no_defrag.allocate(2, r2, 1.0).has_value())
      << "fragmented table should not fit a distance-2 sequence";
  EXPECT_TRUE(with_defrag.allocate(2, r2, 1.0).has_value())
      << "defragmentation must have coalesced the two freed sets";
  EXPECT_TRUE(with_defrag.check_invariants());
}

TEST(Defrag, PreservesSequenceContents) {
  TableManager m(cfg(true));
  const auto r8 = fat_req(8);
  const auto r16 = fat_req(16);
  const auto a = m.allocate(1, r8, 1.0);
  const auto b = m.allocate(2, r16, 1.0);
  const auto c = m.allocate(3, r8, 1.0);
  ASSERT_TRUE(a && b && c);
  m.release(*a, r8, 1.0);  // triggers defrag; b and c may move

  std::string why;
  ASSERT_TRUE(m.check_invariants(&why)) << why;
  // VL2 still owns a distance-16 sequence and VL3 a distance-8 one.
  EXPECT_EQ(m.sequence(*b).distance, 16u);
  EXPECT_EQ(m.sequence(*b).weight_per_entry, 200u);
  EXPECT_EQ(m.sequence(*c).distance, 8u);
  const auto& table = m.table().high();
  unsigned vl2 = 0, vl3 = 0;
  for (const auto& e : table) {
    if (!e.active()) continue;
    if (e.vl == 2) ++vl2;
    if (e.vl == 3) ++vl3;
  }
  EXPECT_EQ(vl2, 4u);
  EXPECT_EQ(vl3, 8u);
}

TEST(Defrag, NoMovesWhenAlreadyPacked) {
  TableManager m(cfg(true));
  const auto r = fat_req(8);
  const auto a = m.allocate(1, r, 1.0);
  const auto b = m.allocate(1, r, 1.0);
  ASSERT_TRUE(a && b);
  const auto moves_before = m.stats().defrag_moves;
  m.defragment();
  EXPECT_EQ(m.stats().defrag_moves, moves_before)
      << "a bit-reversal-packed table needs no relocation";
  EXPECT_TRUE(m.check_invariants());
}

TEST(Defrag, PackedTableStaysPutAndFragmentedTableMoves) {
  // Largest blocks first, each class back to back from buddy address 0: the
  // layout the walk produces, so a run changes nothing but its count (the
  // tm.defrag_runs counter and snapshot blobs carry every run).
  TableManager m(cfg(false));
  const unsigned distances[] = {4, 8, 8, 16, 32};
  std::vector<SeqHandle> h;
  for (const auto d : distances) {
    const auto got =
        m.allocate(static_cast<iba::VirtualLane>(1 + h.size()), fat_req(d),
                   1.0);
    ASSERT_TRUE(got.has_value());
    h.push_back(*got);
  }
  std::vector<std::uint64_t> slots;
  for (const auto handle : h) slots.push_back(m.sequence(handle).slots);
  const auto table = m.table().high();

  m.defragment();
  EXPECT_EQ(m.stats().defrag_runs, 1u);
  EXPECT_EQ(m.stats().defrag_moves, 0u);
  for (std::size_t k = 0; k < h.size(); ++k)
    EXPECT_EQ(m.sequence(h[k]).slots, slots[k]) << "sequence " << k;
  EXPECT_EQ(m.table().high(), table);
  std::string why;
  ASSERT_TRUE(m.check_invariants(&why)) << why;

  // Freeing the front distance-4 block leaves a hole: all four later blocks
  // move up, and the run is counted once more.
  m.release(h[0], fat_req(4), 1.0);
  m.defragment();
  EXPECT_EQ(m.stats().defrag_runs, 2u);
  EXPECT_EQ(m.stats().defrag_moves, 4u);
  ASSERT_TRUE(m.check_invariants(&why)) << why;
  EXPECT_TRUE(m.audit_free_set_optimality(&why)) << why;
}

TEST(Defrag, ExplicitRunIsRenderedOnTheNextRead) {
  // Without defrag on release, free offsets 0 and 1 of four distance-4
  // sequences (bit-reversal order 0, 2, 1, 3), read the tables, then
  // defragment by hand: both survivors move, and the next read shows them
  // at their new slots.
  TableManager m(cfg(false));
  const auto r4 = fat_req(4);
  std::vector<SeqHandle> h;
  for (int i = 0; i < 4; ++i) {
    const auto got = m.allocate(static_cast<iba::VirtualLane>(1 + i), r4, 1.0);
    ASSERT_TRUE(got.has_value());
    h.push_back(*got);
  }
  m.release(h[0], r4, 1.0);
  m.release(h[2], r4, 1.0);
  ASSERT_TRUE(m.check_invariants());  // renders the fragmented layout
  ASSERT_FALSE(m.can_admit(5, fat_req(2), 1.0));

  m.defragment();
  EXPECT_EQ(m.stats().defrag_moves, 2u);
  std::string why;
  ASSERT_TRUE(m.check_invariants(&why)) << why;
  const auto& table = m.table().high();
  for (const auto k : {1, 3}) {
    EXPECT_EQ(m.sequence(h[k]).positions().size(), 16u);
    for (const auto p : m.sequence(h[k]).positions())
      EXPECT_EQ(table[p], (iba::ArbTableEntry{
                              static_cast<iba::VirtualLane>(1 + k), 200}))
          << "slot " << p;
  }
  EXPECT_TRUE(m.audit_free_set_optimality(&why)) << why;
  EXPECT_TRUE(m.allocate(5, fat_req(2), 1.0).has_value())
      << "the packed masks must offer the freed half as one E_{1,j}";
  EXPECT_TRUE(m.check_invariants(&why)) << why;
}

TEST(Defrag, MaxGapNeverWorseAfterDefrag) {
  // Relocation must never loosen a sequence's spacing: the guarantee is on
  // the distance, which defrag preserves exactly.
  TableManager m(cfg(true));
  const auto r4 = fat_req(4);
  const auto r32 = fat_req(32);
  const auto a = m.allocate(1, r4, 1.0);
  const auto b = m.allocate(2, r32, 1.0);
  const auto c = m.allocate(3, r32, 1.0);
  ASSERT_TRUE(a && b && c);
  m.release(*b, r32, 1.0);
  EXPECT_LE(max_gap_for_vl(m.table().high(), 1), 4u);
  EXPECT_LE(max_gap_for_vl(m.table().high(), 3), 32u);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Defrag, EveryFaultStyleReleaseLeavesAuditableTables) {
  // Fault recovery releases connections in bursts (reroute after a re-sweep
  // sheds and re-admits whole path sets). After *every* release-triggered
  // defragmentation the full invariant set must check out — this is the
  // audit debug builds run inside the recovery path itself.
  TableManager m(cfg(true));
  struct Live {
    SeqHandle h;
    Requirement r;
  };
  std::vector<Live> live;
  const unsigned distances[] = {4, 8, 16, 32, 64};
  // Deterministic mixed-distance load, then tear it down in an interleaved
  // order so defrag sees both buddy and non-buddy frees.
  for (int round = 0; round < 4; ++round) {
    for (const auto d : distances) {
      Requirement r;
      r.distance = d;
      r.entries = iba::kArbTableEntries / d;
      r.weight_per_entry = 10 + d;
      r.total_weight = r.entries * r.weight_per_entry;
      if (const auto h = m.allocate(
              static_cast<iba::VirtualLane>(1 + round % 7), r, 1.0))
        live.push_back(Live{*h, r});
    }
  }
  ASSERT_GE(live.size(), 8u);
  // Release even indices first, then the rest (maximally non-contiguous).
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t i = pass; i < live.size(); i += 2) {
      m.release(live[i].h, live[i].r, 1.0);
      std::string why;
      ASSERT_TRUE(m.check_invariants(&why))
          << "release " << i << " pass " << pass << ": " << why;
    }
  }
  EXPECT_EQ(m.table().active_entries_high(), 0u);
  EXPECT_EQ(m.free_entries(), iba::kArbTableEntries);
}

TEST(Defrag, ScatteredSequencesDisableDefrag) {
  TableManager::Config c = cfg(true);
  c.policy = FillPolicy::kScattered;
  TableManager m(c);
  const auto r = fat_req(8);
  const auto a = m.allocate(1, r, 1.0);
  const auto b = m.allocate(2, r, 1.0);
  ASSERT_TRUE(a && b);
  m.release(*a, r, 1.0);  // triggers defragment(), which must bail out
  EXPECT_EQ(m.stats().defrag_moves, 0u);
  EXPECT_TRUE(m.check_invariants());
}

}  // namespace
}  // namespace ibarb::arbtable
