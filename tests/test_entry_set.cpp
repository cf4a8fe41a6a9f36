#include "arbtable/entry_set.hpp"

#include <gtest/gtest.h>

#include <set>

namespace ibarb::arbtable {
namespace {

TEST(EntrySet, PositionsAreEquallySpaced) {
  const EntrySet e{8, 3};
  const auto pos = e.positions();
  ASSERT_EQ(pos.size(), 8u);
  unsigned k = 0;
  for (const auto p : pos) EXPECT_EQ(p, 3u + 8u * k++);
}

TEST(EntrySet, SizeIsTableOverDistance) {
  EXPECT_EQ((EntrySet{2, 0}.size()), 32u);
  EXPECT_EQ((EntrySet{64, 5}.size()), 1u);
}

TEST(EntrySet, Validity) {
  EXPECT_TRUE((EntrySet{2, 1}.valid()));
  EXPECT_TRUE((EntrySet{64, 63}.valid()));
  EXPECT_FALSE((EntrySet{3, 0}.valid()));    // not a power of two
  EXPECT_FALSE((EntrySet{128, 0}.valid()));  // beyond the table
  EXPECT_FALSE((EntrySet{8, 8}.valid()));    // offset >= distance
}

TEST(EntrySet, SetsOfOneDistancePartitionTheTable) {
  for (unsigned d = 1; d <= 64; d *= 2) {
    std::set<unsigned> seen;
    for (unsigned j = 0; j < d; ++j)
      for (const auto p : EntrySet{d, j}.positions()) {
        EXPECT_TRUE(seen.insert(p).second) << "overlap at " << p;
      }
    EXPECT_EQ(seen.size(), iba::kArbTableEntries);
  }
}

TEST(EntrySet, BuddyBlockIsBitReversedOffset) {
  EXPECT_EQ((EntrySet{8, 0}.buddy_block_index()), 0u);
  EXPECT_EQ((EntrySet{8, 4}.buddy_block_index()), 1u);
  EXPECT_EQ((EntrySet{8, 2}.buddy_block_index()), 2u);
  EXPECT_EQ((EntrySet{8, 1}.buddy_block_index()), 4u);
}

TEST(EntrySet, BuddyBlockRoundTrips) {
  for (unsigned d = 1; d <= 64; d *= 2)
    for (unsigned j = 0; j < d; ++j) {
      const EntrySet e{d, j};
      const auto back = EntrySet::from_buddy_block(d, e.buddy_block_index());
      EXPECT_EQ(back, e);
    }
}

TEST(EntrySet, BuddyBlocksOfOneDistanceAreDisjointIntervals) {
  // The defragmenter relies on E_{i,j} mapping to aligned contiguous blocks
  // in bit-reversed space: verify positions of consecutive blocks are the
  // bit-reversed images of consecutive aligned ranges.
  const unsigned d = 16;
  const unsigned block_size = iba::kArbTableEntries / d;
  for (unsigned b = 0; b < d; ++b) {
    const auto set = EntrySet::from_buddy_block(d, b);
    std::set<unsigned> q_addresses;
    for (const auto p : set.positions())
      q_addresses.insert(reverse_bits(p, 6));
    EXPECT_EQ(*q_addresses.begin(), b * block_size);
    EXPECT_EQ(*q_addresses.rbegin(), (b + 1) * block_size - 1);
    EXPECT_EQ(q_addresses.size(), block_size);
  }
}

TEST(SetIsFree, DetectsOccupiedEntry) {
  iba::ArbTable table{};
  EXPECT_TRUE(set_is_free(table, EntrySet{4, 1}));
  table[5] = iba::ArbTableEntry{0, 9};  // 5 = 1 + 4*1 -> in E_{2,1}
  EXPECT_FALSE(set_is_free(table, EntrySet{4, 1}));
  EXPECT_TRUE(set_is_free(table, EntrySet{4, 0}));
}

TEST(FreeEntries, Counts) {
  iba::ArbTable table{};
  EXPECT_EQ(free_entries(table), 64u);
  table[0] = iba::ArbTableEntry{0, 1};
  table[63] = iba::ArbTableEntry{1, 1};
  EXPECT_EQ(free_entries(table), 62u);
}

TEST(MaxGap, SingleEntryWrapsWholeTable) {
  iba::ArbTable table{};
  table[10] = iba::ArbTableEntry{2, 5};
  EXPECT_EQ(max_gap_for_vl(table, 2), iba::kArbTableEntries);
}

TEST(MaxGap, EquallySpacedSequenceHasGapEqualToDistance) {
  iba::ArbTable table{};
  for (const auto p : EntrySet{8, 2}.positions())
    table[p] = iba::ArbTableEntry{3, 10};
  EXPECT_EQ(max_gap_for_vl(table, 3), 8u);
}

TEST(MaxGap, IgnoresOtherVls) {
  iba::ArbTable table{};
  for (const auto p : EntrySet{4, 0}.positions())
    table[p] = iba::ArbTableEntry{1, 10};
  for (const auto p : EntrySet{16, 1}.positions())
    table[p] = iba::ArbTableEntry{2, 10};
  EXPECT_EQ(max_gap_for_vl(table, 1), 4u);
  EXPECT_EQ(max_gap_for_vl(table, 2), 16u);
}

TEST(MaxGap, AbsentVl) {
  iba::ArbTable table{};
  EXPECT_EQ(max_gap_for_vl(table, 9), iba::kArbTableEntries);
}

}  // namespace
}  // namespace ibarb::arbtable
