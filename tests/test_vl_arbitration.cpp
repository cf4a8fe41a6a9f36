#include "iba/vl_arbitration.hpp"

#include <gtest/gtest.h>

#include "iba/arbiter.hpp"

namespace ibarb::iba {
namespace {

// The table is plain data: two 64-entry tables and LimitOfHighPriority.
static_assert(sizeof(VlArbitrationTable) == 2 * sizeof(ArbTable) + 1);

TEST(VlArbitrationTable, StartsEmptyAndValid) {
  VlArbitrationTable t;
  EXPECT_EQ(t.total_weight_high(), 0u);
  EXPECT_EQ(t.total_weight_low(), 0u);
  EXPECT_EQ(t.active_entries_high(), 0u);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.limit_of_high_priority(), kUnlimitedHighPriority);
}

TEST(VlArbitrationTable, WeightAccounting) {
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{2, 100};
  t.high()[5] = ArbTableEntry{2, 50};
  t.high()[9] = ArbTableEntry{3, 20};
  t.low()[0] = ArbTableEntry{4, 60};
  EXPECT_EQ(t.vl_weight_high(2), 150u);
  EXPECT_EQ(t.vl_weight_high(3), 20u);
  EXPECT_EQ(t.vl_weight_high(4), 0u);
  EXPECT_EQ(t.vl_weight_low(4), 60u);
  EXPECT_EQ(t.total_weight_high(), 170u);
  EXPECT_EQ(t.total_weight_low(), 60u);
  EXPECT_EQ(t.active_entries_high(), 3u);
}

TEST(VlArbitrationTable, ZeroWeightEntryIsInactive) {
  ArbTableEntry e{3, 0};
  EXPECT_FALSE(e.active());
  VlArbitrationTable t;
  t.high()[0] = e;
  EXPECT_EQ(t.active_entries_high(), 0u);
  EXPECT_EQ(t.vl_weight_high(3), 0u);
}

TEST(VlArbitrationTable, Vl15EntriesAreInvalid) {
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{kManagementVl, 10};
  EXPECT_FALSE(t.valid());
  VlArbitrationTable t2;
  t2.low()[0] = ArbTableEntry{kManagementVl, 10};
  EXPECT_FALSE(t2.valid());
}

TEST(VlArbitrationTable, FullTableWeightConstant) {
  VlArbitrationTable t;
  for (auto& e : t.high()) e = ArbTableEntry{0, kMaxEntryWeight};
  EXPECT_EQ(t.total_weight_high(), kFullTableWeight);
}

TEST(VlArbitrationTable, LimitRoundTrips) {
  VlArbitrationTable t;
  t.set_limit_of_high_priority(10);
  EXPECT_EQ(t.limit_of_high_priority(), 10);
}

TEST(VlArbiter, LimitBoundaryFiresTheLowPriorityEscape) {
  // IBA §7.6.9: LimitOfHighPriority = L allows L×4096 bytes of high-table
  // data while a low-priority packet waits; at the boundary the arbiter
  // must yield one low-table slot. Exact-boundary case: two 2048-byte high
  // packets reach exactly 1×4096 — the meter trips at >=, so the THIRD
  // decision is the escape, not the fourth.
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, 255};
  t.low()[0] = ArbTableEntry{1, 1};
  t.set_limit_of_high_priority(1);
  VlArbiter arb(t);

  ReadyBytes ready{};
  ready[0] = 2048;  // high-table head (VL0)
  ready[1] = 512;   // low-priority packet pending throughout (VL1)

  const auto d1 = arb.arbitrate(ready);
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(d1->vl, 0);
  EXPECT_TRUE(d1->from_high);
  const auto d2 = arb.arbitrate(ready);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->vl, 0);
  EXPECT_EQ(arb.stats().limit_blocks, 0u) << "limit tripped before 4096 B";

  const auto d3 = arb.arbitrate(ready);
  ASSERT_TRUE(d3.has_value());
  EXPECT_EQ(d3->vl, 1) << "the low-priority escape must fire at the limit";
  EXPECT_FALSE(d3->from_high);
  EXPECT_EQ(arb.stats().limit_blocks, 1u);

  // The low pick reset the meter: high-priority service resumes at once.
  const auto d4 = arb.arbitrate(ready);
  ASSERT_TRUE(d4.has_value());
  EXPECT_EQ(d4->vl, 0);
  EXPECT_TRUE(d4->from_high);
}

TEST(VlArbiter, LimitMetersOnlyWhileLowTrafficWaits) {
  // The spec meters high-priority data sent WHILE low-priority packets
  // wait. High data alone — no low packet pending — must never accumulate
  // toward the limit, no matter how much is sent.
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, 255};
  t.low()[0] = ArbTableEntry{1, 1};
  t.set_limit_of_high_priority(1);
  VlArbiter arb(t);

  ReadyBytes high_only{};
  high_only[0] = 4096;
  for (int i = 0; i < 8; ++i) {
    const auto d = arb.arbitrate(high_only);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->vl, 0);
  }

  // A low packet appears: the meter starts from zero, so the next decision
  // is still high (an eagerly-metering arbiter would block immediately).
  ReadyBytes both = high_only;
  both[1] = 512;
  const auto d = arb.arbitrate(both);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->vl, 0);
  EXPECT_TRUE(d->from_high);
  EXPECT_EQ(arb.stats().limit_blocks, 0u);

  // ...and exactly one more 4096-byte pick trips the boundary.
  const auto d2 = arb.arbitrate(both);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->vl, 1);
  EXPECT_EQ(arb.stats().limit_blocks, 1u);
}

}  // namespace
}  // namespace ibarb::iba
