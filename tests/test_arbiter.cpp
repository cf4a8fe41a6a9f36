#include "iba/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>

namespace ibarb::iba {
namespace {

VlArbitrationTable two_vl_table(std::uint8_t w0, std::uint8_t w1) {
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, w0};
  t.high()[1] = ArbTableEntry{1, w1};
  return t;
}

TEST(VlArbiter, NothingReadyReturnsNullopt) {
  VlArbiter arb(two_vl_table(10, 10));
  ReadyBytes ready{};
  EXPECT_FALSE(arb.arbitrate(ready).has_value());
}

TEST(VlArbiter, Vl15AlwaysWins) {
  VlArbiter arb(two_vl_table(10, 10));
  ReadyBytes ready{};
  ready[0] = 100;
  ready[kManagementVl] = 64;
  const auto d = arb.arbitrate(ready);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->vl, kManagementVl);
  EXPECT_TRUE(d->management);
}

TEST(VlArbiter, PicksOnlyReadyVl) {
  VlArbiter arb(two_vl_table(10, 10));
  ReadyBytes ready{};
  ready[1] = 100;
  const auto d = arb.arbitrate(ready);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->vl, 1);
  EXPECT_TRUE(d->from_high);
}

TEST(VlArbiter, UnconfiguredVlNeverSelected) {
  VlArbiter arb(two_vl_table(10, 10));
  ReadyBytes ready{};
  ready[7] = 100;  // VL7 appears in no table entry
  EXPECT_FALSE(arb.arbitrate(ready).has_value());
}

TEST(VlArbiter, WeightedSharesApproximateWeights) {
  // VL0 weight 200, VL1 weight 100 -> bytes served should be ~2:1.
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, 200};
  t.high()[1] = ArbTableEntry{1, 100};
  VlArbiter arb(t);

  ReadyBytes ready{};
  ready[0] = 640;  // 10 weight units each
  ready[1] = 640;
  std::map<VirtualLane, std::uint64_t> bytes;
  for (int i = 0; i < 3000; ++i) {
    const auto d = arb.arbitrate(ready);
    ASSERT_TRUE(d.has_value());
    bytes[d->vl] += ready[d->vl];
  }
  const double ratio = static_cast<double>(bytes[0]) /
                       static_cast<double>(bytes[1]);
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(VlArbiter, EqualWeightsAlternate) {
  VlArbiter arb(two_vl_table(5, 5));
  ReadyBytes ready{};
  ready[0] = 320;  // exactly 5 units: one packet exhausts the entry
  ready[1] = 320;
  const auto a = arb.arbitrate(ready);
  const auto b = arb.arbitrate(ready);
  const auto c = arb.arbitrate(ready);
  const auto d = arb.arbitrate(ready);
  ASSERT_TRUE(a && b && c && d);
  EXPECT_EQ(a->vl, 0);
  EXPECT_EQ(b->vl, 1);
  EXPECT_EQ(c->vl, 0);
  EXPECT_EQ(d->vl, 1);
}

TEST(VlArbiter, WholePacketChargeOverdraftForfeited) {
  // Entry weight 1 unit; packet of 10 units still goes out, then the entry
  // is exhausted (no carrying of the overdraft into the next round).
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, 1};
  t.high()[1] = ArbTableEntry{1, 200};
  VlArbiter arb(t);
  ReadyBytes ready{};
  ready[0] = 640;
  ready[1] = 64;
  const auto first = arb.arbitrate(ready);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->vl, 0);
  // Next pick must come from VL1's entry.
  const auto second = arb.arbitrate(ready);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->vl, 1);
}

TEST(VlArbiter, WorkConservingLowRunsWhenHighEmpty) {
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, 100};
  t.low()[0] = ArbTableEntry{5, 10};
  VlArbiter arb(t);
  ReadyBytes ready{};
  ready[5] = 128;
  const auto d = arb.arbitrate(ready);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->vl, 5);
  EXPECT_FALSE(d->from_high);
}

TEST(VlArbiter, UnlimitedHighStarvesLowWhileHighReady) {
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, 10};
  t.low()[0] = ArbTableEntry{5, 10};
  t.set_limit_of_high_priority(kUnlimitedHighPriority);
  VlArbiter arb(t);
  ReadyBytes ready{};
  ready[0] = 640;
  ready[5] = 640;
  for (int i = 0; i < 200; ++i) {
    const auto d = arb.arbitrate(ready);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->vl, 0) << "low VL must wait while high is ready";
  }
}

TEST(VlArbiter, BoundedLimitLetsLowThrough) {
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, 255};
  t.low()[0] = ArbTableEntry{5, 10};
  t.set_limit_of_high_priority(1);  // 4096 bytes of high per low packet
  VlArbiter arb(t);
  ReadyBytes ready{};
  ready[0] = 1024;
  ready[5] = 1024;
  int low_picks = 0;
  int high_picks = 0;
  for (int i = 0; i < 500; ++i) {
    const auto d = arb.arbitrate(ready);
    ASSERT_TRUE(d.has_value());
    (d->from_high ? high_picks : low_picks)++;
  }
  // Every ~4 high packets (4096/1024) one low packet must be let through.
  EXPECT_GT(low_picks, 80);
  EXPECT_GT(high_picks, low_picks);
}

TEST(VlArbiter, LimitMeterResetsWhenNoLowPending) {
  VlArbitrationTable t;
  t.high()[0] = ArbTableEntry{0, 255};
  t.set_limit_of_high_priority(1);
  VlArbiter arb(t);
  ReadyBytes ready{};
  ready[0] = 4096;
  for (int i = 0; i < 10; ++i) {
    const auto d = arb.arbitrate(ready);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->from_high);
  }
  EXPECT_EQ(arb.high_bytes_since_low(), 0u);
}

TEST(VlArbiter, InactiveEntriesAreSkipped) {
  VlArbitrationTable t;
  t.high()[10] = ArbTableEntry{3, 50};  // the only active entry, mid-table
  VlArbiter arb(t);
  ReadyBytes ready{};
  ready[3] = 200;
  const auto d = arb.arbitrate(ready);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->vl, 3);
}

TEST(VlArbiter, SetTableKeepsServingAfterReconfiguration) {
  VlArbiter arb(two_vl_table(10, 10));
  ReadyBytes ready{};
  ready[0] = 64;
  ASSERT_TRUE(arb.arbitrate(ready).has_value());

  VlArbitrationTable bigger;
  bigger.high()[0] = ArbTableEntry{0, 10};
  bigger.high()[1] = ArbTableEntry{1, 10};
  bigger.high()[2] = ArbTableEntry{2, 10};
  arb.set_table(bigger);
  ready[2] = 64;
  bool saw_vl2 = false;
  for (int i = 0; i < 10; ++i) {
    const auto d = arb.arbitrate(ready);
    ASSERT_TRUE(d.has_value());
    saw_vl2 |= d->vl == 2;
  }
  EXPECT_TRUE(saw_vl2);
}

TEST(VlArbiter, DistanceBoundsServiceInterval) {
  // A VL whose entries sit every 4 slots in an otherwise full table must be
  // served at least once per 4 entry activations: measure worst-case bytes
  // of other traffic between consecutive services.
  VlArbitrationTable t;
  for (unsigned i = 0; i < kArbTableEntries; ++i)
    t.high()[i] = ArbTableEntry{0, 255};  // background VL0 everywhere...
  for (unsigned i = 0; i < kArbTableEntries; i += 4)
    t.high()[i] = ArbTableEntry{1, 16};  // ...except VL1 every 4th slot
  VlArbiter arb(t);
  ReadyBytes ready{};
  ready[0] = 1024;
  ready[1] = 1024;
  std::uint64_t other_bytes = 0;
  std::uint64_t worst = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto d = arb.arbitrate(ready);
    ASSERT_TRUE(d.has_value());
    if (d->vl == 1) {
      worst = std::max(worst, other_bytes);
      other_bytes = 0;
    } else {
      other_bytes += ready[0];
    }
  }
  // Between VL1 services: at most 3 entries, each of up to 255 units plus
  // one whole-packet overdraft (packets are 1024 B = 16 units).
  EXPECT_LE(worst, 3u * (255u + 16u - 1u) * 64u);
  EXPECT_GT(worst, 0u);
}

}  // namespace
}  // namespace ibarb::iba
