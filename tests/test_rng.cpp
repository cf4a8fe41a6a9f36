#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>

namespace ibarb::util {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, Deterministic) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, ReseedRestartsSequence) {
  Xoshiro256 a(42);
  const auto first = a.next();
  a.next();
  a.reseed(42);
  EXPECT_EQ(a.next(), first);
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Xoshiro256, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256, BelowIsRoughlyUniform) {
  Xoshiro256 rng(11);
  std::array<int, 8> counts{};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(8)];
  for (const int c : counts) {
    EXPECT_GT(c, kDraws / 8 - 600);
    EXPECT_LT(c, kDraws / 8 + 600);
  }
}

TEST(Xoshiro256, BetweenInclusiveBounds) {
  Xoshiro256 rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Xoshiro256, UniformRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 7.0);
    ASSERT_GE(u, 3.0);
    ASSERT_LT(u, 7.0);
  }
}

TEST(Xoshiro256, ExponentialHasRequestedMean) {
  Xoshiro256 rng(17);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(25.0);
  EXPECT_NEAR(sum / kDraws, 25.0, 0.5);
}

TEST(Xoshiro256, ExponentialIsNonNegative) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Xoshiro256, ChanceExtremes) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Xoshiro256, SplitProducesIndependentStream) {
  Xoshiro256 parent(29);
  Xoshiro256 child = parent.split();
  // The two streams should not be identical.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next() == child.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256>);
  SUCCEED();
}

}  // namespace
}  // namespace ibarb::util
