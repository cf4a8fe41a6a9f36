#include "arbtable/bit_reversal.hpp"

#include <gtest/gtest.h>

#include <set>

namespace ibarb::arbtable {
namespace {

TEST(BitReversal, PaperExampleDistance8) {
  // §3.3: for d = 8 the inspection order is 0, 4, 2, 6, 1, 5, 3, 7.
  const unsigned expected[] = {0, 4, 2, 6, 1, 5, 3, 7};
  for (unsigned j = 0; j < 8; ++j) EXPECT_EQ(reverse_bits(j, 3), expected[j]);
}

TEST(BitReversal, ZeroBitsIsIdentityOnZero) {
  EXPECT_EQ(reverse_bits(0, 0), 0u);
}

TEST(BitReversal, SingleBit) {
  EXPECT_EQ(reverse_bits(0, 1), 0u);
  EXPECT_EQ(reverse_bits(1, 1), 1u);
}

TEST(BitReversal, SlotOrderReversalMovesEachBitToItsRev6) {
  for (unsigned p = 0; p < 64; ++p) {
    EXPECT_EQ(kReverse6[p], reverse_bits(p, 6));
    EXPECT_EQ(reverse_slot_order(std::uint64_t{1} << p),
              std::uint64_t{1} << reverse_bits(p, 6))
        << "slot " << p;
  }
  const std::uint64_t mixed = 0x9E3779B97F4A7C15ull;
  EXPECT_EQ(reverse_slot_order(reverse_slot_order(mixed)), mixed);
}

TEST(BitReversal, IsAnInvolution) {
  for (unsigned bits = 1; bits <= 6; ++bits)
    for (unsigned v = 0; v < (1u << bits); ++v)
      EXPECT_EQ(reverse_bits(reverse_bits(v, bits), bits), v);
}

TEST(BitReversal, IsAPermutation) {
  for (unsigned bits = 1; bits <= 6; ++bits) {
    std::set<unsigned> seen;
    for (unsigned v = 0; v < (1u << bits); ++v)
      seen.insert(reverse_bits(v, bits));
    EXPECT_EQ(seen.size(), 1u << bits);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), (1u << bits) - 1);
  }
}

TEST(BitReversal, EvenOffsetsComeFirst) {
  // The first half of the bit-reversal order must be the even offsets —
  // this is what preserves distance-2 capability (§3.3).
  for (unsigned bits = 2; bits <= 6; ++bits) {
    const unsigned d = 1u << bits;
    for (unsigned j = 0; j < d / 2; ++j)
      EXPECT_EQ(reverse_bits(j, bits) % 2, 0u)
          << "offset order position " << j << " at distance " << d;
  }
}

TEST(Pow2Helpers, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(63));
}

TEST(Pow2Helpers, Log2) {
  EXPECT_EQ(log2_pow2(1), 0u);
  EXPECT_EQ(log2_pow2(2), 1u);
  EXPECT_EQ(log2_pow2(64), 6u);
}

TEST(Pow2Helpers, FloorPow2) {
  EXPECT_EQ(floor_pow2(1), 1u);
  EXPECT_EQ(floor_pow2(2), 2u);
  EXPECT_EQ(floor_pow2(3), 2u);
  EXPECT_EQ(floor_pow2(63), 32u);
  EXPECT_EQ(floor_pow2(64), 64u);
  EXPECT_EQ(floor_pow2(100), 64u);
}

TEST(Pow2Helpers, CeilPow2) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(33), 64u);
  EXPECT_EQ(ceil_pow2(64), 64u);
}

}  // namespace
}  // namespace ibarb::arbtable
