#include "iba/crc.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace ibarb::iba {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, KnownVectors) {
  // The classic CRC-32 check value.
  EXPECT_EQ(icrc(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(icrc(bytes_of("")), 0x00000000u);
  EXPECT_EQ(icrc(bytes_of("a")), 0xE8B7BE43u);
}

TEST(Crc, SingleBitFlipChangesBoth) {
  auto data = bytes_of("The quick brown fox jumps over the lazy dog");
  const auto c32 = icrc(data);
  for (std::size_t i = 0; i < data.size(); i += 7) {
    auto copy = data;
    copy[i] ^= 0x10;
    EXPECT_NE(icrc(copy), c32);
  }
}

TEST(Crc, Deterministic) {
  const auto data = bytes_of("abcdef");
  EXPECT_EQ(icrc(data), icrc(data));
}

TEST(Crc, ConstexprUsable) {
  static constexpr std::uint8_t kData[] = {1, 2, 3};
  constexpr auto c = icrc(kData);
  static_assert(c != 0);
  SUCCEED();
}

}  // namespace
}  // namespace ibarb::iba
