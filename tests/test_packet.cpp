#include "iba/packet.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace ibarb::iba {
namespace {

TEST(Packet, WireBytesAddsOverhead) {
  Packet p;
  p.payload_bytes = 256;
  EXPECT_EQ(p.wire_bytes(), 256u + kPacketOverheadBytes);
}

TEST(Packet, WeightUnitsRoundUpWholePacket) {
  Packet p;
  p.payload_bytes = 256;  // wire = 282 -> ceil(282/64) = 5 units
  EXPECT_EQ(p.weight_units(), 5u);
  p.payload_bytes = 38;  // wire = 64 exactly -> 1 unit
  EXPECT_EQ(p.weight_units(), 1u);
  p.payload_bytes = 39;  // wire = 65 -> 2 units
  EXPECT_EQ(p.weight_units(), 2u);
}

TEST(Segmentation, ExactMultiple) {
  const auto sizes = segment_message(512, Mtu::kMtu256);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 256u);
  EXPECT_EQ(sizes[1], 256u);
}

TEST(Segmentation, RemainderInLastPacket) {
  const auto sizes = segment_message(600, Mtu::kMtu256);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[2], 88u);
}

TEST(Segmentation, SmallMessageSinglePacket) {
  const auto sizes = segment_message(10, Mtu::kMtu4096);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 10u);
}

TEST(Segmentation, ZeroByteMessageStillSendsOnePacket) {
  const auto sizes = segment_message(0, Mtu::kMtu256);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 0u);
}

TEST(Segmentation, PayloadConserved) {
  for (const auto mtu : {Mtu::kMtu256, Mtu::kMtu1024, Mtu::kMtu2048,
                         Mtu::kMtu4096}) {
    for (const std::uint32_t bytes : {1u, 255u, 4096u, 10000u, 65536u}) {
      const auto sizes = segment_message(bytes, mtu);
      const auto sum = std::accumulate(sizes.begin(), sizes.end(), 0u);
      EXPECT_EQ(sum, bytes);
      for (const auto s : sizes) EXPECT_LE(s, mtu_bytes(mtu));
    }
  }
}

TEST(MtuEfficiency, LargerMtuIsMoreEfficient) {
  EXPECT_LT(mtu_efficiency(Mtu::kMtu256), mtu_efficiency(Mtu::kMtu1024));
  EXPECT_LT(mtu_efficiency(Mtu::kMtu1024), mtu_efficiency(Mtu::kMtu4096));
  EXPECT_NEAR(mtu_efficiency(Mtu::kMtu256), 256.0 / 282.0, 1e-12);
}

}  // namespace
}  // namespace ibarb::iba
