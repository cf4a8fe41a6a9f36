#include "subnet/mad.hpp"

#include <gtest/gtest.h>

#include "network/topology.hpp"

namespace ibarb::subnet {
namespace {

DrSmp sample_smp() {
  DrSmp smp;
  smp.method = MadMethod::kGet;
  smp.attribute = SmpAttribute::kNodeInfo;
  smp.attribute_modifier = 0xDEADBEEF;
  smp.transaction_id = 0x0123456789ABCDEFull;
  smp.hop_count = 3;
  smp.initial_path[1] = 4;
  smp.initial_path[2] = 1;
  smp.initial_path[3] = 7;
  smp.payload[0] = 0x55;
  return smp;
}

TEST(Mad, EncodeIsFixedSize) {
  EXPECT_EQ(encode(sample_smp()).size(), kMadBytes);
}

TEST(Mad, RoundTrip) {
  const auto smp = sample_smp();
  const auto decoded = decode_smp(encode(smp));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, smp);
}

TEST(Mad, RejectsWrongClassOrVersion) {
  auto bytes = encode(sample_smp());
  bytes[1] = 0x01;  // not the directed-route SM class
  EXPECT_FALSE(decode_smp(bytes).has_value());
  auto bytes2 = encode(sample_smp());
  bytes2[0] = 9;  // base version
  EXPECT_FALSE(decode_smp(bytes2).has_value());
}

TEST(Mad, RejectsWrongSize) {
  const std::vector<std::uint8_t> small(100);
  EXPECT_FALSE(decode_smp(small).has_value());
}

TEST(Mad, RejectsUnknownMethodOrAttribute) {
  auto bytes = encode(sample_smp());
  bytes[3] = 0x55;
  EXPECT_FALSE(decode_smp(bytes).has_value());
  auto bytes2 = encode(sample_smp());
  bytes2[16] = 0x77;
  EXPECT_FALSE(decode_smp(bytes2).has_value());
}

TEST(NodeInfoPayload, RoundTrip) {
  NodeInfo info;
  info.is_switch = true;
  info.ports = 8;
  info.node_guid = 0xCAFE;
  std::array<std::uint8_t, kSmpPayloadBytes> buf{};
  write_node_info(info, buf);
  const auto back = read_node_info(buf);
  EXPECT_EQ(back.is_switch, info.is_switch);
  EXPECT_EQ(back.ports, info.ports);
  EXPECT_EQ(back.node_guid, info.node_guid);
}

TEST(DirectedRouteWalker, ZeroHopsReachesOrigin) {
  const auto g = network::gen::line(3, 1);
  DirectedRouteWalker walker(g);
  DrSmp smp;
  smp.hop_count = 0;
  const auto reached = walker.deliver(0, smp);
  ASSERT_TRUE(reached.has_value());
  EXPECT_EQ(*reached, 0u);
  EXPECT_EQ(smp.method, MadMethod::kGetResp);
  const auto info = read_node_info(
      std::span<const std::uint8_t, kSmpPayloadBytes>(smp.payload.data(),
                                                      kSmpPayloadBytes));
  EXPECT_TRUE(info.is_switch);
}

TEST(DirectedRouteWalker, WalksMultiHopPath) {
  const auto g = network::gen::line(3, 1);  // sw0 -p1-> sw1 -p1-> sw2
  DirectedRouteWalker walker(g);
  DrSmp smp;
  smp.hop_count = 2;
  smp.initial_path[1] = 1;
  smp.initial_path[2] = 1;
  const auto reached = walker.deliver(0, smp);
  ASSERT_TRUE(reached.has_value());
  EXPECT_EQ(*reached, 2u);
  EXPECT_EQ(walker.hops_walked(), 2u);
}

TEST(DirectedRouteWalker, UnwiredPortTimesOut) {
  const auto g = network::gen::single_switch(2, 8);  // ports 2..7 unwired
  DirectedRouteWalker walker(g);
  DrSmp smp;
  smp.hop_count = 1;
  smp.initial_path[1] = 6;
  EXPECT_FALSE(walker.deliver(0, smp).has_value());
}

TEST(DirectedRouteWalker, OutOfRangePortTimesOut) {
  const auto g = network::gen::single_switch(2, 4);
  DirectedRouteWalker walker(g);
  DrSmp smp;
  smp.hop_count = 1;
  smp.initial_path[1] = 99;
  EXPECT_FALSE(walker.deliver(0, smp).has_value());
}

}  // namespace
}  // namespace ibarb::subnet

namespace ibarb::subnet {
namespace {

TEST(LftCodec, RoundTripsBlock) {
  std::array<iba::PortIndex, kLftLidsPerBlock> ports{};
  for (std::size_t i = 0; i < ports.size(); ++i)
    ports[i] = static_cast<iba::PortIndex>(i % 8);
  std::array<std::uint8_t, kSmpPayloadBytes> payload{};
  write_lft_block(ports, payload);
  const auto back = read_lft_block(payload);
  EXPECT_EQ(back, ports);
}

TEST(LftCodec, ShortBlockPadsWithInvalid) {
  const iba::PortIndex three[] = {1, 2, 3};
  std::array<std::uint8_t, kSmpPayloadBytes> payload{};
  write_lft_block(three, payload);
  const auto back = read_lft_block(payload);
  EXPECT_EQ(back[0], 1);
  EXPECT_EQ(back[2], 3);
  EXPECT_EQ(back[3], 0xFF);
  EXPECT_EQ(back[63], 0xFF);
}

TEST(VlArbCodec, FourSmpsRoundTripWholeTable) {
  iba::VlArbitrationTable table;
  for (unsigned i = 0; i < iba::kArbTableEntries; ++i) {
    table.high()[i] = iba::ArbTableEntry{
        static_cast<iba::VirtualLane>(i % 10),
        static_cast<std::uint8_t>(i * 3 % 256)};
    table.low()[i] = iba::ArbTableEntry{
        static_cast<iba::VirtualLane>(i % 5),
        static_cast<std::uint8_t>(255 - i % 200)};
  }
  auto smps = vlarb_program_smps(table);
  ASSERT_EQ(smps.size(), 4u);
  // Wire round trip for each block.
  for (auto& smp : smps) {
    const auto parsed = decode_smp(encode(smp));
    ASSERT_TRUE(parsed.has_value());
    smp = *parsed;
  }
  // Reassemble in a shuffled order.
  std::swap(smps[0], smps[3]);
  std::swap(smps[1], smps[2]);
  const auto back = vlarb_from_smps(smps);
  ASSERT_TRUE(back.has_value());
  for (unsigned i = 0; i < iba::kArbTableEntries; ++i) {
    EXPECT_EQ(back->high()[i], table.high()[i]);
    EXPECT_EQ(back->low()[i], table.low()[i]);
  }
}

TEST(VlArbCodec, MissingBlockRejected) {
  auto smps = vlarb_program_smps(iba::VlArbitrationTable{});
  smps.pop_back();
  EXPECT_FALSE(vlarb_from_smps(smps).has_value());
}

TEST(VlArbCodec, WrongAttributeRejected) {
  auto smps = vlarb_program_smps(iba::VlArbitrationTable{});
  smps[1].attribute = SmpAttribute::kNodeInfo;
  EXPECT_FALSE(vlarb_from_smps(smps).has_value());
}

TEST(VlArbCodec, ReservedVlNibbleRejected) {
  // VL bytes 0..15 decode; a set upper nibble (reserved) does not, whatever
  // the entry's weight, so 0x21 never becomes VL 33.
  iba::VlArbitrationTable table;
  table.low()[5] = iba::ArbTableEntry{15, 0};
  auto smps = vlarb_program_smps(table);
  ASSERT_TRUE(vlarb_from_smps(smps).has_value());
  for (const std::uint8_t vl : {0x10, 0x21, 0xF0}) {
    for (const unsigned block : {0u, 3u}) {
      auto bad = smps;
      bad[block].payload[2 * 7] = vl;
      EXPECT_FALSE(vlarb_from_smps(bad).has_value())
          << "VL byte " << unsigned{vl} << " in block " << block + 1;
    }
  }
}

}  // namespace
}  // namespace ibarb::subnet
