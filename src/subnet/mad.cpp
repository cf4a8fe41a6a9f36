#include "subnet/mad.hpp"

#include <cstring>

namespace ibarb::subnet {

namespace {

// Byte layout inside the 256-byte MAD (a compact but faithful subset of the
// common MAD header + DR fields):
//   [0]   base version (1)
//   [1]   mgmt class (0x81 = directed-route SM)
//   [2]   class version (1)
//   [3]   method
//   [4,5] status (0)
//   [6]   hop pointer
//   [7]   hop count
//   [8..15]  transaction id (big endian)
//   [16,17]  attribute id (big endian)
//   [20..23] attribute modifier (big endian)
//   [64..127]  attribute payload (64 B)
//   [128..191] initial path (64 B)
constexpr std::uint8_t kBaseVersion = 1;
constexpr std::uint8_t kDrSmClass = 0x81;
constexpr std::uint8_t kClassVersion = 1;

}  // namespace

std::array<std::uint8_t, kMadBytes> encode(const DrSmp& smp) {
  std::array<std::uint8_t, kMadBytes> out{};
  out[0] = kBaseVersion;
  out[1] = kDrSmClass;
  out[2] = kClassVersion;
  out[3] = static_cast<std::uint8_t>(smp.method);
  out[6] = smp.hop_pointer;
  out[7] = smp.hop_count;
  for (int i = 0; i < 8; ++i)
    out[8 + i] = static_cast<std::uint8_t>(smp.transaction_id >> (56 - 8 * i));
  const auto attr = static_cast<std::uint16_t>(smp.attribute);
  out[16] = static_cast<std::uint8_t>(attr >> 8);
  out[17] = static_cast<std::uint8_t>(attr);
  for (int i = 0; i < 4; ++i)
    out[20 + i] =
        static_cast<std::uint8_t>(smp.attribute_modifier >> (24 - 8 * i));
  std::memcpy(&out[64], smp.payload.data(), kSmpPayloadBytes);
  std::memcpy(&out[128], smp.initial_path.data(), kMaxDrHops);
  return out;
}

std::optional<DrSmp> decode_smp(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kMadBytes) return std::nullopt;
  if (bytes[0] != kBaseVersion || bytes[1] != kDrSmClass ||
      bytes[2] != kClassVersion)
    return std::nullopt;
  DrSmp smp;
  switch (bytes[3]) {
    case 0x01: smp.method = MadMethod::kGet; break;
    case 0x02: smp.method = MadMethod::kSet; break;
    case 0x81: smp.method = MadMethod::kGetResp; break;
    default: return std::nullopt;
  }
  if (bytes[4] != 0 || bytes[5] != 0) return std::nullopt;  // status
  smp.hop_pointer = bytes[6];
  smp.hop_count = bytes[7];
  if (smp.hop_count >= kMaxDrHops) return std::nullopt;
  for (int i = 0; i < 8; ++i)
    smp.transaction_id = (smp.transaction_id << 8) | bytes[8 + i];
  const auto attr = static_cast<std::uint16_t>((bytes[16] << 8) | bytes[17]);
  switch (attr) {
    case 0x0011: smp.attribute = SmpAttribute::kNodeInfo; break;
    case 0x0015: smp.attribute = SmpAttribute::kPortInfo; break;
    case 0x0017: smp.attribute = SmpAttribute::kSlToVlTable; break;
    case 0x0018: smp.attribute = SmpAttribute::kVlArbitrationTable; break;
    case 0x0019: smp.attribute = SmpAttribute::kLinearForwardingTable; break;
    default: return std::nullopt;
  }
  for (int i = 0; i < 4; ++i)
    smp.attribute_modifier = (smp.attribute_modifier << 8) | bytes[20 + i];
  std::memcpy(smp.payload.data(), &bytes[64], kSmpPayloadBytes);
  std::memcpy(smp.initial_path.data(), &bytes[128], kMaxDrHops);
  return smp;
}

void write_node_info(const NodeInfo& info,
                     std::span<std::uint8_t, kSmpPayloadBytes> payload) {
  payload[0] = info.is_switch ? 2 : 1;  // IBA NodeType: 1 = CA, 2 = switch
  payload[1] = info.ports;
  for (int i = 0; i < 4; ++i)
    payload[2 + i] = static_cast<std::uint8_t>(info.node_guid >> (24 - 8 * i));
}

NodeInfo read_node_info(
    std::span<const std::uint8_t, kSmpPayloadBytes> payload) {
  NodeInfo info;
  info.is_switch = payload[0] == 2;
  info.ports = payload[1];
  for (int i = 0; i < 4; ++i)
    info.node_guid = (info.node_guid << 8) | payload[2 + i];
  return info;
}

std::optional<iba::NodeId> DirectedRouteWalker::deliver(iba::NodeId origin,
                                                        DrSmp& smp) const {
  iba::NodeId at = origin;
  // Spec semantics: hop_pointer runs 1..hop_count; initial_path[k] is the
  // egress port taken at the k-th device.
  for (smp.hop_pointer = 1; smp.hop_pointer <= smp.hop_count;
       ++smp.hop_pointer) {
    const auto port = smp.initial_path[smp.hop_pointer];
    if (port >= graph_.port_count(at)) return std::nullopt;
    const auto peer = graph_.peer(at, static_cast<iba::PortIndex>(port));
    if (!peer) return std::nullopt;
    at = peer->node;
    ++hops_;
  }
  ++delivered_;

  if (smp.method == MadMethod::kGet &&
      smp.attribute == SmpAttribute::kNodeInfo) {
    NodeInfo info;
    info.is_switch = graph_.is_switch(at);
    info.ports = static_cast<std::uint8_t>(graph_.port_count(at));
    info.node_guid = at;
    write_node_info(info, std::span<std::uint8_t, kSmpPayloadBytes>(
                              smp.payload.data(), kSmpPayloadBytes));
    smp.method = MadMethod::kGetResp;
  }
  return at;
}

}  // namespace ibarb::subnet

namespace ibarb::subnet {

void write_lft_block(std::span<const iba::PortIndex> ports_for_block,
                     std::span<std::uint8_t, kSmpPayloadBytes> payload) {
  for (std::size_t i = 0; i < kLftLidsPerBlock; ++i)
    payload[i] = i < ports_for_block.size() ? ports_for_block[i] : 0xFF;
}

std::array<iba::PortIndex, kLftLidsPerBlock> read_lft_block(
    std::span<const std::uint8_t, kSmpPayloadBytes> payload) {
  std::array<iba::PortIndex, kLftLidsPerBlock> out{};
  for (std::size_t i = 0; i < kLftLidsPerBlock; ++i)
    out[i] = payload[i];
  return out;
}

void write_vlarb_block(const iba::ArbTable& table, unsigned half,
                       std::span<std::uint8_t, kSmpPayloadBytes> payload) {
  const std::size_t base = half == 0 ? 0 : kVlArbEntriesPerBlock;
  for (std::size_t i = 0; i < kVlArbEntriesPerBlock; ++i) {
    payload[2 * i] = table[base + i].vl;
    payload[2 * i + 1] = table[base + i].weight;
  }
}

void read_vlarb_block(std::span<const std::uint8_t, kSmpPayloadBytes> payload,
                      unsigned half, iba::ArbTable& table) {
  const std::size_t base = half == 0 ? 0 : kVlArbEntriesPerBlock;
  for (std::size_t i = 0; i < kVlArbEntriesPerBlock; ++i) {
    table[base + i].vl = payload[2 * i];
    table[base + i].weight = payload[2 * i + 1];
  }
}

std::vector<DrSmp> vlarb_program_smps(const iba::VlArbitrationTable& table) {
  std::vector<DrSmp> out;
  for (unsigned block = 1; block <= 4; ++block) {
    DrSmp smp;
    smp.method = MadMethod::kSet;
    smp.attribute = SmpAttribute::kVlArbitrationTable;
    smp.attribute_modifier = block;
    const bool high = block >= 3;
    const unsigned half = (block - 1) % 2;
    write_vlarb_block(high ? table.high() : table.low(), half,
                      std::span<std::uint8_t, kSmpPayloadBytes>(
                          smp.payload.data(), kSmpPayloadBytes));
    out.push_back(smp);
  }
  return out;
}

std::optional<iba::VlArbitrationTable> vlarb_from_smps(
    std::span<const DrSmp> smps) {
  iba::VlArbitrationTable table;
  bool seen[5] = {};
  for (const auto& smp : smps) {
    if (smp.attribute != SmpAttribute::kVlArbitrationTable)
      return std::nullopt;
    if (smp.attribute_modifier < 1 || smp.attribute_modifier > 4)
      return std::nullopt;
    const bool high = smp.attribute_modifier >= 3;
    const unsigned half = (smp.attribute_modifier - 1) % 2;
    // The VL byte's upper nibble is reserved: 0x21 is not VL 33.
    for (std::size_t i = 0; i < kVlArbEntriesPerBlock; ++i)
      if (smp.payload[2 * i] >= iba::kMaxVirtualLanes) return std::nullopt;
    read_vlarb_block(std::span<const std::uint8_t, kSmpPayloadBytes>(
                         smp.payload.data(), kSmpPayloadBytes),
                     half, high ? table.high() : table.low());
    seen[smp.attribute_modifier] = true;
  }
  for (int b = 1; b <= 4; ++b)
    if (!seen[b]) return std::nullopt;
  return table;
}

}  // namespace ibarb::subnet
