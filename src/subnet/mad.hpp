// Subnet Management Packets (IBA 1.0 §14): the 256-byte MADs a subnet
// manager exchanges with switches and channel adapters over VL15, here in
// their directed-route form (routing by explicit port lists, which is how a
// subnet is discovered before forwarding tables exist).
//
// The model keeps the real structure — method, attribute, hop pointer/count,
// initial path, 64-byte attribute payload — with simplified attribute
// encodings documented per attribute.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include <vector>

#include "iba/types.hpp"
#include "iba/vl_arbitration.hpp"
#include "network/graph.hpp"

namespace ibarb::subnet {

inline constexpr std::size_t kMadBytes = 256;
inline constexpr std::size_t kSmpPayloadBytes = 64;
inline constexpr std::size_t kMaxDrHops = 64;

enum class MadMethod : std::uint8_t {
  kGet = 0x01,
  kSet = 0x02,
  kGetResp = 0x81,
};

enum class SmpAttribute : std::uint16_t {
  kNodeInfo = 0x0011,
  kPortInfo = 0x0015,
  kSlToVlTable = 0x0017,
  kVlArbitrationTable = 0x0018,
  kLinearForwardingTable = 0x0019,
};

/// A directed-route SMP. `initial_path[1..hop_count]` are the egress ports
/// to take (entry 0 unused, as in the spec); `hop_pointer` advances as the
/// packet walks the fabric.
struct DrSmp {
  MadMethod method = MadMethod::kGet;
  SmpAttribute attribute = SmpAttribute::kNodeInfo;
  std::uint32_t attribute_modifier = 0;
  std::uint64_t transaction_id = 0;
  std::uint8_t hop_count = 0;
  std::uint8_t hop_pointer = 0;
  std::array<std::uint8_t, kMaxDrHops> initial_path{};
  std::array<std::uint8_t, kSmpPayloadBytes> payload{};

  friend bool operator==(const DrSmp&, const DrSmp&) = default;
};

/// Wire encode/decode (fixed 256-byte MAD; reserved space zero-filled).
std::array<std::uint8_t, kMadBytes> encode(const DrSmp& smp);
std::optional<DrSmp> decode_smp(std::span<const std::uint8_t> bytes);

/// NodeInfo attribute payload (simplified encoding: kind, port count,
/// node guid = graph node id).
struct NodeInfo {
  bool is_switch = false;
  std::uint8_t ports = 0;
  std::uint32_t node_guid = 0;
};
void write_node_info(const NodeInfo& info,
                     std::span<std::uint8_t, kSmpPayloadBytes> payload);
NodeInfo read_node_info(std::span<const std::uint8_t, kSmpPayloadBytes> payload);

// --- Attribute codecs ------------------------------------------------------
//
// LinearForwardingTable: each SMP block carries 64 bytes = the egress ports
// of 64 consecutive LIDs; attribute_modifier selects the block, exactly as
// in IBA §14.2.5.6.
inline constexpr std::size_t kLftLidsPerBlock = 64;

void write_lft_block(std::span<const iba::PortIndex> ports_for_block,
                     std::span<std::uint8_t, kSmpPayloadBytes> payload);
std::array<iba::PortIndex, kLftLidsPerBlock> read_lft_block(
    std::span<const std::uint8_t, kSmpPayloadBytes> payload);

// VLArbitrationTable: 32 {VL, weight} entry pairs per block (64 bytes);
// attribute_modifier 1/2 = low-priority lower/upper halves, 3/4 = high
// (IBA §14.2.5.9's block numbering).
inline constexpr std::size_t kVlArbEntriesPerBlock = 32;

void write_vlarb_block(const iba::ArbTable& table, unsigned half,
                       std::span<std::uint8_t, kSmpPayloadBytes> payload);
void read_vlarb_block(std::span<const std::uint8_t, kSmpPayloadBytes> payload,
                      unsigned half, iba::ArbTable& table);

/// All four Set(VLArbitrationTable) SMPs needed to program one port.
std::vector<DrSmp> vlarb_program_smps(const iba::VlArbitrationTable& table);

/// Reassembles a VLArbitrationTable from its four programming SMPs (any
/// order); returns std::nullopt if blocks are missing or malformed, or if
/// any entry's VL byte sets its reserved upper nibble.
std::optional<iba::VlArbitrationTable> vlarb_from_smps(
    std::span<const DrSmp> smps);

/// Walks a directed-route SMP from `origin` over the fabric, advancing the
/// hop pointer exactly as a compliant SMA would, and returns the node the
/// request reaches (std::nullopt if the path names an unwired port). The
/// reached node "answers" Get(NodeInfo) by filling the payload.
class DirectedRouteWalker {
 public:
  explicit DirectedRouteWalker(const network::FabricGraph& graph)
      : graph_(graph) {}

  /// Delivers the SMP; on success returns the responding node and, for
  /// Get(NodeInfo), rewrites smp into the GetResp with the payload filled.
  std::optional<iba::NodeId> deliver(iba::NodeId origin, DrSmp& smp) const;

  std::uint64_t smps_delivered() const noexcept { return delivered_; }
  std::uint64_t hops_walked() const noexcept { return hops_; }

 private:
  const network::FabricGraph& graph_;
  mutable std::uint64_t delivered_ = 0;
  mutable std::uint64_t hops_ = 0;
};

}  // namespace ibarb::subnet
