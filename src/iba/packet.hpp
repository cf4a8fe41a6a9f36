// Packet and message model, including MTU segmentation and wire overhead.
//
// IBA segments messages into packets whose data payload is bounded by the
// path MTU (256 B, 1 KB, 2 KB or 4 KB). Each packet additionally carries the
// local route header (LRH, 8 B), base transport header (BTH, 12 B), the
// invariant and variant CRCs (4 B + 2 B), giving 26 B of overhead per packet.
#pragma once

#include <cstdint>
#include <vector>

#include "iba/types.hpp"

namespace ibarb::iba {

/// Path MTU values permitted by the specification.
enum class Mtu : std::uint16_t {
  kMtu256 = 256,
  kMtu1024 = 1024,
  kMtu2048 = 2048,
  kMtu4096 = 4096,
};

inline constexpr std::uint32_t mtu_bytes(Mtu mtu) {
  return static_cast<std::uint32_t>(mtu);
}

/// Per-packet header + CRC overhead: LRH(8) + BTH(12) + ICRC(4) + VCRC(2).
inline constexpr std::uint32_t kPacketOverheadBytes = 26;

/// Identifier of an established connection (see qos/connection.hpp).
using ConnectionId = std::uint32_t;
inline constexpr ConnectionId kInvalidConnection = 0xFFFFFFFF;

/// A single IBA data packet as tracked by the simulator. The simulator is a
/// flit-free, packet-granularity model: only sizes and identities matter.
struct Packet {
  std::uint64_t id = 0;             ///< Globally unique, for tracing.
  ConnectionId connection = kInvalidConnection;
  ServiceLevel sl = 0;
  Lid destination = kInvalidLid;
  std::uint32_t payload_bytes = 0;  ///< Transport payload carried.
  std::uint32_t sequence = 0;       ///< Packet index within its connection.
  Cycle injected_at = 0;            ///< When the source generated it.
  bool management = false;          ///< True for VL15 subnet-management MADs.
  /// RC transport opcode when this packet belongs to a reliable connection
  /// driven over the fabric (faults/rc_session): 0 = plain data stream
  /// (no transport), 1 = RC data (PSN in `sequence`), 2 = ACK, 3 = NAK.
  std::uint8_t rc_op = 0;
  bool rc_last = false;             ///< RC data: last packet of its message.
  /// The end-to-end guarantee contracted when this packet was injected
  /// (0 = none). Deadline misses are judged against this, not against the
  /// connection's current deadline: a fault-recovery reroute may tighten
  /// the contract while packets sent under the old one are still in flight.
  Cycle deadline = 0;

  /// Bytes occupying the wire (payload plus per-packet overhead).
  std::uint32_t wire_bytes() const noexcept {
    return payload_bytes + kPacketOverheadBytes;
  }

  /// Weight units (64 B) consumed from an arbitration entry, rounded up as a
  /// whole packet per IBA §7.6.9.
  std::uint32_t weight_units() const noexcept {
    return (wire_bytes() + kWeightUnitBytes - 1) / kWeightUnitBytes;
  }
};

/// Splits a message of `message_bytes` into packet payload sizes under `mtu`.
/// The last packet carries the remainder; a zero-byte message still produces
/// one (header-only) packet, as IBA sends at least one packet per message.
std::vector<std::uint32_t> segment_message(std::uint32_t message_bytes,
                                           Mtu mtu);

/// Efficiency of a given MTU: payload / wire bytes for MTU-sized packets.
double mtu_efficiency(Mtu mtu);

}  // namespace ibarb::iba
