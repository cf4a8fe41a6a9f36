// Fundamental InfiniBand Architecture (IBA 1.0) types and constants used
// throughout the library.
//
// Time convention: the simulator counts in *cycles*, where one cycle is the
// time to move one byte of data across a 1x link (2.5 Gbps signalling,
// 2.0 Gbps data after 8b/10b coding → 4 ns/byte). Faster links move more
// bytes per cycle (see link.hpp).
#pragma once

#include <cstdint>
#include <limits>

namespace ibarb::iba {

/// Service Level carried in the packet LRH. IBA defines 16 SLs and leaves
/// their meaning to the fabric administrator.
using ServiceLevel = std::uint8_t;
inline constexpr ServiceLevel kMaxServiceLevels = 16;

/// Virtual lane index. VL15 is reserved for subnet management and always has
/// priority over data VLs.
using VirtualLane = std::uint8_t;
inline constexpr VirtualLane kMaxVirtualLanes = 16;
inline constexpr VirtualLane kManagementVl = 15;
inline constexpr VirtualLane kInvalidVl = 0xFF;

/// Local IDentifier assigned by the subnet manager to every endport.
using Lid = std::uint16_t;
inline constexpr Lid kInvalidLid = 0;

/// Node (switch or host/channel-adapter) index inside a fabric model.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Port number within a node. Port 0 on switches is the management port; the
/// simulator's data ports are 1-based to match IBA conventions but stored
/// 0-based in dense arrays.
using PortIndex = std::uint8_t;

/// Simulation time in cycles (1 cycle = 1 byte-time on a 1x data link).
using Cycle = std::uint64_t;
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// Nanoseconds per cycle with the 1x data rate (2.0 Gbps → 0.25 GB/s).
inline constexpr double kNsPerCycle = 4.0;

/// 1x data bandwidth in Mbps (2.5 Gbps signalling × 8/10 coding).
inline constexpr double kBaseLinkMbps = 2000.0;

// --- Switch model (paper §4.1) ---

/// Routing/arbitration latency of one crossbar traversal, per hop. The
/// simulator charges it on every grant and the deadline arithmetic
/// (qos::per_hop_guarantee) budgets it, so both read this one value.
inline constexpr Cycle kCrossbarDelay = 8;

/// Internal speedup of the crossbar over the link rate. With backlog, the
/// output queues (not the fabric) become the contention point, so the
/// VLArbitrationTable governs the link as the architecture intends.
inline constexpr double kCrossbarSpeedup = 2.0;

// --- VL arbitration table constants (IBA 1.0 §7.6.9) ---

/// Each of the two priority tables has up to 64 {VL, weight} entries.
inline constexpr unsigned kArbTableEntries = 64;

/// Entry weights are 0..255 in units of 64 bytes.
inline constexpr unsigned kMaxEntryWeight = 255;
inline constexpr unsigned kWeightUnitBytes = 64;

/// LimitOfHighPriority counts units of 4096 bytes of high-priority data that
/// may be sent while a low-priority packet is pending; 255 means unlimited.
inline constexpr unsigned kHighPriorityLimitUnitBytes = 4096;
inline constexpr unsigned kUnlimitedHighPriority = 255;

/// Total weight capacity of a fully occupied 64-entry table. One "weight
/// round" of a full table moves kFullTableWeight × 64 bytes; bandwidth
/// reservations are expressed as a share of this.
inline constexpr unsigned kFullTableWeight = kArbTableEntries * kMaxEntryWeight;

}  // namespace ibarb::iba
