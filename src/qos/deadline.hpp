// Deadline ↔ table-distance arithmetic (paper §3.2).
//
// A sequence whose entries sit at most `d` slots apart is served at least
// once per `d` consecutive table entries. Each entry can carry up to
// 255 × 64 bytes — plus one whole-packet overdraft, since IBA always rounds
// the last grant up to a full packet — so the worst-case service interval of
// the sequence (the per-switch latency the table guarantees) is
// d × (16320 + max_packet_wire − 64) bytes of link time. The end-to-end
// guarantee multiplies by the number of arbitration stages crossed and adds
// the per-hop forwarding costs (store-and-forward serialization, crossbar,
// propagation).
#pragma once

#include <cstdint>

#include "iba/types.hpp"

namespace ibarb::qos {

/// Wire size of the largest packet the paper's evaluation uses (4 KB MTU).
inline constexpr std::uint32_t kDefaultMaxWireBytes = 4096 + 26;

/// Pure arbitration quantum: cycles (1x link) for `distance` table entries
/// at full weight, ignoring packet-granularity overdraft.
constexpr iba::Cycle per_switch_deadline(unsigned distance) noexcept {
  return static_cast<iba::Cycle>(distance) * iba::kMaxEntryWeight *
         iba::kWeightUnitBytes;
}

/// Sound per-hop guarantee: arbitration interval with per-entry whole-packet
/// overdraft, plus the hop's forwarding costs (the crossbar traversal is the
/// simulator's own iba::kCrossbarDelay).
constexpr iba::Cycle per_hop_guarantee(
    unsigned distance, std::uint32_t max_wire_bytes = kDefaultMaxWireBytes,
    iba::Cycle propagation = 2) noexcept {
  const iba::Cycle per_entry =
      iba::kMaxEntryWeight * iba::kWeightUnitBytes +
      (max_wire_bytes > iba::kWeightUnitBytes
           ? max_wire_bytes - iba::kWeightUnitBytes
           : 0);
  return static_cast<iba::Cycle>(distance) * per_entry +
         2 * static_cast<iba::Cycle>(max_wire_bytes) + iba::kCrossbarDelay +
         propagation;
}

/// End-to-end deadline across `stages` arbitration stages (path port count:
/// the source host interface counts as one stage, each switch as one) using
/// the pure arbitration quantum.
constexpr iba::Cycle end_to_end_deadline(unsigned distance,
                                         unsigned stages) noexcept {
  return per_switch_deadline(distance) * stages;
}

/// End-to-end guarantee with the sound per-hop bound.
constexpr iba::Cycle end_to_end_guarantee(
    unsigned distance, unsigned stages,
    std::uint32_t max_wire_bytes = kDefaultMaxWireBytes) noexcept {
  return per_hop_guarantee(distance, max_wire_bytes) * stages;
}

/// Largest admissible distance (power of two, 2..64) whose per-switch
/// guarantee meets `deadline` cycles. Returns 0 when even distance 2 cannot
/// (the request is infeasible; distance 1 is excluded per §3.1).
unsigned distance_for_deadline(iba::Cycle deadline_per_switch) noexcept;

/// Same, from an end-to-end deadline and a stage count.
unsigned distance_for_e2e_deadline(iba::Cycle deadline, unsigned stages) noexcept;

}  // namespace ibarb::qos
