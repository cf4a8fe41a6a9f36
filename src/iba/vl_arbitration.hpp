// VLArbitrationTable (IBA 1.0 §7.6.9): the per-output-port structure holding
// the high-priority and low-priority weighted-round-robin tables and the
// LimitOfHighPriority value.
//
// This header defines only the *data structure*; the arbiter that executes it
// lives in iba/arbiter.hpp and the algorithms that decide its contents (the
// paper's contribution) live under src/arbtable/.
//
// The table is plain data, as the subnet manager writes it: entries are
// written through high()[p] / low()[p], and the aggregate queries (per-VL
// weight sums, totals, active-entry counts, per-VL activity masks) each scan
// the 64 entries they summarise.
#pragma once

#include <array>
#include <cstdint>

#include "iba/types.hpp"

namespace ibarb::iba {

/// One {VL, weight} pair. weight is in units of 64 bytes; a zero weight makes
/// the entry inactive (skipped by the arbiter) — that is also how the fill
/// algorithm encodes a *free* entry.
struct ArbTableEntry {
  VirtualLane vl = 0;
  std::uint8_t weight = 0;

  bool active() const noexcept { return weight != 0; }
  friend bool operator==(const ArbTableEntry&, const ArbTableEntry&) = default;
};

/// Fixed 64-slot table (the spec allows fewer; we always model the full 64
/// used by the paper). Index positions matter: the distance between entries
/// of a connection's sequence is what bounds its latency.
using ArbTable = std::array<ArbTableEntry, kArbTableEntries>;

class VlArbitrationTable {
 public:
  VlArbitrationTable() = default;

  ArbTable& high() noexcept { return high_; }
  const ArbTable& high() const noexcept { return high_; }
  ArbTable& low() noexcept { return low_; }
  const ArbTable& low() const noexcept { return low_; }

  std::uint8_t limit_of_high_priority() const noexcept { return limit_; }
  void set_limit_of_high_priority(std::uint8_t v) noexcept { limit_ = v; }

  /// Sum of active weights for one VL in the high (or low) table.
  unsigned vl_weight_high(VirtualLane vl) const noexcept {
    return vl_weight(high_, vl);
  }
  unsigned vl_weight_low(VirtualLane vl) const noexcept {
    return vl_weight(low_, vl);
  }

  /// Total active weight in each table.
  unsigned total_weight_high() const noexcept { return total_weight(high_); }
  unsigned total_weight_low() const noexcept { return total_weight(low_); }

  unsigned active_entries_high() const noexcept {
    return active_entries(high_);
  }
  unsigned active_entries_low() const noexcept { return active_entries(low_); }

  /// Bit v set when data VL v (< 16) has at least one active entry.
  std::uint16_t vl_mask_high() const noexcept { return vl_mask(high_); }
  std::uint16_t vl_mask_low() const noexcept { return vl_mask(low_); }

  /// Structural validity: entries reference data VLs only (VL15 never
  /// appears in arbitration tables — it is arbitrated implicitly above them).
  bool valid() const noexcept;

 private:
  static unsigned vl_weight(const ArbTable& t, VirtualLane vl) noexcept;
  static unsigned total_weight(const ArbTable& t) noexcept;
  static unsigned active_entries(const ArbTable& t) noexcept;
  static std::uint16_t vl_mask(const ArbTable& t) noexcept;

  ArbTable high_{};
  ArbTable low_{};
  std::uint8_t limit_ = kUnlimitedHighPriority;
};

}  // namespace ibarb::iba
