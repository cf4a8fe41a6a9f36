// Output-port VL arbiter executing a VLArbitrationTable with IBA semantics:
//
//  * VL15 (subnet management) always wins over data traffic.
//  * Two weighted-round-robin tables; the high-priority table may send
//    LimitOfHighPriority × 4096 bytes while low-priority packets are pending
//    before one low-priority packet must be let through (255 = unlimited).
//  * If the high table has nothing ready, the low table transmits
//    (work-conserving), and vice versa.
//  * Within a table, up to 64 entries are cycled; the current entry keeps
//    transmitting from its VL while it has data and remaining weight. Weights
//    count units of 64 bytes and are always charged whole packets (a packet
//    may overdraw the entry; the overdraft is forfeited, not carried over).
//  * When the current entry's VL has no eligible packet, the arbiter advances
//    and the entry's unused weight is forfeited (it is restored to the full
//    programmed weight the next time the round-robin reaches it).
//
// The per-decision hot path is cached: set_table() precomputes, per table, a
// mask of VLs with active entries (so the "anything ready?" test is two mask
// ANDs instead of a 64-entry scan) and a next-active-entry skip chain (so the
// round-robin advances over runs of inactive entries in O(1) per active
// entry). Every cached decision is bit-identical to the plain table walk —
// debug builds assert this against the uncached scans, and
// tests/test_arbiter_model.cpp fuzzes it against an independent spec model.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "iba/types.hpp"
#include "iba/vl_arbitration.hpp"

namespace ibarb::iba {

/// Per-VL view the port gives the arbiter each decision: wire size of the
/// packet at the head of each VL's queue, or 0 when the VL has nothing
/// eligible (empty, or not enough downstream credits).
using ReadyBytes = std::array<std::uint32_t, kMaxVirtualLanes>;

struct ArbDecision {
  VirtualLane vl = kInvalidVl;
  bool from_high = false;       ///< Chosen from the high-priority table.
  bool management = false;      ///< VL15 bypass.
};

class VlArbiter {
 public:
  /// Always-on decision accounting, published to obs::TelemetryRegistry by
  /// the simulator's snapshot probe. Plain increments — arbitrate() is a
  /// hot path (bench_micro measures Mdecisions/s) and must not touch any
  /// registry indirection.
  struct Stats {
    std::uint64_t decisions = 0;       ///< arbitrate() calls.
    std::uint64_t vl15_bypasses = 0;   ///< Management traffic preemptions.
    std::uint64_t high_picks = 0;
    std::uint64_t low_picks = 0;
    std::uint64_t high_skips = 0;      ///< Not-ready entries stepped over.
    std::uint64_t low_skips = 0;
    std::uint64_t limit_blocks = 0;    ///< High table deferred by the limit.
    std::uint64_t idle = 0;            ///< Nothing eligible anywhere.
  };

  VlArbiter() = default;
  explicit VlArbiter(const VlArbitrationTable& table) { set_table(table); }

  /// Installs a (possibly updated) table. Round-robin positions are kept so
  /// that live reconfiguration by the subnet manager does not reset service
  /// order; the current entry's remaining weight is clamped to its new
  /// programmed weight.
  void set_table(const VlArbitrationTable& table);

  const VlArbitrationTable& table() const noexcept { return table_; }

  /// Picks the VL to transmit next, charging weights/limits as if the caller
  /// transmits that VL's head packet. Returns std::nullopt when nothing is
  /// eligible.
  std::optional<ArbDecision> arbitrate(const ReadyBytes& head_bytes);

  /// Bytes of high-priority data sent since the last low-priority packet
  /// (diagnostics; meaningful only when the limit is bounded).
  std::uint64_t high_bytes_since_low() const noexcept {
    return high_bytes_since_low_;
  }

  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Cursor {
    unsigned index = 0;
    int remaining = 0;  ///< Weight units left in the current entry.
  };

  static constexpr std::uint8_t kNoEntry = 0xFF;

  /// Aggregates derived from one table by set_table(), consulted (never
  /// modified) by every arbitrate() call.
  struct TableIndex {
    std::uint16_t vl_mask = 0;      ///< VLs with at least one active entry.
    std::uint8_t active_count = 0;  ///< Number of active entries.
    /// First active entry cyclically *after* position i (kNoEntry when the
    /// table has no active entries). A lone active entry points at itself.
    std::array<std::uint8_t, kArbTableEntries> next_after{};

    void rebuild(const ArbTable& t) noexcept;
  };

  /// Tries to pick from one table; on success charges the entry's weight.
  /// `ti` must be the TableIndex derived from `t`. Not-ready active entries
  /// stepped over are added to `skips`.
  std::optional<VirtualLane> pick(const ArbTable& t, const TableIndex& ti,
                                  Cursor& cur, const ReadyBytes& head_bytes,
                                  std::uint64_t& skips);

  static bool any_ready(const ArbTable& t, const ReadyBytes& head_bytes);

  VlArbitrationTable table_{};
  TableIndex high_index_{};
  TableIndex low_index_{};
  Cursor high_cur_{};
  Cursor low_cur_{};
  std::uint64_t high_bytes_since_low_ = 0;
  Stats stats_;
};

}  // namespace ibarb::iba
