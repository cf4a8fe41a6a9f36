// Per-output-port manager of the VLArbitrationTable: sequence allocation,
// sharing, release and defragmentation (paper §3.2–3.3).
//
// Connections of the same SL (hence same VL and same distance) share an
// already-allocated sequence, accumulating per-entry weight up to 255, so
// admission is bounded by bandwidth rather than by the 64 entries. When a
// sequence's accumulated weight drops to zero its entries are freed and the
// defragmenter restores the invariant the filling algorithm relies on.
//
// Bookkeeping is fixed-size and table-shaped, so admission, release and
// defragmentation never touch the heap once the handle vectors have grown:
//  * each sequence holds its slots as a 64-bit mask (bit p = slot p);
//  * occupied_ is the OR of every live sequence's mask — the fill scan works
//    on it instead of on the table entries;
//  * starts_[log2 d] marks, in buddy space (entry_set.hpp), the address
//    rev_6(offset) where each live spaced sequence of distance d begins,
//    and owner_ names the handle found there — the defragmenter walks these
//    instead of sorting;
//  * vl_handles_[vl] marks the live handles on each VL, which is all the
//    sharing lookup needs. Handles stay below 64: every live sequence holds
//    at least one slot and a new handle is minted only when none is free.
//
// Both tables are rendered on read. Allocation, sharing, release,
// defragmentation and load_state change only the sequences and the masks
// above, and add/remove_low_weight only the per-VL weights and an
// incremental low-entry count (static entries plus the sum of
// ceil(w_vl / 255)); each sets one dirty flag, and table() re-renders both
// tables the first time it is read after a change. On the admission path
// only qos::AdmissionControl::program reads them.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arbtable/fill_algorithm.hpp"
#include "arbtable/requirements.hpp"
#include "iba/vl_arbitration.hpp"
#include "util/binary.hpp"
#include "util/rng.hpp"

namespace ibarb::arbtable {

/// Handle to a live sequence inside one TableManager.
using SeqHandle = std::uint32_t;

struct Sequence {
  iba::VirtualLane vl = 0;
  unsigned distance = 0;                 ///< Power of two; 0 for scattered.
  std::uint64_t slots = 0;               ///< Table slots, bit p = slot p.
  unsigned weight_per_entry = 0;         ///< Accumulated across sharers.
  unsigned connections = 0;              ///< Sharing count.
  double reserved_mbps = 0.0;            ///< Accumulated bandwidth.
  bool live = false;

  /// The table slots in ascending order.
  SlotRange positions() const noexcept { return SlotRange(slots); }
};

class TableManager {
 public:
  struct Config {
    double link_data_mbps = iba::kBaseLinkMbps;
    /// Fraction of the link reservable by QoS traffic; the paper keeps 20 %
    /// for best-effort/challenged traffic served from the low table.
    double reservable_fraction = 0.8;
    FillPolicy policy = FillPolicy::kBitReversal;
    bool defrag_on_release = true;
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t allocations = 0;     ///< New sequences created.
    std::uint64_t shares = 0;          ///< Requests joined to a live sequence.
    std::uint64_t reject_bandwidth = 0;
    std::uint64_t reject_entries = 0;
    std::uint64_t releases = 0;
    std::uint64_t defrag_runs = 0;
    std::uint64_t defrag_moves = 0;    ///< Sequences relocated by defrag.
  };

  explicit TableManager(Config cfg);

  /// Installs the static low-priority table used for best-effort traffic:
  /// one entry per (VL, weight) pair, round-robin.
  void configure_low_priority(
      std::span<const std::pair<iba::VirtualLane, std::uint8_t>> entries);

  void set_limit_of_high_priority(std::uint8_t limit) {
    table_.set_limit_of_high_priority(limit);
  }

  /// Admits one connection's requirement onto `vl`. Tries sharing first,
  /// then a fresh sequence under the configured fill policy. Returns the
  /// sequence handle, or std::nullopt (rejection) when either the bandwidth
  /// cap or the table would be exceeded.
  std::optional<SeqHandle> allocate(iba::VirtualLane vl, const Requirement& req,
                                    double mbps);

  /// Releases one connection previously admitted with exactly (req, mbps).
  void release(SeqHandle handle, const Requirement& req, double mbps);

  /// Legacy-scheme support (the prior-work configuration the paper argues
  /// against): dedicated-bandwidth connections are given weight in the
  /// *low-priority* table — accumulated per VL and spread over as many
  /// entries of up to 255 as needed — where nothing shields them from
  /// misbehaving high-priority sources. Returns false when the low table
  /// runs out of entries or the bandwidth cap is hit.
  bool add_low_weight(iba::VirtualLane vl, unsigned weight, double mbps);
  void remove_low_weight(iba::VirtualLane vl, unsigned weight, double mbps);

  /// The port's arbitration tables. Renders both first if anything changed
  /// since the last read, so the first read after a change writes through
  /// `mutable` state: concurrent reads of one manager need the caller's
  /// synchronisation (every caller today reads from one thread).
  const iba::VlArbitrationTable& table() const noexcept {
    if (dirty_) render_tables();
    return table_;
  }
  const Config& config() const noexcept { return cfg_; }
  const Stats& stats() const noexcept { return stats_; }

  double reserved_mbps() const noexcept { return reserved_mbps_; }
  double reservable_mbps() const noexcept {
    return cfg_.link_data_mbps * cfg_.reservable_fraction;
  }
  unsigned free_entries() const noexcept;
  unsigned live_sequences() const noexcept;

  const Sequence& sequence(SeqHandle handle) const {
    return sequences_.at(handle);
  }

  /// Audits internal consistency: the rendered high table must hold each
  /// live sequence's VL and weight at its slots, positions must not overlap, per-entry weights
  /// must respect the 255 cap, spaced sequences must match their E_{i,j},
  /// the occupancy, buddy-start and per-VL masks must match the live
  /// sequences they index, the incremental low-table entry count must match
  /// its recount, and the rendered low table must be the static entries
  /// followed by each VL's weight in chunks of up to 255.
  /// On failure `why` (if given) describes the first violation.
  bool check_invariants(std::string* why = nullptr) const;

  /// Theorem-1 operational audit (bit-reversal + defrag-on-release configs
  /// only; trivially true otherwise): for every distance class d, a free set
  /// must exist *iff* at least 64/d entries are free. This is the
  /// no-false-reject property the churn service re-validates after every
  /// batch and every snapshot restore.
  bool audit_free_set_optimality(std::string* why = nullptr) const;

  /// Dry-run of allocate(): would an admission with exactly (vl, req, mbps)
  /// succeed right now? Pure — consumes no RNG state, changes nothing.
  /// Used by the churn engine's false-reject auditor: a guaranteed request
  /// refused while every hop reports can_admit() is a Theorem-1 violation.
  bool can_admit(iba::VirtualLane vl, const Requirement& req,
                 double mbps) const;

  /// Runs the defragmenter immediately (normally triggered by release).
  void defragment();

  /// Serializes the complete mutable state — sequences (including dead
  /// handle slots), the free-handle stack, dynamic low-table weights,
  /// bandwidth accounting, stats and the RNG stream — plus a config
  /// fingerprint. The table itself is not written: load_state() rebuilds it
  /// from the sequences, and check_invariants() proves the rebuild exact.
  void save_state(util::BinWriter& w) const;

  /// Restores state saved by save_state() into a manager constructed with
  /// the same Config (and configure_low_priority). Throws std::runtime_error
  /// on a config-fingerprint mismatch or malformed payload.
  void load_state(util::BinReader& r);

 private:
  friend unsigned defragment_sequences(TableManager& manager);

  /// Lowest live handle on `vl` that (vl, req) may share, or std::nullopt.
  std::optional<SeqHandle> find_share(iba::VirtualLane vl,
                                      const Requirement& req) const;
  SeqHandle create_sequence(iba::VirtualLane vl, unsigned distance,
                            std::uint64_t slots, const Requirement& req,
                            double mbps);
  /// Unindexes a sequence whose last connection left and frees its slots.
  void erase_sequence(SeqHandle handle);

  /// Adds (removes) a live sequence to (from) occupied_, starts_, owner_ and
  /// vl_handles_.
  void index_sequence(SeqHandle handle);
  void unindex_sequence(SeqHandle handle);

  /// Renders the high table from the live sequences and the low table from
  /// the static best-effort entries plus the dynamic per-VL weights, both
  /// into cleared tables. low_entries_ must be at most 64.
  void render_tables() const noexcept;

  Config cfg_;
  util::Xoshiro256 rng_;
  /// Rendered on read from the state below.
  mutable iba::VlArbitrationTable table_;
  std::vector<std::pair<iba::VirtualLane, std::uint8_t>> low_static_;
  std::array<unsigned, iba::kMaxVirtualLanes> low_dynamic_weight_{};
  unsigned low_entries_ = 0;        ///< Entries the next render fills.
  mutable bool dirty_ = false;      ///< table_ lags the bookkeeping.
  std::vector<Sequence> sequences_;
  std::vector<SeqHandle> free_handles_;
  std::uint64_t occupied_ = 0;
  std::array<std::uint64_t, kDistanceClasses> starts_{};
  std::array<SeqHandle, iba::kArbTableEntries> owner_{};
  std::array<std::uint64_t, iba::kMaxVirtualLanes> vl_handles_{};
  double reserved_mbps_ = 0.0;      ///< High + low reservations together.
  double low_reserved_mbps_ = 0.0;  ///< Legacy low-table share of the above.
  Stats stats_;
};

}  // namespace ibarb::arbtable
