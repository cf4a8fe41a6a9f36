// The paper's filling algorithm (§3.3) and the alternative scan orders used
// as ablation baselines.
//
// For a request of distance d = 2^i, candidate sets E_{i,j} are inspected in
// bit-reversal order of j and the first fully free one is taken. The paper's
// key theorem (proved in the companion TR and verified exhaustively by this
// repo's property tests): under this policy — and provided releases are
// followed by defragmentation — a request succeeds *iff* the table has at
// least 64/d free entries.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arbtable/entry_set.hpp"
#include "iba/vl_arbitration.hpp"
#include "util/rng.hpp"

namespace ibarb::arbtable {

/// Scan-order policy for choosing among the free E_{i,j}.
enum class FillPolicy : std::uint8_t {
  kBitReversal,  ///< The paper's proposal.
  kSequential,   ///< Baseline: j = 0, 1, 2, ... (naive).
  kRandom,       ///< Baseline: random permutation of offsets per request.
  kScattered,    ///< Baseline: first n free entries anywhere — ignores the
                 ///< distance requirement entirely (prior-work strawman;
                 ///< breaks latency guarantees, useful for the ablation).
};

const char* to_string(FillPolicy policy);

/// Offsets of E_{i,j} candidates in the order a policy inspects them.
/// For kScattered the concept does not apply (empty result). This is the
/// reference statement of each order; find_free_set reaches the same first
/// free set through mask arithmetic without building it.
std::vector<unsigned> scan_order(unsigned distance, FillPolicy policy,
                                 util::Xoshiro256* rng = nullptr);

/// Finds the first free set of the given distance under `policy`, where
/// `occupied` is the table's occupancy mask (bit p = slot p is in use).
/// `rng` is only consulted by kRandom, which draws the same permutation as
/// scan_order. Returns std::nullopt when no free set exists (always for
/// kScattered, which has no spaced structure).
std::optional<EntrySet> find_free_set(std::uint64_t occupied,
                                      unsigned distance, FillPolicy policy,
                                      util::Xoshiro256* rng = nullptr);

/// Same, on a table's entries.
std::optional<EntrySet> find_free_set(const iba::ArbTable& table,
                                      unsigned distance, FillPolicy policy,
                                      util::Xoshiro256* rng = nullptr);

/// For kScattered: the mask of the first `count` free slots in table order,
/// or std::nullopt when fewer than `count` are free.
std::optional<std::uint64_t> find_scattered(std::uint64_t occupied,
                                            unsigned count);

/// Same, on a table's entries, as the ascending slot list.
std::optional<std::vector<std::uint8_t>> find_scattered(
    const iba::ArbTable& table, unsigned count);

}  // namespace ibarb::arbtable
