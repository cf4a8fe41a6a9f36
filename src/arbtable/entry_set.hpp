// The entry-set algebra of the paper (§3.3).
//
// For a 64-entry table T = t_0..t_63 and a distance d = 2^i, the set
//   E_{i,j} = { t_{j + n·2^i} : n = 0 .. 64/2^i - 1 },  0 <= j < d
// contains the equally spaced entries able to serve a request of maximum
// distance d starting at offset j. A set is *free* when all its entries are
// free (weight 0).
//
// Mask representation: a set of table slots is a 64-bit word, bit p = slot p.
// E_{i,j} is the stride pattern {0, d, 2d, ...} shifted left by j, so "is
// this set free" is one AND against the table's occupancy mask, and the
// offsets j whose set is free fall out of log2(64/d) shift-and-ANDs
// (free_offsets in fill_algorithm.cpp).
//
// Buddy-space view (used by the fill scan, the defragmenter and the
// correctness proofs in tests): mapping each position p to q = rev_6(p)
// sends E_{i,j} to the aligned contiguous block [rev_i(j)·2^{6-i},
// (rev_i(j)+1)·2^{6-i}), whose start address is rev_6(j) — so the paper's
// bit-reversal scan is exactly a left-to-right first-fit over aligned
// power-of-two blocks, i.e. a binary buddy allocator.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "arbtable/bit_reversal.hpp"
#include "iba/types.hpp"
#include "iba/vl_arbitration.hpp"

namespace ibarb::arbtable {

/// Distances the paper admits in practice (distance 1 — every entry — is
/// considered "too strict to be practical" and excluded from the SL
/// catalogue, though the algebra supports it).
inline constexpr unsigned kMinPracticalDistance = 2;
inline constexpr unsigned kMaxDistance = iba::kArbTableEntries;
/// Distances 1, 2, 4, ..., 64: one class per power of two.
inline constexpr unsigned kDistanceClasses = 7;

/// Slot mask of E_{i,0} = {0, d, 2d, ...}, indexed by i = log2(d).
inline constexpr std::array<std::uint64_t, kDistanceClasses> kStrideMasks = [] {
  std::array<std::uint64_t, kDistanceClasses> out{};
  for (unsigned i = 0; i < kDistanceClasses; ++i)
    for (unsigned p = 0; p < iba::kArbTableEntries; p += 1u << i)
      out[i] |= std::uint64_t{1} << p;
  return out;
}();

/// Ascending view of the slots in a 64-bit slot mask.
class SlotRange {
 public:
  class iterator {
   public:
    using value_type = unsigned;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    explicit constexpr iterator(std::uint64_t rest) noexcept : rest_(rest) {}
    constexpr unsigned operator*() const noexcept {
      return static_cast<unsigned>(std::countr_zero(rest_));
    }
    constexpr iterator& operator++() noexcept {
      rest_ &= rest_ - 1;
      return *this;
    }
    constexpr iterator operator++(int) noexcept {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend constexpr bool operator==(iterator, iterator) = default;

   private:
    std::uint64_t rest_ = 0;
  };

  explicit constexpr SlotRange(std::uint64_t mask) noexcept : mask_(mask) {}

  constexpr iterator begin() const noexcept { return iterator(mask_); }
  constexpr iterator end() const noexcept { return iterator(0); }
  constexpr unsigned size() const noexcept {
    return static_cast<unsigned>(std::popcount(mask_));
  }
  constexpr bool empty() const noexcept { return mask_ == 0; }
  constexpr std::uint64_t mask() const noexcept { return mask_; }

 private:
  std::uint64_t mask_;
};

/// Identifies one E_{i,j}: distance = 2^i, offset = j.
struct EntrySet {
  unsigned distance = kMaxDistance;  ///< Power of two in [1, 64].
  unsigned offset = 0;               ///< In [0, distance).

  bool valid() const noexcept {
    return is_pow2(distance) && distance <= kMaxDistance && offset < distance;
  }

  unsigned size() const noexcept { return iba::kArbTableEntries / distance; }

  /// The table positions j, j+d, j+2d, ... as a slot mask.
  std::uint64_t mask() const noexcept {
    return kStrideMasks[std::countr_zero(distance)] << offset;
  }

  /// The table positions j, j+d, j+2d, ... in ascending order.
  SlotRange positions() const noexcept { return SlotRange(mask()); }

  /// Buddy-space address of the block this set maps to (see header comment).
  unsigned buddy_block_index() const noexcept {
    return reverse_bits(offset, log2_pow2(distance));
  }

  /// Inverse of buddy_block_index for a given distance.
  static EntrySet from_buddy_block(unsigned distance, unsigned block) noexcept {
    return EntrySet{distance,
                    reverse_bits(block, log2_pow2(distance))};
  }

  friend bool operator==(const EntrySet&, const EntrySet&) = default;
};

/// Slot mask of the active (weight != 0) entries of `table`.
std::uint64_t occupancy_mask(const iba::ArbTable& table);

/// True when every entry of the set is free: no bit of the set's mask is
/// in `occupied`.
inline bool set_is_free(std::uint64_t occupied, const EntrySet& set) {
  return (occupied & set.mask()) == 0;
}

/// True when every entry of the set is free (weight 0) in `table`.
bool set_is_free(const iba::ArbTable& table, const EntrySet& set);

/// Number of free (weight 0) entries in the whole table.
unsigned free_entries(const iba::ArbTable& table);

/// Largest gap, in table slots, between consecutive *active* entries of one
/// VL in cyclic order — this is the quantity a latency guarantee bounds.
/// Returns kArbTableEntries when the VL has at most one active entry (a
/// single entry still recurs every 64 slots).
unsigned max_gap_for_vl(const iba::ArbTable& table, iba::VirtualLane vl);

}  // namespace ibarb::arbtable
