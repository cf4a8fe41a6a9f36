#include "arbtable/fill_algorithm.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <numeric>

namespace ibarb::arbtable {

namespace {

/// Fills order[0..distance) with the kRandom permutation of offsets: a
/// Fisher-Yates shuffle of 0..distance-1 consuming distance-1 draws.
void random_order(unsigned distance, util::Xoshiro256& rng, unsigned* order) {
  std::iota(order, order + distance, 0u);
  for (unsigned j = distance; j > 1; --j)
    std::swap(order[j - 1], order[rng.below(j)]);
}

/// Bit j (j < distance) set when E_{i,j} is free: each shift-and-AND folds
/// the slots j + n·distance of one more power-of-two stride onto bit j.
std::uint64_t free_offsets(std::uint64_t occupied, unsigned distance) {
  std::uint64_t free = ~occupied;
  for (unsigned w = distance; w < iba::kArbTableEntries; w *= 2)
    free &= free >> w;
  return distance == iba::kArbTableEntries
             ? free
             : free & ((std::uint64_t{1} << distance) - 1);
}

}  // namespace

const char* to_string(FillPolicy policy) {
  switch (policy) {
    case FillPolicy::kBitReversal: return "bit-reversal";
    case FillPolicy::kSequential: return "sequential";
    case FillPolicy::kRandom: return "random";
    case FillPolicy::kScattered: return "scattered";
  }
  return "?";
}

std::vector<unsigned> scan_order(unsigned distance, FillPolicy policy,
                                 util::Xoshiro256* rng) {
  assert(is_pow2(distance) && distance <= kMaxDistance);
  const unsigned bits = log2_pow2(distance);
  std::vector<unsigned> order(distance);
  switch (policy) {
    case FillPolicy::kBitReversal:
      for (unsigned j = 0; j < distance; ++j)
        order[j] = reverse_bits(j, bits);
      break;
    case FillPolicy::kSequential:
      std::iota(order.begin(), order.end(), 0u);
      break;
    case FillPolicy::kRandom:
      assert(rng != nullptr);
      random_order(distance, *rng, order.data());
      break;
    case FillPolicy::kScattered:
      order.clear();
      break;
  }
  return order;
}

std::optional<EntrySet> find_free_set(std::uint64_t occupied,
                                      unsigned distance, FillPolicy policy,
                                      util::Xoshiro256* rng) {
  assert(is_pow2(distance) && distance <= kMaxDistance);
  const std::uint64_t free = free_offsets(occupied, distance);
  const auto found = [&](unsigned j) {
    return std::optional<EntrySet>(EntrySet{distance, j});
  };
  switch (policy) {
    case FillPolicy::kBitReversal:
      // Offsets j < d are inspected in ascending rev_i(j), which orders them
      // as ascending rev_6(j) (= rev_i(j) shifted up by 6 - i): the lowest
      // set bit of the rev_6-permuted mask is the first free set.
      if (free == 0) return std::nullopt;
      return found(kReverse6[std::countr_zero(reverse_slot_order(free))]);
    case FillPolicy::kSequential:
      if (free == 0) return std::nullopt;
      return found(static_cast<unsigned>(std::countr_zero(free)));
    case FillPolicy::kRandom: {
      // The whole permutation is drawn even when a free set comes early, so
      // the RNG stream matches scan_order's.
      assert(rng != nullptr);
      std::array<unsigned, kMaxDistance> order;
      random_order(distance, *rng, order.data());
      for (unsigned k = 0; k < distance; ++k)
        if ((free >> order[k]) & 1) return found(order[k]);
      return std::nullopt;
    }
    case FillPolicy::kScattered:
      // No spaced structure; the caller should use find_scattered instead.
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<EntrySet> find_free_set(const iba::ArbTable& table,
                                      unsigned distance, FillPolicy policy,
                                      util::Xoshiro256* rng) {
  return find_free_set(occupancy_mask(table), distance, policy, rng);
}

std::optional<std::uint64_t> find_scattered(std::uint64_t occupied,
                                            unsigned count) {
  std::uint64_t free = ~occupied;
  if (static_cast<unsigned>(std::popcount(free)) < count) return std::nullopt;
  std::uint64_t picks = 0;
  for (unsigned n = 0; n < count; ++n) {
    const std::uint64_t lowest = free & (~free + 1);
    picks |= lowest;
    free ^= lowest;
  }
  return picks;
}

std::optional<std::vector<std::uint8_t>> find_scattered(
    const iba::ArbTable& table, unsigned count) {
  const auto picks = find_scattered(occupancy_mask(table), count);
  if (!picks) return std::nullopt;
  std::vector<std::uint8_t> out;
  for (const auto p : SlotRange(*picks))
    out.push_back(static_cast<std::uint8_t>(p));
  return out;
}

}  // namespace ibarb::arbtable
