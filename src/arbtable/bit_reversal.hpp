// Bit-reversal permutation: the inspection order of candidate entry sets in
// the paper's filling algorithm (§3.3).
//
// For a request of distance d = 2^i, the algorithm tries offsets
// j = rev_i(0), rev_i(1), ..., rev_i(d-1), where rev_i reverses the low i
// bits. This fills even offsets before odd ones at every scale, which is
// precisely what keeps free entries usable by the most restrictive
// (distance-2) future request.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

namespace ibarb::arbtable {

/// Reverses the low `bits` bits of `value` (value < 2^bits).
constexpr std::uint32_t reverse_bits(std::uint32_t value,
                                     unsigned bits) noexcept {
  std::uint32_t out = 0;
  for (unsigned b = 0; b < bits; ++b) {
    out = (out << 1) | (value & 1u);
    value >>= 1;
  }
  return out;
}

/// rev_6 of every slot index: table position p <-> buddy-space address.
inline constexpr std::array<std::uint8_t, 64> kReverse6 = [] {
  std::array<std::uint8_t, 64> out{};
  for (std::uint32_t p = 0; p < out.size(); ++p)
    out[p] = static_cast<std::uint8_t>(reverse_bits(p, 6));
  return out;
}();

/// Permutes the bits of a 64-slot mask so that bit p moves to bit rev_6(p)
/// (an involution). Each step is a delta swap exchanging two index bits:
/// (0,5), (1,4) and (2,3).
constexpr std::uint64_t reverse_slot_order(std::uint64_t x) noexcept {
  const auto swap = [](std::uint64_t v, std::uint64_t low, unsigned delta) {
    const std::uint64_t t = ((v >> delta) ^ v) & low;
    return v ^ t ^ (t << delta);
  };
  x = swap(x, 0x00000000AAAAAAAAull, 31);  // index bits 0 <-> 5
  x = swap(x, 0x0000CCCC0000CCCCull, 14);  // index bits 1 <-> 4
  x = swap(x, 0x00F000F000F000F0ull, 4);   // index bits 2 <-> 3
  return x;
}

/// True when v is a power of two (and nonzero).
constexpr bool is_pow2(unsigned v) noexcept { return v && (v & (v - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned log2_pow2(unsigned v) noexcept {
  assert(is_pow2(v));
  unsigned i = 0;
  while (v >>= 1) ++i;
  return i;
}

/// Largest power of two <= v (v >= 1). The paper rounds every requested
/// distance *down* to the closest lower power of two so that the arithmetic
/// progressions tile the 64-entry table symmetrically.
constexpr unsigned floor_pow2(unsigned v) noexcept {
  assert(v >= 1);
  unsigned p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

/// Smallest power of two >= v (v >= 1).
constexpr unsigned ceil_pow2(unsigned v) noexcept {
  assert(v >= 1);
  unsigned p = 1;
  while (p < v) p *= 2;
  return p;
}

}  // namespace ibarb::arbtable
