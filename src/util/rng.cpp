#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace ibarb::util {

std::uint64_t Xoshiro256::below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire (2019): multiply-shift with rejection to remove modulo bias.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Xoshiro256::between(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Xoshiro256::exponential(double mean) noexcept {
  assert(mean > 0.0);
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

}  // namespace ibarb::util
