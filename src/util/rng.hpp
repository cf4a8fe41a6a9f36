// Deterministic pseudo-random number generation for simulations.
//
// The whole library avoids std::mt19937 so that results are bit-identical
// across standard-library implementations: every experiment in the paper
// reproduction is seeded and replayable.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace ibarb::util {

/// SplitMix64: used to expand a single 64-bit seed into a full xoshiro state.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, high-quality, 256-bit state.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be handed to
/// <random> distributions, although the helpers below are preferred for
/// reproducibility.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Lemire's nearly-divisionless method.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Exponential variate with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Bernoulli trial.
  bool chance(double probability) noexcept { return uniform() < probability; }

  /// Independent child stream: deterministic function of this stream's next
  /// output, suitable for giving each simulation entity its own generator.
  Xoshiro256 split() noexcept { return Xoshiro256(next()); }

  /// Raw 256-bit state, for crash-consistent snapshots: a restored stream
  /// continues the exact sequence the saved one would have produced.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = s[i];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace ibarb::util
