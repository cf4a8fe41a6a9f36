// Crossbar-scheduler selection: the enum and its names. Kept in its own
// dependency-free header so the --crossbar flag parser (bench::
// config_from_cli) can validate a name without pulling in the scheduler
// implementations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ibarb::sched {

/// Which crossbar-scheduler implementation a switch instantiates (built by
/// sched::Crossbar(impl, ports) — see docs/SCHEDULERS.md).
enum class CrossbarImpl : std::uint8_t {
  kWrr,     ///< Rotating-priority input/VL round-robin (pre-refactor path).
  kIslip,   ///< iSLIP(k): iterative grant/accept with pointer desync.
  kMatrix,  ///< Per-output Orion-style triangular priority-matrix arbiter.
};

inline constexpr std::string_view kCrossbarImplNames = "wrr|islip|matrix";

constexpr const char* crossbar_impl_name(CrossbarImpl impl) noexcept {
  switch (impl) {
    case CrossbarImpl::kWrr: return "wrr";
    case CrossbarImpl::kIslip: return "islip";
    case CrossbarImpl::kMatrix: return "matrix";
  }
  return "?";
}

constexpr std::optional<CrossbarImpl> parse_crossbar_impl(
    std::string_view name) noexcept {
  if (name == "wrr") return CrossbarImpl::kWrr;
  if (name == "islip") return CrossbarImpl::kIslip;
  if (name == "matrix") return CrossbarImpl::kMatrix;
  return std::nullopt;
}

}  // namespace ibarb::sched
