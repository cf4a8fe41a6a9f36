// Lightweight self-profiler over simulator phases: event dispatch,
// arbitration, fault hooks, metrics recording, and series sampling.
//
// This surface is deliberately wall-clock: its totals land in telemetry as
// profile.* (profile.<phase>_ms gauges and profile.<phase>_calls counters)
// and are quarantined from the determinism contract — the Simulator
// registers the profile.* probe only when SimConfig::profile is set,
// SeriesRecorder skips the quarantined profile.* columns
// (obs::is_quarantined_name), and no CI byte-compare ever passes --profile.
// Phases nest (kDispatch wraps the inner three), so totals overlap by
// design; read kDispatch as inclusive.
//
// ScopedTimer on a null profiler compiles to a single branch, so the hot
// paths pay nothing when profiling is off.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace ibarb::obs {

class PhaseProfiler {
 public:
  enum Phase : std::uint8_t {
    kDispatch = 0,   ///< Simulator::handle, inclusive of the phases below.
    kArbitration,    ///< VlArbiter::arbitrate calls.
    kFaultHooks,     ///< FaultHooks::on_link_rx verdicts.
    kMetrics,        ///< Metrics delivery recording.
    kSeries,         ///< SeriesRecorder boundary commits.
    kPhaseCount,
  };

  static constexpr const char* name(Phase p) noexcept {
    switch (p) {
      case kDispatch: return "dispatch";
      case kArbitration: return "arbitration";
      case kFaultHooks: return "fault_hooks";
      case kMetrics: return "metrics";
      case kSeries: return "series";
      case kPhaseCount: break;
    }
    return "unknown";
  }

  void add(Phase p, std::uint64_t ns) noexcept {
    ns_[p] += ns;
    ++calls_[p];
  }

  double total_ms(Phase p) const noexcept {
    return static_cast<double>(ns_[p]) / 1e6;
  }
  std::uint64_t calls(Phase p) const noexcept { return calls_[p]; }

 private:
  std::array<std::uint64_t, kPhaseCount> ns_{};
  std::array<std::uint64_t, kPhaseCount> calls_{};
};

/// RAII timer charging one PhaseProfiler phase; no-op when `profiler` is
/// null (the common, profiling-off case).
class ScopedTimer {
 public:
  ScopedTimer(PhaseProfiler* profiler, PhaseProfiler::Phase phase) noexcept
      : profiler_(profiler), phase_(phase) {
    if (profiler_) start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (!profiler_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    profiler_->add(phase_, static_cast<std::uint64_t>(ns));
  }

 private:
  PhaseProfiler* profiler_;
  PhaseProfiler::Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ibarb::obs
