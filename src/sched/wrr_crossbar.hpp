// The pre-refactor crossbar policy, verbatim: rotating-priority round-robin
// across input ports, round-robin across occupied VLs within an input, first
// eligible (free output with queue space) head wins. Extracted from
// sim::Simulator::schedule_crossbar / try_start_transfer; the grant sequence
// — and therefore the event order of every simulation — is bit-identical to
// the pre-refactor code (tests/golden/ + test_crossbar differential).
//
// It is the only crossbar policy: the paper's guarantees come from the VL
// arbitration tables at the output ports, and the 2x crossbar speedup keeps
// the tables, not the crossbar, the contention point. docs/SCHEDULERS.md
// keeps the measurements that retired the other schedulers.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/ports.hpp"

namespace ibarb::sched {

/// The crossbar policy a switch runs. WrrCrossbar is the only one; the enum
/// and SimConfig::crossbar_impl remain only because the benchmark sources
/// (perfbench/) name them; there is nothing to select.
enum class CrossbarImpl : std::uint8_t {
  kWrr,  ///< Rotating-priority input/VL round-robin.
};

/// One switch's crossbar scheduler. schedule() is invoked by the simulator
/// after any event that may enable a transfer (packet arrival at an input,
/// a transfer completing); it owns all of its round-robin state, so every
/// decision is a pure function of simulation state.
class WrrCrossbar {
 public:
  /// The always-on decision accounting, folded across switches into xbar.*
  /// telemetry by the simulator's snapshot probe (plain increments — the
  /// matching loop is a hot path).
  struct Stats {
    std::uint64_t rounds = 0;          ///< schedule() calls.
    std::uint64_t grants = 0;          ///< Transfers started.
    std::uint64_t iterations = 0;      ///< Full-rescan passes.
    std::uint64_t blocked_output = 0;  ///< Head deferred: output busy.
    std::uint64_t blocked_space = 0;   ///< Head deferred: output VL full.
  };

  explicit WrrCrossbar(unsigned ports) : rr_vl_(ports, 0) {}

  const Stats& stats() const noexcept { return stats_; }

  /// Runs matching rounds until no further transfer can start. When
  /// `only_input` >= 0 the round is restricted to that input — the cheap
  /// trigger after a single arrival (at most one transfer can start, since
  /// one input feeds at most one transfer).

  template <CrossbarPorts Ports>
  void schedule(Ports& v, int only_input) {
    ++stats_.rounds;
    if (only_input >= 0) {
      // Single-arrival trigger: one input, at most one new transfer, and —
      // exactly like the pre-refactor path — no rotation of the input
      // priority pointer.
      try_input(v, static_cast<iba::PortIndex>(only_input));
      return;
    }
    const unsigned ports = v.port_count();
    bool progress = true;
    while (progress) {
      progress = false;
      ++stats_.iterations;
      for (unsigned k = 0; k < ports; ++k) {
        const auto p = static_cast<iba::PortIndex>((rr_input_ + k) % ports);
        if (try_input(v, p)) {
          // Rotating priority: the granted input drops to lowest priority.
          // Updated mid-scan, so later k values shift with it — the
          // pre-refactor behaviour, kept bit-for-bit.
          rr_input_ = (p + 1) % ports;
          progress = true;
        }
      }
    }
  }

 private:
  /// Tries to start one transfer from `in`; true when a grant was made.
  template <CrossbarPorts Ports>
  bool try_input(Ports& v, iba::PortIndex in) {
    if (!v.input_ready(in)) return false;
    // Round-robin across occupied VLs of this input port.
    for (VlRoundRobin vls(v.input_occupancy(in), rr_vl_[in]); vls;) {
      const iba::VirtualLane vl = vls.next();
      const auto out = v.head_output(in, vl);
      if (!v.output_free(out)) {
        ++stats_.blocked_output;
        continue;
      }
      if (!v.output_accepts(in, vl, out)) {
        ++stats_.blocked_space;
        continue;
      }
      rr_vl_[in] = static_cast<iba::VirtualLane>(
          (vl + 1) % iba::kMaxVirtualLanes);
      v.grant(in, vl, out);
      ++stats_.grants;
      return true;
    }
    return false;
  }

  Stats stats_;
  unsigned rr_input_ = 0;  ///< Rotating priority across input ports.
  std::vector<iba::VirtualLane> rr_vl_;  ///< Per-input VL round-robin.
};

}  // namespace ibarb::sched
