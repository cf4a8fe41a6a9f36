// The pre-refactor crossbar policy, verbatim: rotating-priority round-robin
// across input ports, round-robin across occupied VLs within an input, first
// eligible (free output with queue space) head wins. Extracted from
// sim::Simulator::schedule_crossbar / try_start_transfer; the grant sequence
// — and therefore the event order of every simulation — is bit-identical to
// the pre-refactor code (tests/golden/ + test_crossbar differential).
#pragma once

#include <vector>

#include "sched/ports.hpp"

namespace ibarb::sched {

class WrrCrossbar final : public CrossbarScheduler {
 public:
  explicit WrrCrossbar(unsigned ports) : rr_vl_(ports, 0) {}

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
      rr_vl_[in] = next_vl(vl);
      v.grant(in, vl, out);
      ++stats_.grants;
      return true;
    }
    return false;
  }

  unsigned rr_input_ = 0;  ///< Rotating priority across input ports.
  std::vector<iba::VirtualLane> rr_vl_;  ///< Per-input VL round-robin.
};

}  // namespace ibarb::sched
