// Two-lane scheduler: the paper's guaranteed traffic rides the exact WRR
// core; best-effort traffic goes through an ATM-ABR-style explicit-rate
// allocator (PAPERS.md: the paper's tables target CBR/VBR guarantees, and
// names ABR/UBR as the best-effort classes left to fill the residue).
//
// Lane split, decided per head packet at its output (head_guaranteed):
//   guaranteed  — management (VL15) or mapped onto a VL that the output's
//                 high-priority arbitration table serves. Scheduled first
//                 each pass by the unmodified rotating-priority WRR scan;
//                 the ABR lane can never throttle or delay them within a
//                 matching round.
//   best-effort — everything else. Per output, the allocator tracks bytes
//                 served per input and always grants the least-served
//                 contender — the water-filling step of max-min fairness,
//                 computed from simulation state only (deterministic).
//                 Contenders passed over are counted as `throttled`.
//
// The allocator is work-conserving: a best-effort head is only deferred in
// favour of another contender for the same output, never to reserve idle
// capacity. Served-byte counters halve every 2^16 cycles so the rate view
// is recent history, not all-time totals (and the counters stay bounded).
#pragma once

#include <bit>
#include <cassert>
#include <vector>

#include "sched/ports.hpp"

namespace ibarb::sched {

class AbrCrossbar final : public CrossbarScheduler {
 public:
  /// History half-life of the served-byte rate counters, in cycles.
  static constexpr iba::Cycle kRateEpochCycles = 1u << 16;

  explicit AbrCrossbar(unsigned ports)
      : ports_(ports),
        rr_vl_(ports, 0),
        served_(static_cast<std::size_t>(ports) * ports, 0),
        vl_of_(ports, 0) {
    assert(ports >= 1);
  }

  template <CrossbarPorts Ports>
  void schedule(Ports& v, int /*only_input*/) {
    ++stats_.rounds;
    roll_epochs(v.now());
    const unsigned n = ports_;
    bool progress = true;
    while (progress) {
      progress = false;
      ++stats_.iterations;
      // Guaranteed lane first: the unmodified WRR scan over guaranteed
      // heads.
      for (unsigned k = 0; k < n; ++k) {
        const auto p = static_cast<iba::PortIndex>((rr_input_ + k) % n);
        if (try_guaranteed(v, p)) {
          rr_input_ = (p + 1) % n;
          progress = true;
        }
      }
      // Then the explicit-rate lane fills what the guaranteed lane left
      // free.
      for (unsigned o = 0; o < n; ++o)
        if (allocate_best_effort(v, static_cast<iba::PortIndex>(o)))
          progress = true;
    }
  }

  /// Best-effort bytes served from `in` to `out` in the current rate view
  /// (decays with kRateEpochCycles). Exposed for the fairness tests.
  std::uint64_t served_bytes(iba::PortIndex in, iba::PortIndex out) const {
    return served_[static_cast<std::size_t>(out) * ports_ + in];
  }

 private:
  /// WRR scan restricted to guaranteed heads; true when a grant was made.
  template <CrossbarPorts Ports>
  bool try_guaranteed(Ports& v, iba::PortIndex in) {
    if (!v.input_ready(in)) return false;
    for (VlRoundRobin vls(v.input_occupancy(in), rr_vl_[in]); vls;) {
      const iba::VirtualLane vl = vls.next();
      const auto out = v.head_output(in, vl);
      // Best-effort heads belong to the rate lane; skipping them here is
      // not a blocking event.
      if (!v.head_guaranteed(in, vl, out)) continue;
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

  /// One explicit-rate allocation for output `out`; true on a grant.
  template <CrossbarPorts Ports>
  bool allocate_best_effort(Ports& v, iba::PortIndex out) {
    if (!v.output_free(out)) return false;

    // Contenders: ready inputs whose VL round-robin finds a best-effort head
    // routed to this output with space downstream.
    std::uint64_t contenders = 0;
    const unsigned n = ports_;
    for (unsigned i = 0; i < n; ++i) {
      const auto in = static_cast<iba::PortIndex>(i);
      if (!v.input_ready(in)) continue;
      for (VlRoundRobin vls(v.input_occupancy(in), rr_vl_[i]); vls;) {
        const iba::VirtualLane vl = vls.next();
        if (v.head_output(in, vl) != out) continue;
        if (v.head_guaranteed(in, vl, out)) continue;
        if (!v.output_accepts(in, vl, out)) {
          ++stats_.blocked_space;
          continue;
        }
        contenders |= std::uint64_t{1} << i;
        vl_of_[i] = vl;
        break;
      }
    }
    if (contenders == 0) return false;

    // Water-filling step: the least-served contender gets the slot (ties go
    // to the lowest port index — deterministic, and the byte counters break
    // the symmetry from the second allocation on). Everyone passed over was
    // rate-limited by the allocation, not by the fabric.
    int w = -1;
    std::uint64_t best = 0;
    for (unsigned i = 0; i < n; ++i) {
      if (!(contenders & (std::uint64_t{1} << i))) continue;
      const std::uint64_t s = served_[static_cast<std::size_t>(out) * n + i];
      if (w < 0 || s < best) {
        w = static_cast<int>(i);
        best = s;
      }
    }
    stats_.throttled +=
        static_cast<std::uint64_t>(std::popcount(contenders)) - 1;

    const auto vl = vl_of_[static_cast<unsigned>(w)];
    served_[static_cast<std::size_t>(out) * n + static_cast<unsigned>(w)] +=
        v.head_bytes(static_cast<iba::PortIndex>(w), vl);
    rr_vl_[static_cast<unsigned>(w)] = next_vl(vl);
    v.grant(static_cast<iba::PortIndex>(w), vl, out);
    ++stats_.grants;
    return true;
  }

  void roll_epochs(iba::Cycle now) {
    const iba::Cycle epoch = now / kRateEpochCycles;
    iba::Cycle elapsed = epoch - epoch_;
    epoch_ = epoch;
    if (elapsed == 0) return;
    if (elapsed > 63) elapsed = 63;
    for (auto& s : served_) s >>= elapsed;
  }

  unsigned ports_;
  unsigned rr_input_ = 0;  ///< Rotating priority of the guaranteed lane.
  std::vector<iba::VirtualLane> rr_vl_;  ///< Per-input VL round-robin.
  std::vector<std::uint64_t> served_;    ///< [out * ports + in] BE bytes.
  std::vector<iba::VirtualLane> vl_of_;  ///< Scratch: contender VL per input.
  iba::Cycle epoch_ = 0;
};

}  // namespace ibarb::sched
