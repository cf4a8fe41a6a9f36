// iSLIP(k) crossbar scheduling (McKeown, "From MWM to iSLIP" — PAPERS.md).
//
// Each matching round runs up to k request/grant/accept iterations:
//
//   request — every ready input requests every output for which it has an
//             eligible head packet (per-VL heads stand in for VOQs; a head
//             is eligible when its output is free and its target VL queue
//             has space);
//   grant   — every free, unmatched output grants the requesting input
//             nearest (cyclically) its grant pointer;
//   accept  — every unmatched input accepts the granting output nearest its
//             accept pointer. Pointers advance one past the matched partner
//             ONLY for matches made in the first iteration — the rule that
//             desynchronizes pointers under saturation and yields 100%
//             throughput on persistent traffic.
//
// Properties the tests pin down (tests/test_crossbar.cpp):
//   * the match is maximal after at most N = port_count iterations — no
//     unmatched (input, output) pair with an eligible request remains;
//   * no input or output is matched twice within one match;
//   * under full load the pointers desynchronize: after at most N cells
//     every cell carries a full permutation (100% throughput).
#pragma once

#include <cassert>
#include <vector>

#include "sched/ports.hpp"

namespace ibarb::sched {

class IslipCrossbar final : public CrossbarScheduler {
 public:
  /// `iterations` = 0 selects k = ports, which guarantees maximality.
  explicit IslipCrossbar(unsigned ports, unsigned iterations = 0)
      : ports_(ports),
        k_(iterations == 0 ? ports : iterations),
        grant_ptr_(ports, 0),
        accept_ptr_(ports, 0),
        rr_vl_(ports, 0),
        req_(ports, 0),
        vl_for_(static_cast<std::size_t>(ports) * ports, 0),
        grant_to_(ports, -1),
        match_of_in_(ports, -1) {
    assert(ports >= 1 && ports <= 64 && "request masks are 64-bit");
  }

  template <CrossbarPorts Ports>
  void schedule(Ports& v, int /*only_input*/) {
    // A single arrival only ever enables transfers involving the arriving
    // input (the fabric was quiescent before it), so running the full match
    // is both sound and simplest; unmatched requests never move pointers.
    ++stats_.rounds;
    while (match_once(v) > 0) {
    }
  }

  unsigned iterations_per_match() const noexcept { return k_; }

 private:
  /// One full iSLIP match + commit. Returns the number of grants made.
  template <CrossbarPorts Ports>
  unsigned match_once(Ports& v) {
    const unsigned n = ports_;

    // Request phase: each ready input requests every output for which it
    // has an eligible head. With several VLs routed to the same output, the
    // input's VL round-robin pointer picks which head the request stands
    // for.
    bool any_request = false;
    for (unsigned i = 0; i < n; ++i) {
      const auto in = static_cast<iba::PortIndex>(i);
      req_[i] = 0;
      match_of_in_[i] = -1;
      if (!v.input_ready(in)) continue;
      for (VlRoundRobin vls(v.input_occupancy(in), rr_vl_[i]); vls;) {
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
        if (req_[i] & (std::uint64_t{1} << out)) continue;
        req_[i] |= std::uint64_t{1} << out;
        vl_for_[static_cast<std::size_t>(i) * n + out] = vl;
        any_request = true;
      }
    }
    if (!any_request) return 0;

    std::uint64_t matched_in = 0;
    std::uint64_t matched_out = 0;

    for (unsigned it = 0; it < k_; ++it) {
      ++stats_.iterations;

      // Grant phase: every unmatched output with requests grants the
      // requesting input nearest its grant pointer.
      bool any_grant = false;
      for (unsigned o = 0; o < n; ++o) {
        grant_to_[o] = -1;
        if (matched_out & (std::uint64_t{1} << o)) continue;
        for (unsigned k = 0; k < n; ++k) {
          const unsigned i = (grant_ptr_[o] + k) % n;
          if (matched_in & (std::uint64_t{1} << i)) continue;
          if (!(req_[i] & (std::uint64_t{1} << o))) continue;
          grant_to_[o] = static_cast<int>(i);
          any_grant = true;
          break;
        }
      }
      if (!any_grant) break;

      // Accept phase: every unmatched input with grants accepts the granting
      // output nearest its accept pointer. Pointers move only on
      // first-iteration matches (the desynchronization rule).
      unsigned new_matches = 0;
      for (unsigned i = 0; i < n; ++i) {
        if (matched_in & (std::uint64_t{1} << i)) continue;
        int accepted = -1;
        for (unsigned k = 0; k < n; ++k) {
          const unsigned o = (accept_ptr_[i] + k) % n;
          if (grant_to_[o] == static_cast<int>(i)) {
            accepted = static_cast<int>(o);
            break;
          }
        }
        if (accepted < 0) continue;
        matched_in |= std::uint64_t{1} << i;
        matched_out |= std::uint64_t{1} << accepted;
        match_of_in_[i] = accepted;
        ++new_matches;
        if (it == 0) {
          grant_ptr_[accepted] = (i + 1) % n;
          accept_ptr_[i] = (static_cast<unsigned>(accepted) + 1) % n;
        }
      }
      if (new_matches == 0) break;
    }

    // Commit the match: start every matched transfer.
    unsigned grants = 0;
    for (unsigned i = 0; i < n; ++i) {
      if (match_of_in_[i] < 0) continue;
      const auto out = static_cast<iba::PortIndex>(match_of_in_[i]);
      const auto vl = vl_for_[static_cast<std::size_t>(i) * n + out];
      rr_vl_[i] = next_vl(vl);
      v.grant(static_cast<iba::PortIndex>(i), vl, out);
      ++stats_.grants;
      ++grants;
    }
    return grants;
  }

  unsigned ports_;
  unsigned k_;
  std::vector<unsigned> grant_ptr_;   ///< Per-output grant pointer.
  std::vector<unsigned> accept_ptr_;  ///< Per-input accept pointer.
  std::vector<iba::VirtualLane> rr_vl_;  ///< Per-input VL round-robin.

  // Scratch (allocated once; schedule() is called per event).
  std::vector<std::uint64_t> req_;     ///< Per-input requested-output mask.
  std::vector<iba::VirtualLane> vl_for_;  ///< [in * ports + out] chosen VL.
  std::vector<int> grant_to_;          ///< Per-output granted input or -1.
  std::vector<int> match_of_in_;       ///< Per-input matched output or -1.
};

}  // namespace ibarb::sched
