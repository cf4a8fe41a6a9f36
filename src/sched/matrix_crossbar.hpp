// Per-output triangular priority-matrix arbitration (the MATRIX arbiter of
// Orion / Dally & Towles §18.4 — SNIPPETS.md).
//
// Each output owns an N×N bit matrix m where m[i][j] = 1 means input i beats
// input j. The matrix is kept a strict total order: it is seeded with the
// index order (m[i][j] = i < j) and on every grant the winner drops to the
// bottom of the order (its row is cleared, its column is set), which keeps
// the relation linear. The winner among a requester set is therefore unique:
// the least-recently-served requester.
//
// That "loser rises one place per loss" dynamic is the no-starvation
// argument pinned by tests/test_crossbar.cpp: an input that keeps requesting
// an output beats every possible competitor after at most N-1 losses.
#pragma once

#include <cassert>
#include <vector>

#include "sched/ports.hpp"

namespace ibarb::sched {

class MatrixCrossbar final : public CrossbarScheduler {
 public:
  explicit MatrixCrossbar(unsigned ports)
      : ports_(ports),
        beats_(static_cast<std::size_t>(ports) * ports, 0),
        rr_vl_(ports, 0),
        vl_of_(ports, 0) {
    assert(ports >= 1 && ports <= 64 && "requester masks are 64-bit");
    // Seed with the index order: i beats j iff i < j.
    for (unsigned o = 0; o < ports; ++o)
      for (unsigned i = 0; i < ports; ++i)
        for (unsigned j = i + 1; j < ports; ++j)
          row(o, i) |= std::uint64_t{1} << j;
  }

  template <CrossbarPorts Ports>
  void schedule(Ports& v, int /*only_input*/) {
    // As with iSLIP, a single arrival can only enable transfers involving
    // the arriving input, so the full scan is sound (and losing a round
    // leaves the matrix untouched — priority only changes on grants).
    ++stats_.rounds;
    const unsigned n = ports_;
    bool progress = true;
    while (progress) {
      progress = false;
      ++stats_.iterations;
      for (unsigned o = 0; o < n; ++o) {
        const auto out = static_cast<iba::PortIndex>(o);
        if (!v.output_free(out)) continue;

        // Collect the requesters of this output: ready inputs whose VL
        // round-robin finds a head routed here with space downstream.
        std::uint64_t requesters = 0;
        for (unsigned i = 0; i < n; ++i) {
          const auto in = static_cast<iba::PortIndex>(i);
          if (!v.input_ready(in)) continue;
          for (VlRoundRobin vls(v.input_occupancy(in), rr_vl_[i]); vls;) {
            const iba::VirtualLane vl = vls.next();
            if (v.head_output(in, vl) != out) continue;
            if (!v.output_accepts(in, vl, out)) {
              ++stats_.blocked_space;
              continue;
            }
            requesters |= std::uint64_t{1} << i;
            vl_of_[i] = vl;
            break;
          }
        }
        if (requesters == 0) continue;

        // Winner: the unique requester that beats all other requesters
        // (the matrix encodes a total order, so it always exists).
        int w = -1;
        for (unsigned i = 0; i < n; ++i) {
          if (!(requesters & (std::uint64_t{1} << i))) continue;
          const std::uint64_t rivals = requesters & ~(std::uint64_t{1} << i);
          if ((rivals & ~row(o, i)) == 0) {
            w = static_cast<int>(i);
            break;
          }
        }
        assert(w >= 0 && "priority matrix lost totality");

        // Winner drops to the bottom of the order: clear its row, set its
        // column in everyone else's row.
        row(o, static_cast<unsigned>(w)) = 0;
        for (unsigned i = 0; i < n; ++i)
          if (i != static_cast<unsigned>(w))
            row(o, i) |= std::uint64_t{1} << w;

        const auto vl = vl_of_[static_cast<unsigned>(w)];
        rr_vl_[static_cast<unsigned>(w)] = next_vl(vl);
        v.grant(static_cast<iba::PortIndex>(w), vl, out);
        ++stats_.grants;
        progress = true;
      }
    }
  }

 private:
  /// Row mask of the matrix for output `out`: bit j of beats_[out*N + i]
  /// set when input i currently beats input j at that output.
  std::uint64_t& row(unsigned out, unsigned i) {
    return beats_[static_cast<std::size_t>(out) * ports_ + i];
  }

  unsigned ports_;
  std::vector<std::uint64_t> beats_;
  std::vector<iba::VirtualLane> rr_vl_;  ///< Per-input VL round-robin.
  std::vector<iba::VirtualLane> vl_of_;  ///< Scratch: chosen VL per input.
};

}  // namespace ibarb::sched
