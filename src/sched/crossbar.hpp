// Pluggable crossbar schedulers (ROADMAP item 4).
//
// The simulator's switch model is a multiplexed crossbar: at most one VL of
// each input port may be feeding the fabric, and at most one output port may
// be receiving from it, at any time (sim/switch.hpp). WHICH (input, VL,
// output) transfers start — the matching policy — used to be hard-wired into
// sim::Simulator as a rotating-priority round-robin. This subsystem extracts
// that decision behind an interface so the policy is factory-selected per
// run (SimConfig::crossbar_impl, env IBARB_CROSSBAR, flag --crossbar):
//
//   * WrrCrossbar   — the exact pre-refactor algorithm, bit-identical event
//                     order (differential goldens in tests/golden/).
//   * IslipCrossbar — iSLIP(k): iterative request/grant/accept matching with
//                     per-port pointers that desynchronize under load
//                     (McKeown, "From MWM to iSLIP").
//   * MatrixCrossbar— per-output triangular priority-matrix arbiter
//                     (Orion's RR/MATRIX Arbiter family): least-recently-
//                     served wins, so no requesting input starves.
//   * AbrCrossbar   — guaranteed VLs (those in the output's high-priority
//                     arbitration table) ride the WRR core untouched; best-
//                     effort heads go through an ATM-ABR-style explicit-rate
//                     fair-share lane (max-min over served bytes).
//
// The scheduler sees one switch through the CrossbarPorts view and owns all
// of its own pointer/matrix/rate state, so schedulers are per-switch
// instances and every decision is a pure function of simulation state —
// deterministic and byte-identical across --jobs like everything else.
//
// The per-implementation invariants (maximal matching in <= N iterations,
// no starvation, Theorem-1 preservation) are executable checks in
// tests/test_crossbar.cpp; docs/SCHEDULERS.md states the full contract.
#pragma once

#include <cstdint>
#include <memory>

#include "iba/types.hpp"
#include "sched/crossbar_impl.hpp"

namespace ibarb::sched {

/// One switch's port state as the scheduler sees it during a matching
/// round. Implemented by the simulator (and by the mock fabric in
/// tests/test_crossbar.cpp). All queries are against current state; grant()
/// commits a transfer, which immediately makes its input and output busy.
class CrossbarPorts {
 public:
  virtual ~CrossbarPorts() = default;

  virtual unsigned port_count() const = 0;

  /// Current simulated time (the ABR lane's rate epochs live on it).
  virtual iba::Cycle now() const = 0;

  /// Input may feed the crossbar: wired, not already transferring, and
  /// holding at least one packet.
  virtual bool input_ready(iba::PortIndex in) const = 0;

  /// Bit v set when input `in` holds at least one packet on VL v.
  /// Meaningful only while input_ready(in).
  virtual std::uint16_t input_occupancy(iba::PortIndex in) const = 0;

  /// Output port the head packet of (in, vl) is routed to.
  virtual iba::PortIndex head_output(iba::PortIndex in,
                                     iba::VirtualLane vl) const = 0;

  /// Wire size of the head packet of (in, vl).
  virtual std::uint32_t head_bytes(iba::PortIndex in,
                                   iba::VirtualLane vl) const = 0;

  /// Output is not currently receiving a crossbar transfer.
  virtual bool output_free(iba::PortIndex out) const = 0;

  /// Output queue has room for the head packet of (in, vl) on the VL the
  /// output's SLtoVL table assigns it.
  virtual bool output_accepts(iba::PortIndex in, iba::VirtualLane vl,
                              iba::PortIndex out) const = 0;

  /// True when the head of (in, vl) is guaranteed traffic at `out`:
  /// management (VL15), or mapped onto a VL served by the output's
  /// high-priority arbitration table. The ABR lane never throttles these.
  virtual bool head_guaranteed(iba::PortIndex in, iba::VirtualLane vl,
                               iba::PortIndex out) const = 0;

  /// Commits a transfer of the head packet of (in, vl) into `out`: marks
  /// both ports busy and schedules the completion event. The caller must
  /// have established eligibility (input_ready, output_free,
  /// output_accepts) in this round.
  virtual void grant(iba::PortIndex in, iba::VirtualLane vl,
                     iba::PortIndex out) = 0;
};

/// Matching-policy interface. One instance per switch; schedule() is invoked
/// by the simulator after any event that may enable a transfer (packet
/// arrival at an input, a transfer completing).
class CrossbarScheduler {
 public:
  /// Always-on decision accounting, folded across switches into xbar.*
  /// telemetry by the simulator's snapshot probe (plain increments — the
  /// matching loop is a hot path).
  struct Stats {
    std::uint64_t rounds = 0;      ///< schedule() calls.
    std::uint64_t grants = 0;      ///< Transfers started.
    std::uint64_t iterations = 0;  ///< Matching iterations / scan passes.
    std::uint64_t blocked_output = 0;  ///< Head deferred: output busy.
    std::uint64_t blocked_space = 0;   ///< Head deferred: output VL full.
    std::uint64_t throttled = 0;   ///< ABR lane: best-effort head deferred
                                   ///< by the explicit-rate fair share.
  };

  virtual ~CrossbarScheduler() = default;

  virtual CrossbarImpl impl() const = 0;
  const char* name() const { return crossbar_impl_name(impl()); }

  /// Runs matching rounds until no further transfer can start. When
  /// `only_input` >= 0 the round is restricted to that input — the cheap
  /// trigger after a single arrival (at most one transfer can start, since
  /// one input feeds at most one transfer).
  virtual void schedule(CrossbarPorts& ports, int only_input) = 0;

  const Stats& stats() const noexcept { return stats_; }

 protected:
  Stats stats_;
};

/// Factory: one scheduler per switch, sized for `ports` crossbar ports.
std::unique_ptr<CrossbarScheduler> make_crossbar(CrossbarImpl impl,
                                                 unsigned ports);

}  // namespace ibarb::sched
