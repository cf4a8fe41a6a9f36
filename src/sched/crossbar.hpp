// Pluggable crossbar schedulers (ROADMAP item 4).
//
// The simulator's switch model is a multiplexed crossbar: at most one VL of
// each input port may be feeding the fabric, and at most one output port may
// be receiving from it, at any time (sim/switch.hpp). WHICH (input, VL,
// output) transfers start — the matching policy — used to be hard-wired into
// sim::Simulator as a rotating-priority round-robin. This subsystem extracts
// that decision behind an interface so the policy is factory-selected per
// run (SimConfig::crossbar_impl, flag --crossbar):
//
//   * WrrCrossbar   — the exact pre-refactor algorithm, bit-identical event
//                     order (differential goldens in tests/golden/).
//   * IslipCrossbar — iSLIP(k): iterative request/grant/accept matching with
//                     per-port pointers that desynchronize under load
//                     (McKeown, "From MWM to iSLIP").
//   * MatrixCrossbar— per-output triangular priority-matrix arbiter
//                     (Orion's RR/MATRIX Arbiter family): least-recently-
//                     served wins, so no requesting input starves.
//
// The scheduler sees one switch through a CrossbarPorts view
// (sched/ports.hpp) and owns all of its own pointer/matrix state, so
// schedulers are per-switch instances and every decision is a pure function
// of simulation state — deterministic and byte-identical across --jobs like
// everything else. Each scheduler is a template over its view, and a switch
// holds its scheduler in a Crossbar (a std::variant of the three): one
// dispatch per schedule() call, and every view query inside it a direct
// call.
//
// The per-implementation invariants (maximal matching in <= N iterations,
// no starvation, Theorem-1 preservation) are executable checks in
// tests/test_crossbar.cpp; docs/SCHEDULERS.md states the full contract.
#pragma once

#include <stdexcept>
#include <variant>

#include "sched/crossbar_impl.hpp"
#include "sched/islip_crossbar.hpp"
#include "sched/matrix_crossbar.hpp"
#include "sched/ports.hpp"
#include "sched/wrr_crossbar.hpp"

namespace ibarb::sched {

/// One switch's matching policy, chosen per run. schedule() is invoked by
/// the simulator after any event that may enable a transfer (packet arrival
/// at an input, a transfer completing).
class Crossbar {
 public:
  /// A scheduler of kind `impl`, sized for `ports` crossbar ports.
  Crossbar(CrossbarImpl impl, unsigned ports) : policy_(make(impl, ports)) {}

  /// Runs matching rounds until no further transfer can start. When
  /// `only_input` >= 0 the round is restricted to that input — the cheap
  /// trigger after a single arrival (at most one transfer can start, since
  /// one input feeds at most one transfer).
  template <CrossbarPorts Ports>
  void schedule(Ports& ports, int only_input) {
    std::visit([&](auto& s) { s.schedule(ports, only_input); }, policy_);
  }

  const CrossbarScheduler::Stats& stats() const {
    return std::visit(
        [](const CrossbarScheduler& s) -> const CrossbarScheduler::Stats& {
          return s.stats();
        },
        policy_);
  }

 private:
  using Policy = std::variant<WrrCrossbar, IslipCrossbar, MatrixCrossbar>;

  static Policy make(CrossbarImpl impl, unsigned ports) {
    switch (impl) {
      case CrossbarImpl::kWrr: return WrrCrossbar(ports);
      case CrossbarImpl::kIslip: return IslipCrossbar(ports);
      case CrossbarImpl::kMatrix: return MatrixCrossbar(ports);
    }
    throw std::invalid_argument("Crossbar: unknown CrossbarImpl");
  }

  Policy policy_;
};

}  // namespace ibarb::sched
