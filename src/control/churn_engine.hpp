// ChurnEngine: a long-running admission-control service driven from a
// deterministic request stream (paper §4.2's "global frame" exercised as a
// control plane rather than a one-shot setup).
//
// Every engine tick runs through Simulator::call_at, so churn interleaves
// with fault injection and recovery in one deterministic event order. The
// stream issues connection setups (guaranteed and best-effort), teardowns
// and bandwidth modifies, with source-host popularity following a Zipf
// distribution so a few "hot" ports see most of the churn — the regime
// where defragmentation and Theorem 1 earn their keep.
//
// Three robustness layers:
//
//  * Overload protection. Arrivals land in bounded per-source-host queues.
//    Best-effort setups are load-shed once a queue passes its high-water
//    mark (3/4 full) — rejected before any guaranteed work is delayed.
//    Guaranteed setups that find the queue full are backpressured: the
//    client retries with capped exponential backoff plus seeded jitter
//    (the transport/rc backoff shape), giving up after a fixed retry
//    budget.
//
//  * No-false-reject auditing. A guaranteed setup the admission control
//    refuses is cross-examined with AdmissionControl::can_admit_path: if
//    every hop had room, the refusal is a Theorem-1 false reject and is
//    counted (bench_churn asserts the count stays zero). On an audit
//    cadence the engine also runs AdmissionControl::audit_full, which
//    re-proves free-set optimality on every port.
//
//  * Crash-consistent snapshots. The engine exposes its complete mutable
//    state through save_state/load_state and defers a requested snapshot
//    to the next quiescent tick (no fault window engaged, no repair
//    pending), so a restored world replays the remaining churn
//    byte-identically (control/snapshot.hpp holds the envelope).
//
// When a RecoveryCoordinator is attached, its connection-id changes
// (reroute remaps, suspensions, sheds, restores) flow back through the
// change listener so the engine's teardown/modify target set never goes
// stale.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/recovery.hpp"
#include "network/graph.hpp"
#include "qos/admission.hpp"
#include "sim/simulator.hpp"
#include "util/binary.hpp"
#include "util/rng.hpp"

namespace ibarb::control {

struct ChurnConfig {
  iba::Cycle tick = 10'000;          ///< Engine cadence, cycles.
  iba::Cycle horizon = 1'000'000;    ///< No ticks are scheduled past this.
  unsigned arrivals_per_tick = 4;    ///< Mean new operations per tick.
  unsigned serve_budget = 6;         ///< Queue operations served per tick.
  unsigned queue_capacity = 16;      ///< Per-source-host queue bound.
  double zipf_s = 1.2;               ///< Source-host popularity exponent.
  double modify_fraction = 0.15;     ///< Re-rate share of arrivals.
  double best_effort_fraction = 0.35;  ///< BE share of setups.
  double min_mbps = 4.0;             ///< Requested bandwidth range.
  double max_mbps = 48.0;
  std::uint64_t seed = 1;
};

/// Everything the "ctl.*" telemetry family publishes. Counters only — all
/// deterministic functions of (config, seed, fault plan), so an
/// uninterrupted run and a snapshot/restore run report identical values.
struct ChurnStats {
  std::uint64_t submitted = 0;        ///< Operations generated.
  std::uint64_t backpressured = 0;    ///< Guaranteed setups queued-full.
  std::uint64_t load_shed = 0;        ///< BE setups shed at the watermark.
  std::uint64_t admitted_guaranteed = 0;
  std::uint64_t admitted_best_effort = 0;
  std::uint64_t be_rejected = 0;      ///< BE refused by admission (no retry).
  std::uint64_t retries = 0;          ///< Backoff retry attempts served.
  std::uint64_t gave_up = 0;          ///< Guaranteed ops out of retries.
  std::uint64_t teardowns = 0;
  std::uint64_t modifies = 0;         ///< Re-rates applied.
  std::uint64_t modify_stale = 0;     ///< Target vanished before serving.
  std::uint64_t modify_failed_restored = 0;  ///< New rate refused, old back.
  std::uint64_t degradation_shed = 0;  ///< BE victims of engine degrading.
  std::uint64_t coord_remaps = 0;     ///< Reroute id updates via listener.
  std::uint64_t coord_losses = 0;     ///< Suspend/shed removals via listener.
  std::uint64_t coord_restores = 0;   ///< Repair re-adds via listener.
  std::uint64_t audits = 0;           ///< audit_full passes completed.
  std::uint64_t false_rejects = 0;    ///< Theorem-1 violations. MUST be 0.
  std::uint64_t ticks = 0;
};

class ChurnEngine {
 public:
  /// Registers the "ctl.*" telemetry probe (removed in the destructor).
  /// `injector` and `coordinator` may be null (pure-churn runs); when a
  /// coordinator is given the engine claims its change listener.
  ChurnEngine(sim::Simulator& sim, qos::AdmissionControl& admission,
              const network::FabricGraph& graph,
              faults::FaultInjector* injector,
              faults::RecoveryCoordinator* coordinator, ChurnConfig cfg);
  ~ChurnEngine();

  ChurnEngine(const ChurnEngine&) = delete;
  ChurnEngine& operator=(const ChurnEngine&) = delete;

  /// Schedules the first tick at now + cfg.tick. Call once, before running
  /// (a restored engine schedules its own tick from load_state instead).
  void start();

  /// Requests a crash-consistent snapshot: at the first tick with
  /// sim.now() >= not_before where the world is quiescent (no fault window
  /// engaged, no repair pending), `hook` runs exactly once, at the end of
  /// the tick. The hook typically calls control::save_world.
  using SnapshotHook = std::function<void(iba::Cycle now)>;
  void arm_snapshot(iba::Cycle not_before, SnapshotHook hook);

  /// Ticks deferred past `not_before` waiting for quiescence (stderr
  /// diagnostics only — never part of the report envelope).
  std::uint64_t snapshot_deferrals() const noexcept { return deferrals_; }

  bool quiescent() const noexcept;

  const ChurnStats& stats() const noexcept { return stats_; }
  std::uint64_t live_now() const noexcept {
    return live_guaranteed_.size() + live_best_effort_.size();
  }

  /// Serializes the full engine state: RNG stream, per-host queues, retry
  /// ledger, live-connection target sets, stats and the next tick time.
  void save_state(util::BinWriter& w) const;

  /// Restores state saved by save_state into an engine built with the same
  /// config over the same fabric, and schedules the next tick. Call after
  /// the tail fault plan is armed so event insertion order matches the
  /// snapshotted world. Throws std::runtime_error on config mismatch.
  void load_state(util::BinReader& r);

 private:
  enum class OpKind : std::uint8_t {
    kSetupGuaranteed = 0,
    kSetupBestEffort = 1,
    kModify = 2,
  };
  struct Op {
    OpKind kind = OpKind::kSetupGuaranteed;
    qos::ConnectionRequest request;
    std::uint32_t attempt = 0;
    qos::ConnectionId target = 0;  ///< kModify: the connection to re-rate.
  };
  struct Retry {
    iba::Cycle due = 0;
    Op op;
  };

  void tick();
  void generate_arrivals();
  void serve_queues();
  void serve_due_retries();
  void execute(Op& op);
  void do_setup_guaranteed(Op& op);
  void do_setup_best_effort(const Op& op);
  void do_modify(const Op& op);
  void do_teardown();
  void schedule_retry(Op op);
  void run_audit();
  void maybe_snapshot();
  void schedule_next_tick(iba::Cycle at);
  void on_coordinator_change(qos::ConnectionId old_id,
                             qos::ConnectionId new_id);

  std::size_t pick_zipf_host() /*rng*/;
  qos::ConnectionRequest make_request(bool best_effort);
  void drop_live(qos::ConnectionId id);

  static void save_op(util::BinWriter& w, const Op& op);
  static Op load_op(util::BinReader& r);

  sim::Simulator& sim_;
  qos::AdmissionControl& admission_;
  faults::FaultInjector* injector_;
  faults::RecoveryCoordinator* coordinator_;
  ChurnConfig cfg_;

  std::vector<iba::NodeId> hosts_;
  std::vector<double> zipf_cdf_;
  std::vector<iba::ServiceLevel> guaranteed_sls_;
  std::vector<iba::ServiceLevel> best_effort_sls_;

  util::Xoshiro256 rng_;
  std::vector<std::deque<Op>> queues_;    ///< One per source host.
  std::vector<Retry> retries_;            ///< Kept in scheduling order.
  std::vector<qos::ConnectionId> live_guaranteed_;
  std::vector<qos::ConnectionId> live_best_effort_;
  std::size_t rr_ = 0;                    ///< Round-robin serve cursor.
  std::uint64_t tick_index_ = 0;
  iba::Cycle next_tick_ = 0;              ///< Time of the next engine tick.
  bool started_ = false;

  ChurnStats stats_;
  double queue_peak_ = 0.0;               ///< High-water queue depth.
  double retry_peak_ = 0.0;               ///< High-water retry backlog.

  SnapshotHook snapshot_hook_;
  iba::Cycle snapshot_at_ = 0;
  std::uint64_t deferrals_ = 0;

  obs::TelemetryRegistry::ProbeId probe_ = 0;
};

}  // namespace ibarb::control
