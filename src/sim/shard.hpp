// Deterministic parallel discrete-event engine: switch-affine shards
// advancing in bounded time windows (conservative synchronization in the
// Chandy–Misra lookahead tradition, without null messages), with the
// sequential run's tie-break order replayed *exactly*.
//
// Why replay: the sequential core breaks same-cycle ties with a global
// monotone push counter, i.e. by the order handlers happened to create the
// events. That order encodes unbounded history (two phase-locked transmit
// chains keep the relative push order they acquired when they first
// synchronized, arbitrarily long ago), so no bounded structural key —
// (cycle, creator, index) or similar — can reproduce it. The engine instead
// reconstructs the counter itself.
//
// Execution model, per Simulator::run_until(t):
//
//   1. The orchestrating thread computes the next window [W, end) where
//      W = min over shards of the earliest pending event and
//      end = min(W + lookahead, t + 1, next telemetry sampling mark).
//      The lookahead (partition.hpp::safe_window) guarantees every event a
//      shard executes inside the window can only schedule *cross-shard*
//      events at or after `end`.
//   2. Barrier A releases the shard workers. Each pops its local events with
//      time < end in (time, key) order and handles them. Every push a
//      handler makes is recorded in the shard's journal (a Push entry:
//      event, creating handler, position within the handler) instead of
//      being keyed immediately. Same-shard pushes due before `end` go into
//      the shard's nursery — a heap ordered by a provisional comparator
//      (below) — and execute within the window; later same-shard pushes park
//      in a pending list; cross-shard pushes travel as journal pointers
//      through SPSC channels.
//   3. Barrier B. The orchestrator — alone — replays the sequential
//      counter: it walks handler groups in (time, key) order (a heap seeded
//      with the handlers whose own key is already final, growing as
//      in-window children acquire keys) and assigns each journaled push the
//      key the sequential run would have stamped. Keys live in a doubled
//      domain — 2x the sequential counter for ordinary pushes — so the
//      reified kCreditRelease (which the sequential core performs *inline*
//      at the start of on_xfer_complete, before the handler's local pushes)
//      gets the unique odd key `partner - 1`, ordering exactly where the
//      inline half ran: after everything keyed before the transfer, before
//      the transfer's own local effects.
//   4. Barrier C. Workers drain their incoming channels plus their pending
//      list, sort by the now-final (time, key), and insert into their local
//      EventQueue. Barrier D: queues settled; the orchestrator plans the
//      next window (or finishes the run).
//
// The provisional nursery order is the final order: within one handler,
// pushes execute in push order (releases slotting just before their
// partner); across handlers, in handler (time, key) order, where a handler
// key still unassigned is compared through its parent chain — the exact
// recursion the replay performs later. Pre-window keys are always smaller
// than any key assigned this window (the counter only grows), which settles
// every queue-vs-nursery tie. Each shard therefore pops the same events in
// the same order as the sequential loop restricted to its nodes, any two
// events handled concurrently touch disjoint shard-owned state, and the
// final state — every report, golden file, telemetry snapshot — is
// byte-identical to the sequential run for any shard count.
//
// The engine refuses configurations it cannot reproduce exactly; the
// simulator then falls back to the sequential core (see
// Simulator::parallel_ready and docs/PARALLEL.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet_pool.hpp"
#include "sim/partition.hpp"
#include "sim/trace.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_pool.hpp"

namespace ibarb::obs {
struct CounterTrack;
struct PhaseSpan;
struct Snapshot;
}  // namespace ibarb::obs

namespace ibarb::sim {

class Simulator;
struct ShardLoadStats;

/// One journaled push: the event plus everything the replay needs to give
/// it the sequential counter value — who pushed it (group = the handler's
/// entry in ShardCtx::groups), at which position, and whether it is a
/// reified credit release (keyed `partner - 1` instead of consuming a
/// counter value). Journal storage is a deque, so pointers handed to
/// channels stay valid while the journal grows.
struct Push {
  Event ev;                ///< Moved out on in-window execution / promotion.
  /// A kLinkDeliver crossing a shard channel carries its packet by value:
  /// the producer releases its own slot, the consumer re-parks the copy in
  /// its pool during promote (each pool has one writer).
  iba::Packet packet;
  bool carries_packet = false;
  iba::Cycle origin = 0;   ///< Creating handler's cycle (residency stats).
  std::uint64_t seq = 0;   ///< Final key; assigned by the barrier-B replay.
  std::uint32_t group = 0; ///< Creating handler's group index.
  std::uint32_t idx = 0;   ///< Push position within that handler.
  /// When this event executed in-window and pushed something itself: the
  /// group it formed (its key becomes known the moment `seq` is assigned).
  std::int32_t exec_group = -1;
  bool release = false;    ///< kCreditRelease (slots before entry idx - 1).
};

/// One handler that pushed at least something this window: its cycle, its
/// own key (final from the start for handlers popped off the queue; filled
/// in by the replay for handlers executed out of the nursery) and the
/// contiguous journal range of its pushes.
struct Group {
  iba::Cycle time = 0;
  std::uint64_t seq = 0;     ///< Valid when `known`.
  bool known = false;
  std::int64_t self = -1;    ///< Journal index of the handler's own event.
  std::size_t begin = 0, end = 0;  ///< Journal range [begin, end).
};

/// Directed producer->consumer channel for cross-shard pushes: a lock-free
/// SPSC ring of journal pointers with a producer-local spill for bursts
/// beyond the ring capacity. The consumer touches it only in the promote
/// step after barrier C, which happens-after every producer push of the
/// window — and the pointed-at journals live until their owner's next
/// window.
struct ShardChannel {
  util::SpscQueue<Push*> ring;
  std::vector<Push*> spill;

  explicit ShardChannel(std::size_t capacity = 1024) : ring(capacity) {}

  /// Returns true when the ring was full and the push spilled — counted
  /// into the shard.spills instrument by the producer.
  bool push(Push* m) {
    if (ring.try_push(std::move(m))) return false;
    spill.push_back(m);
    return true;
  }

  void drain(std::vector<Push*>& out) {
    ring.drain(out);
    for (Push* m : spill) out.push_back(m);
    spill.clear();
  }
};

/// Per-worker execution state. While a worker runs a window, the
/// thread-local `t_shard` points at its context so Simulator handlers read
/// the shard clock and route pushes without plumbing a parameter through
/// every call.
struct ShardCtx {
  unsigned id = 0;
  EventQueue queue;
  /// Packets queued at this shard's nodes and in its events; written only
  /// by this shard's worker (or by the orchestrator between windows).
  PacketPool pool;
  iba::Cycle now = 0;        ///< Clock of the event being handled.

  // Identity of the executing handler, for journaling its pushes: a queue
  // pop carries a final key (known); a nursery pop is identified by its own
  // journal entry (self) until the replay assigns its key.
  bool handler_known = false;
  std::uint64_t handler_seq = 0;
  std::int64_t handler_self = -1;
  std::int32_t cur_group = -1;  ///< Lazily created on the handler's 1st push.

  std::deque<Push> journal;     ///< Every push of the current window.
  std::vector<Group> groups;    ///< Handlers that pushed, current window.
  std::vector<std::size_t> nursery;  ///< Min-heap: in-window journal events.
  std::vector<std::size_t> pending;  ///< Same-shard, due at/after window end.
  std::vector<Push*> inbox;     ///< Promote scratch, reused every window.

  std::uint64_t events = 0;  ///< Handled events, excluding credit releases.
  /// Credit-release pops — engine-internal, subtracted from the aggregated
  /// queue telemetry so it matches the sequential run.
  std::uint64_t internal_pops = 0;
  /// kCreditRelease events currently in `queue` — excluded from the
  /// pending-event census (the sequential run performs releases inline and
  /// never has one pending at a sampling mark).
  std::uint64_t pending_releases = 0;

  // --- Per-shard observability plane (docs/OBSERVABILITY.md, shard.*) ------

  /// This worker's wall-clock phase profiler; allocated only under
  /// SimConfig::profile and folded into the profile.* probe with the
  /// orchestrator's (ShardEngine::fold_profile).
  std::unique_ptr<obs::PhaseProfiler> profiler;

  /// A trace record emitted inside a parallel window, tagged with the
  /// emitting handler's identity. Its final replay key is `seq` when the
  /// handler came off the queue (`known`), else the key the barrier-B
  /// replay assigns to the handler's own journal entry (`self`).
  struct PendingTrace {
    TraceRecord rec;
    bool known = false;
    std::uint64_t seq = 0;
    std::int64_t self = -1;
  };
  /// Window-local trace buffer; merged into the shared PacketTrace ring in
  /// final (time, key) order by the orchestrator after barrier D.
  std::vector<PendingTrace> trace_buf;

  // Lifetime shard-health counters, published as the quarantined shard.*
  // telemetry family (never sampled into series columns, never part of a
  // determinism byte-compare).
  std::uint64_t lifetime_events = 0;   ///< Events folded across all windows.
  std::uint64_t windows = 0;           ///< Windows this worker executed.
  std::uint64_t journal_entries = 0;   ///< Journaled pushes, lifetime.
  std::uint64_t journal_peak = 0;      ///< Longest single-window journal.
  std::uint64_t nursery_events = 0;    ///< Same-window nursery executions.
  std::uint64_t promotes = 0;          ///< Events promoted after barrier C.
  std::uint64_t spills = 0;            ///< Channel pushes past ring capacity.
  std::uint64_t channel_depth_peak = 0;  ///< Max one-channel drain, lifetime.
  std::uint64_t window_channel_depth = 0;  ///< Same, this window only.
  std::uint64_t barrier_wait_ns = 0;   ///< Wall-clock barrier waits.
};

/// Current worker's shard context; null on the sequential path, between
/// windows, and on the orchestrating thread. constinit: other translation
/// units read it directly rather than through a TLS init wrapper.
extern constinit thread_local ShardCtx* t_shard;

class ShardEngine {
 public:
  /// Builds the engine (partition, channels, worker pool) or returns null
  /// with a diagnostic in `error` (too few switches, node count beyond the
  /// partition limit, zero-lookahead cut link). The engine starts inactive:
  /// it owns no events until adopt().
  static std::unique_ptr<ShardEngine> create(Simulator& sim, unsigned shards,
                                             std::string& error);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Migrates every pending event out of the sequential queue into the
  /// shard queues (preserving each event's key) and activates the engine.
  /// Seeds the replayed counter at twice the queue's, so every key assigned
  /// from here on sorts after every key that already exists. Every packet
  /// in flight (queued in a FIFO or carried by an event) is re-parked from
  /// the simulator's pool into the pool of the shard owning its node.
  void adopt(EventQueue& q);

  /// Inverse of adopt(): merges all shard queues back into `q` in global
  /// (time, key) order, re-parks every packet in the simulator's pool and
  /// deactivates the engine. Used when a hazard (fault hooks, a call_at
  /// control...) forces the sequential core mid-experiment; the engine can
  /// adopt() again later.
  void surrender(EventQueue& q);

  /// Pool of the shard owning `node` (valid while active).
  PacketPool& pool_of(iba::NodeId node) {
    return shards_[part_.shard_of[node]]->pool;
  }

  /// True between adopt() and surrender(): the shard queues own the events
  /// and every Simulator::push_event routes through route_push.
  bool active() const noexcept { return active_; }

  /// Runs all owned events with time <= t. Only valid while active.
  void run_until(iba::Cycle t);

  /// Journals the push under the executing handler and delivers it to the
  /// shard owning `home` (nursery, pending list, or channel). From the
  /// orchestrating thread (between windows) the key is final immediately.
  void route_push(Event&& e, iba::NodeId home);

  /// A new flow can shrink the smallest wire size and with it the safe
  /// window; recomputed lazily at the next run_until.
  void note_flow_wire(std::uint32_t wire_bytes);

  /// Adds the shard queues' counters to `into` (minus engine-internal
  /// credit-release traffic), so telemetry equals the sequential run's.
  void fold_stats(EventQueue::Stats& into) const;

  /// Folds every worker's wall-clock phase totals into `into` so the
  /// profile.* probe publishes one fleet-wide total regardless of shard
  /// count. No-op when profiling is off (workers carry no profiler).
  void fold_profile(obs::PhaseProfiler& into) const;

  /// Publishes the shard.* instrument family: per-shard load, window
  /// utilization, barrier waits, channel/journal high-waters, promote and
  /// spill counts. Quarantined (obs::is_quarantined_name) — registered only
  /// under the profile.* probe so determinism byte-compares never see it.
  void publish_shard_stats(obs::Snapshot& snap) const;

  /// Per-worker Perfetto tracks recorded under SimConfig::profile: one
  /// "shard N" track of window spans plus counter tracks for events,
  /// barrier-wait ns, and channel drain depth per window (capped at
  /// kMaxTrackWindows windows per shard, oldest kept).
  void export_tracks(std::vector<obs::PhaseSpan>& spans,
                     std::vector<obs::CounterTrack>& counters) const;

  /// Copies the per-shard load counters into `out` (bench_scaling's
  /// shard_balance figure). Valid whether or not profiling is on: events
  /// and barrier waits are always measured.
  void fill_load(ShardLoadStats& out) const;

  unsigned shards() const noexcept { return part_.shards; }
  iba::Cycle window() const noexcept { return window_; }

 private:
  ShardEngine(Simulator& sim, Partition part, std::uint32_t min_wire,
              iba::Cycle window);

  void worker(unsigned s);
  /// Moves every FIFO-queued packet between the simulator's pool and the
  /// owning shards' pools (adopt/surrender).
  void repark_buffers(bool into_shards);
  void resolve_keys();
  void barrier();
  void refresh_window();
  /// Orchestrator, after barrier D: folds each worker's window event count
  /// into the simulator's (so mid-run sampled counters match the sequential
  /// run), records the per-shard track point, and merges the window's trace
  /// buffers into the shared ring in final (time, key) order.
  void end_window(iba::Cycle begin, iba::Cycle end);
  void merge_window_traces();
  /// Pending events across all shard queues, minus queued credit releases —
  /// the exact census the sequential loop takes from queue_.size().
  std::uint64_t pending_total() const;
  ShardChannel& channel(unsigned from, unsigned to) {
    return *channels_[from * part_.shards + to];
  }

  Simulator& sim_;
  Partition part_;
  std::vector<std::unique_ptr<ShardCtx>> shards_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;  ///< from*N + to.
  util::ThreadPool pool_;
  bool active_ = false;

  /// The replayed sequential push counter, in the doubled key domain: an
  /// ordinary push is keyed next_key_ (even) and advances it by 2; a reified
  /// credit release takes the odd key `partner - 1`. Strictly greater than
  /// every key ever assigned.
  std::uint64_t next_key_ = 0;

  /// Replay scratch: the (time, key)-ordered heap of handler groups.
  struct GroupRef {
    iba::Cycle time;
    std::uint64_t seq;
    std::uint32_t shard;
    std::uint32_t group;
  };
  std::vector<GroupRef> resolve_heap_;

  std::uint32_t min_wire_;       ///< Smallest admitted wire size (bytes).
  bool window_dirty_ = false;
  iba::Cycle window_;            ///< Safe window width (lookahead).

  // --- Shard-health instrument state (shard.* family) -----------------------

  std::uint64_t windows_total_ = 0;   ///< Windows the orchestrator planned.
  std::uint64_t replay_groups_ = 0;   ///< Handler groups replayed (barrier B).
  std::uint64_t orch_wait_ns_ = 0;    ///< Orchestrator barrier waits.

  /// One per-shard sample per window, recorded only under SimConfig::profile
  /// and exported as Perfetto tracks. Bounded: after kMaxTrackWindows the
  /// newest windows are dropped (the cap is logged via shard.track_dropped).
  struct TrackPoint {
    iba::Cycle begin = 0, end = 0;
    std::uint64_t events = 0;
    std::uint64_t wait_ns = 0;
    std::uint64_t depth = 0;
  };
  static constexpr std::size_t kMaxTrackWindows = 4096;
  bool tracks_enabled_ = false;
  std::vector<std::vector<TrackPoint>> track_;   ///< [shard][window].
  std::vector<std::uint64_t> prev_wait_ns_;      ///< Wait delta baseline.
  std::uint64_t track_dropped_ = 0;

  /// Scratch for the per-window trace merge (orchestrator only).
  struct TraceRef {
    TraceRecord rec;
    std::uint64_t key = 0;
  };
  std::vector<TraceRef> trace_merge_;

  // Window controls: written by the orchestrator between barriers D and A,
  // read by workers after A — the barrier's acquire/release chain orders
  // these plain accesses.
  iba::Cycle window_end_ = 0;
  bool stop_ = false;

  // Sense-reversing spin barrier over shards + 1 orchestrator. Waiters spin
  // only when every party can have its own hardware thread; oversubscribed,
  // they yield immediately (spinning would steal the CPU from the very
  // party being waited for).
  const std::uint32_t parties_;
  const bool spin_waits_;
  std::atomic<std::uint32_t> arrivals_{0};
  std::atomic<std::uint32_t> generation_{0};
};

}  // namespace ibarb::sim
