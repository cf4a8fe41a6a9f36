#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "obs/chrome_trace.hpp"
#include "obs/series.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"

namespace ibarb::sim {

constinit thread_local ShardCtx* t_shard = nullptr;

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// A push's position within its handler, on the doubled scale the replay
/// uses: ordinary pushes at 2*idx, a reified credit release at 2*idx - 1 —
/// just before its kXferComplete partner (entry idx - 1), exactly where the
/// sequential core performs the release inline.
inline std::uint64_t eff_idx(const Push& p) {
  assert(!p.release || p.idx > 0);
  return p.release ? 2 * std::uint64_t{p.idx} - 1 : 2 * std::uint64_t{p.idx};
}

bool entry_before(const ShardCtx& c, const Push& a, const Push& b);

/// Final (time, key) order of two handler groups, computed before the keys
/// exist: known keys compare directly; a known key always precedes an
/// unknown one at the same cycle (keys assigned this window are strictly
/// larger than every earlier key); two unknown keys compare through their
/// parents — the push entries that created the handlers — which is exactly
/// the order the barrier-B replay will assign them in.
bool group_before(const ShardCtx& c, const Group& x, const Group& y) {
  if (x.time != y.time) return x.time < y.time;
  if (x.known && y.known) return x.seq < y.seq;
  if (x.known != y.known) return x.known;
  assert(x.self >= 0 && y.self >= 0);
  return entry_before(c, c.journal[static_cast<std::size_t>(x.self)],
                      c.journal[static_cast<std::size_t>(y.self)]);
}

/// Final key order of two journal entries of one shard (the nursery's
/// provisional comparator): same handler — push position; different
/// handlers — handler order.
bool entry_before(const ShardCtx& c, const Push& a, const Push& b) {
  if (a.group == b.group) return eff_idx(a) < eff_idx(b);
  return group_before(c, c.groups[a.group], c.groups[b.group]);
}

/// Nursery heap order over journal indices: event time first, then the
/// provisional (= final) key order. `std::push_heap` with this comparator
/// keeps the *earliest* entry at front.
struct NurseryLater {
  const ShardCtx& c;
  bool operator()(std::size_t ia, std::size_t ib) const {
    const Push& a = c.journal[ia];
    const Push& b = c.journal[ib];
    if (a.ev.time != b.ev.time) return b.ev.time < a.ev.time;
    return entry_before(c, b, a);
  }
};

}  // namespace

std::unique_ptr<ShardEngine> ShardEngine::create(Simulator& sim,
                                                 unsigned shards,
                                                 std::string& error) {
  PartitionResult pr = make_switch_affine(sim.graph_, shards);
  if (!pr.ok) {
    error = pr.error;
    return nullptr;
  }

  // Smallest wire size any admitted flow can put on a cut link. External
  // flows carry caller-chosen payloads per injection, so only the header is
  // a sound bound for them.
  std::uint32_t min_wire = iba::kPacketOverheadBytes + sim.cfg_.max_payload_bytes;
  for (const FlowState& f : sim.flows_) {
    const std::uint32_t wire =
        f.external ? iba::kPacketOverheadBytes
                   : f.payload_bytes + iba::kPacketOverheadBytes;
    min_wire = std::min(min_wire, wire);
  }

  const LookaheadModel model{min_wire, iba::kCrossbarDelay,
                             iba::kCrossbarSpeedup};
  const std::string zero = zero_lookahead_error(
      pr.partition, [&](const Partition::Cut& c) {
        return std::min(forward_latency(c.link, model.min_wire_bytes),
                        reverse_latency(c, model));
      });
  if (!zero.empty()) {
    error = zero;
    return nullptr;
  }

  const iba::Cycle window = safe_window(pr.partition, model);
  return std::unique_ptr<ShardEngine>(
      new ShardEngine(sim, std::move(pr.partition), min_wire, window));
}

ShardEngine::ShardEngine(Simulator& sim, Partition part,
                         std::uint32_t min_wire, iba::Cycle window)
    : sim_(sim), part_(std::move(part)), pool_(part_.shards),
      min_wire_(min_wire), window_(window), parties_(part_.shards + 1),
      spin_waits_(std::thread::hardware_concurrency() >= parties_) {
  shards_.reserve(part_.shards);
  for (unsigned s = 0; s < part_.shards; ++s) {
    auto ctx = std::make_unique<ShardCtx>();
    ctx->id = s;
    if (sim_.cfg_.profile) ctx->profiler = std::make_unique<obs::PhaseProfiler>();
    shards_.push_back(std::move(ctx));
  }
  tracks_enabled_ = sim_.cfg_.profile;
  if (tracks_enabled_) track_.resize(part_.shards);
  prev_wait_ns_.resize(part_.shards, 0);
  channels_.resize(std::size_t{part_.shards} * part_.shards);
  for (unsigned from = 0; from < part_.shards; ++from)
    for (unsigned to = 0; to < part_.shards; ++to)
      if (from != to)
        channels_[std::size_t{from} * part_.shards + to] =
            std::make_unique<ShardChannel>();
}

ShardEngine::~ShardEngine() = default;

void ShardEngine::note_flow_wire(std::uint32_t wire_bytes) {
  if (wire_bytes < min_wire_) {
    min_wire_ = wire_bytes;
    window_dirty_ = true;
  }
}

void ShardEngine::refresh_window() {
  if (!window_dirty_) return;
  window_dirty_ = false;
  const LookaheadModel model{min_wire_, iba::kCrossbarDelay,
                             iba::kCrossbarSpeedup};
  window_ = safe_window(part_, model);
}

void ShardEngine::adopt(EventQueue& q) {
  assert(!active_);
  // Every key assigned from here must sort after every existing one:
  // 2 * next_seq() is even, above 2x any stamped counter value, and above
  // any key from an earlier parallel phase (next_seq() was floored to
  // next_key_ at surrender).
  next_key_ = std::max(next_key_, 2 * q.next_seq());
  while (!q.empty()) {
    Event e = q.pop_uncounted();
    const iba::NodeId home = sim_.event_home_node(e);
    ShardCtx& c = *shards_[part_.shard_of[home]];
    if (e.type == EventType::kCreditRelease) ++c.pending_releases;
    if (e.pkt != kNoPacket) e.pkt = c.pool.park(sim_.pool_.take(e.pkt));
    c.queue.push_keyed(std::move(e), sim_.now_, /*count_stats=*/false);
  }
  sim_.serial_pending_releases_ = 0;
  repark_buffers(/*into_shards=*/true);
  assert(sim_.pool_.live() == 0);
  active_ = true;
}

void ShardEngine::repark_buffers(bool into_shards) {
  const auto repark = [&](iba::NodeId node, PortBuffers& b) {
    PacketPool& shard = shards_[part_.shard_of[node]]->pool;
    PacketPool& from = into_shards ? sim_.pool_ : shard;
    PacketPool& to = into_shards ? shard : sim_.pool_;
    b.for_each_handle([&](PacketHandle& h) { h = to.park(from.take(h)); });
  };
  for (SwitchState& sw : sim_.switches_) {
    for (InputPort& ip : sw.in) repark(sw.node, ip.buffers);
    for (OutputPort& op : sw.out) repark(sw.node, op.queues);
  }
  for (HostState& h : sim_.hosts_) repark(h.node, h.out.queues);
}

void ShardEngine::surrender(EventQueue& q) {
  assert(active_);
  for (;;) {
    ShardCtx* best = nullptr;
    for (auto& sc : shards_) {
      if (sc->queue.empty()) continue;
      if (best == nullptr) {
        best = sc.get();
        continue;
      }
      const Event& a = sc->queue.top();
      const Event& b = best->queue.top();
      if (a.time < b.time || (a.time == b.time && a.seq < b.seq))
        best = sc.get();
    }
    if (best == nullptr) break;
    Event e = best->queue.pop_uncounted();
    if (e.type == EventType::kCreditRelease) {
      --best->pending_releases;
      ++sim_.serial_pending_releases_;
    }
    if (e.pkt != kNoPacket) e.pkt = sim_.pool_.park(best->pool.take(e.pkt));
    q.push_keyed(std::move(e), 0, /*count_stats=*/false);
  }
  repark_buffers(/*into_shards=*/false);
  // Future sequential pushes must sort after every migrated key.
  q.ensure_seq_floor(next_key_);
  active_ = false;
}

void ShardEngine::route_push(Event&& e, iba::NodeId home) {
  ShardCtx* const from = t_shard;
  const std::uint32_t target = part_.shard_of[home];

  if (from == nullptr) {
    // Orchestrator context (between windows): nothing is concurrently
    // replaying, so the key is final immediately — the position the
    // sequential counter would stamp after all handled events. The workers
    // are parked, so a packet bound for another shard re-parks directly;
    // it sits in the pool of the transmitting node, the link's far end.
    assert(e.type != EventType::kCreditRelease);
    if (e.pkt != kNoPacket) {
      const auto src = sim_.graph_.peer(e.node, e.port);
      assert(src.has_value());
      const std::uint32_t owner = part_.shard_of[src->node];
      if (owner != target)
        e.pkt = shards_[target]->pool.park(shards_[owner]->pool.take(e.pkt));
    }
    e.seq = next_key_;
    next_key_ += 2;
    shards_[target]->queue.push_keyed(std::move(e), sim_.now_,
                                      /*count_stats=*/true);
    return;
  }

  ShardCtx& c = *from;
  if (c.cur_group < 0) {
    // The handler's first push: open its group. An in-window handler links
    // back to its own journal entry so the replay can key its children.
    c.cur_group = static_cast<std::int32_t>(c.groups.size());
    if (c.handler_self >= 0) {
      c.journal[static_cast<std::size_t>(c.handler_self)].exec_group =
          c.cur_group;
    }
    c.groups.push_back(Group{c.now, c.handler_seq, c.handler_known,
                             c.handler_self, c.journal.size(),
                             c.journal.size()});
  }
  Group& grp = c.groups[static_cast<std::size_t>(c.cur_group)];

  Push p;
  p.origin = c.now;
  p.group = static_cast<std::uint32_t>(c.cur_group);
  p.idx = static_cast<std::uint32_t>(c.journal.size() - grp.begin);
  p.release = e.type == EventType::kCreditRelease;
  // A release's key derives from the entry pushed right before it (its
  // kXferComplete partner, emitted back-to-back by XbarView::grant).
  assert(!p.release ||
         (p.idx > 0 && !c.journal[grp.begin + p.idx - 1].release));
  p.ev = std::move(e);
  c.journal.push_back(std::move(p));
  grp.end = c.journal.size();

  const std::size_t j = c.journal.size() - 1;
  if (target != c.id) {
    // The lookahead guarantees cross-shard events land at or after the
    // window end — they can never execute in their creation window, so a
    // journal pointer (keyed at barrier B, promoted after barrier C) is
    // enough. Its packet leaves this shard's pool and travels by value.
    assert(c.journal[j].ev.time >= window_end_);
    Push& moved = c.journal[j];
    if (moved.ev.pkt != kNoPacket) {
      moved.packet = c.pool.take(moved.ev.pkt);
      moved.carries_packet = true;
    }
    if (channel(c.id, target).push(&c.journal[j])) ++c.spills;
  } else if (c.journal[j].ev.time < window_end_) {
    c.nursery.push_back(j);
    std::push_heap(c.nursery.begin(), c.nursery.end(), NurseryLater{c});
  } else {
    c.pending.push_back(j);
  }
}

void ShardEngine::resolve_keys() {
  auto later = [](const GroupRef& a, const GroupRef& b) {
    return a.time != b.time ? b.time < a.time : b.seq < a.seq;
  };
  auto& h = resolve_heap_;
  h.clear();
  for (unsigned s = 0; s < part_.shards; ++s) {
    const ShardCtx& c = *shards_[s];
    for (std::size_t g = 0; g < c.groups.size(); ++g)
      if (c.groups[g].known)
        h.push_back(GroupRef{c.groups[g].time, c.groups[g].seq, s,
                             static_cast<std::uint32_t>(g)});
  }
  std::make_heap(h.begin(), h.end(), later);

  std::size_t processed = 0;
#ifndef NDEBUG
  std::size_t total = 0;
  for (const auto& sc : shards_) total += sc->groups.size();
#endif
  // Replay: handlers in (time, key) order, each handler's pushes in push
  // order — precisely the order the sequential loop stamped its counter in.
  while (!h.empty()) {
    std::pop_heap(h.begin(), h.end(), later);
    const GroupRef r = h.back();
    h.pop_back();
    ++processed;
    ShardCtx& c = *shards_[r.shard];
    const Group& grp = c.groups[r.group];
    for (std::size_t j = grp.begin; j < grp.end; ++j) {
      Push& p = c.journal[j];
      if (p.release) {
        p.seq = c.journal[j - 1].seq - 1;
      } else {
        p.seq = next_key_;
        next_key_ += 2;
      }
      p.ev.seq = p.seq;
      if (p.exec_group >= 0) {
        Group& child = c.groups[static_cast<std::size_t>(p.exec_group)];
        child.seq = p.seq;
        child.known = true;
        h.push_back(GroupRef{child.time, child.seq, r.shard,
                             static_cast<std::uint32_t>(p.exec_group)});
        std::push_heap(h.begin(), h.end(), later);
      }
    }
  }
  assert(processed == total && "unreachable handler group in key replay");
  replay_groups_ += processed;
}

void ShardEngine::fold_stats(EventQueue::Stats& into) const {
  for (const auto& sc : shards_) {
    const EventQueue::Stats& s = sc->queue.stats();
    into.pushes += s.pushes;
    into.pops += s.pops - sc->internal_pops;
    into.overflow_pushes += s.overflow_pushes;
    for (std::size_t b = 0; b < EventQueue::kResidencyBins; ++b)
      into.residency_log2[b] += s.residency_log2[b];
  }
}

std::uint64_t ShardEngine::pending_total() const {
  std::uint64_t n = 0;
  for (const auto& sc : shards_)
    n += sc->queue.size() - sc->pending_releases;
  return n;
}

void ShardEngine::barrier() {
  const std::uint32_t gen = generation_.load(std::memory_order_acquire);
  if (arrivals_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrivals_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    return;
  }
  // Spinning only pays when every party has its own core; oversubscribed
  // (shards + orchestrator > hardware threads), the waiter must get off the
  // CPU immediately so the party it is waiting for can run at all.
  // Wait time is charged to the waiter's shard.* instrument — wall clock,
  // so quarantined — and feeds bench_scaling's shard_balance figure; the
  // clock reads happen only on the wait path, never for the last arriver.
  const auto wait_begin = std::chrono::steady_clock::now();
  const unsigned spin_limit = spin_waits_ ? 4096 : 0;
  unsigned spins = 0;
  while (generation_.load(std::memory_order_acquire) == gen) {
    if (++spins < spin_limit) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - wait_begin)
                      .count();
  if (ShardCtx* const c = t_shard; c != nullptr) {
    c->barrier_wait_ns += static_cast<std::uint64_t>(ns);
  } else {
    orch_wait_ns_ += static_cast<std::uint64_t>(ns);
  }
}

void ShardEngine::worker(unsigned s) {
  ShardCtx& ctx = *shards_[s];
  t_shard = &ctx;
  // Each worker records per-SL series deliveries into its own lane; the
  // recorder folds lanes at commit (which only the orchestrator performs,
  // between windows), so the hot hook never shares a window map.
  obs::t_series_lane = s;
  const unsigned n = part_.shards;
  for (;;) {
    barrier();  // A: the orchestrator published window_end_ / stop_.
    if (stop_) break;
    const iba::Cycle end = window_end_;
    // Last window's journal was fully consumed (keys assigned at its
    // barrier B, events promoted after its barrier C, trace records merged
    // after barrier D); reuse the storage.
    ctx.journal.clear();
    ctx.groups.clear();
    ctx.nursery.clear();
    ctx.pending.clear();
    ctx.trace_buf.clear();
    ctx.window_channel_depth = 0;
    ++ctx.windows;

    EventQueue& q = ctx.queue;
    for (;;) {
      const bool has_q = !q.empty() && q.top_time() < end;
      const bool has_n = !ctx.nursery.empty();
      if (!has_q && !has_n) break;
      // Queue-vs-nursery tie at the same cycle: the queue event wins — its
      // key was assigned in an earlier window and the counter only grows.
      const bool from_q =
          has_q &&
          (!has_n || q.top_time() <= ctx.journal[ctx.nursery.front()].ev.time);
      Event e;
      if (from_q) {
        e = q.pop();
        ctx.handler_known = true;
        ctx.handler_seq = e.seq;
        ctx.handler_self = -1;
        if (e.type == EventType::kCreditRelease) {
          ++ctx.internal_pops;
          --ctx.pending_releases;
        }
      } else {
        std::pop_heap(ctx.nursery.begin(), ctx.nursery.end(),
                      NurseryLater{ctx});
        const std::size_t j = ctx.nursery.back();
        ctx.nursery.pop_back();
        Push& p = ctx.journal[j];
        // The sequential run pushed and popped this event through the
        // queue; mirror that in the stats even though it never queued here.
        if (!p.release) q.count_bypass(p.ev.time, p.origin);
        e = std::move(p.ev);
        ctx.handler_known = false;
        ctx.handler_seq = 0;
        ctx.handler_self = static_cast<std::int64_t>(j);
        ++ctx.nursery_events;
      }
      assert(e.time >= ctx.now && "time must not run backwards");
      ctx.now = e.time;
      ctx.cur_group = -1;
      if (e.type != EventType::kCreditRelease) ++ctx.events;
      {
        obs::ScopedTimer timer(ctx.profiler.get(),
                               obs::PhaseProfiler::kDispatch);
        sim_.handle(e);
      }
    }
    ctx.journal_entries += ctx.journal.size();
    if (ctx.journal.size() > ctx.journal_peak)
      ctx.journal_peak = ctx.journal.size();
    barrier();  // B: every producer finished pushing for this window.
    barrier();  // C: the orchestrator replayed the counter; keys final.
    ctx.inbox.clear();
    for (unsigned src = 0; src < n; ++src) {
      if (src == s) continue;
      const std::size_t before = ctx.inbox.size();
      channels_[std::size_t{src} * n + s]->drain(ctx.inbox);
      const auto depth = static_cast<std::uint64_t>(ctx.inbox.size() - before);
      if (depth > ctx.window_channel_depth) ctx.window_channel_depth = depth;
    }
    if (ctx.window_channel_depth > ctx.channel_depth_peak)
      ctx.channel_depth_peak = ctx.window_channel_depth;
    for (const std::size_t j : ctx.pending)
      ctx.inbox.push_back(&ctx.journal[j]);
    ctx.promotes += ctx.inbox.size();
    // Deterministic merge: global (time, key) order, independent of which
    // channel delivered what first. Near-sorted input, so the queue's
    // tail-append fast path dominates.
    std::sort(ctx.inbox.begin(), ctx.inbox.end(),
              [](const Push* a, const Push* b) {
                return a->ev.time != b->ev.time ? a->ev.time < b->ev.time
                                                : a->seq < b->seq;
              });
    for (Push* p : ctx.inbox) {
      if (p->release) ++ctx.pending_releases;
      if (p->carries_packet) p->ev.pkt = ctx.pool.park(p->packet);
      q.push_keyed(std::move(p->ev), p->origin, /*count_stats=*/!p->release);
    }
    barrier();  // D: queues settled; the orchestrator may plan.
  }
  t_shard = nullptr;
  obs::t_series_lane = 0;
}

void ShardEngine::run_until(iba::Cycle t) {
  assert(active_);
  refresh_window();
  stop_ = false;
  std::vector<std::future<void>> futs;
  futs.reserve(part_.shards);
  for (unsigned s = 0; s < part_.shards; ++s)
    futs.push_back(pool_.submit([this, s] { worker(s); }));

  obs::SeriesRecorder* const series = sim_.series_.get();
  for (;;) {
    iba::Cycle min_next = iba::kNeverCycle;
    for (const auto& sc : shards_)
      if (!sc->queue.empty())
        min_next = std::min(min_next, sc->queue.top_time());
    if (min_next > t) {
      // Mirrors the sequential loop's trailing mark: every boundary <= t is
      // behind us even if no event crossed it.
      if (t >= sim_.next_pending_mark_) sim_.sample_pending(pending_total(), t);
      break;
    }
    if (min_next >= sim_.next_pending_mark_)
      sim_.sample_pending(pending_total(), min_next);
    // Series boundaries commit here, between windows, in the exact position
    // the sequential loop commits them: after the pending census (a commit's
    // registry snapshot reads the census peak) and before the next event
    // runs. The workers are parked in barrier A, so the orchestrator samples
    // alone, and window ends never cross a boundary (clamp below) — every
    // boundary < min_next reflects precisely the events at or before it.
    if (series != nullptr && min_next > series->next_due()) {
      obs::ScopedTimer timer(sim_.profiler_.get(), obs::PhaseProfiler::kSeries);
      series->advance_to(min_next);
    }
    // Windows never span a sampling mark or a series boundary, so each
    // barrier lands exactly on it and the census / sampled state matches
    // the sequential engine's.
    iba::Cycle end = std::min(
        {min_next + window_, t + 1, sim_.next_pending_mark_});
    if (series != nullptr) end = std::min(end, series->next_due() + 1);
    window_end_ = end;
    barrier();  // A
    barrier();  // B
    resolve_keys();
    barrier();  // C
    barrier();  // D
    end_window(min_next, end);
    ++windows_total_;
  }

  stop_ = true;
  barrier();  // Release the workers into their exit branch.
  for (auto& f : futs) f.get();
  if (sim_.now_ < t) sim_.now_ = t;
  // Trailing boundary flush, as at the end of the sequential run_until.
  if (series != nullptr && t + 1 > series->next_due()) {
    obs::ScopedTimer timer(sim_.profiler_.get(), obs::PhaseProfiler::kSeries);
    series->advance_to(t + 1);
  }
}

void ShardEngine::end_window(iba::Cycle begin, iba::Cycle end) {
  for (auto& sc : shards_) {
    // Fold each worker's window event count into the simulator's so a
    // mid-run registry snapshot (series commit, probe) sees the same
    // sim.events a sequential run would at this boundary.
    sim_.events_ += sc->events;
    sc->lifetime_events += sc->events;
    if (tracks_enabled_) {
      auto& tp = track_[sc->id];
      if (tp.size() < kMaxTrackWindows) {
        tp.push_back(TrackPoint{begin, end, sc->events,
                                sc->barrier_wait_ns - prev_wait_ns_[sc->id],
                                sc->window_channel_depth});
      } else {
        ++track_dropped_;
      }
      prev_wait_ns_[sc->id] = sc->barrier_wait_ns;
    }
    sc->events = 0;
  }
  if (sim_.trace_.enabled()) merge_window_traces();
}

void ShardEngine::merge_window_traces() {
  trace_merge_.clear();
  for (const auto& sc : shards_) {
    for (const ShardCtx::PendingTrace& pt : sc->trace_buf) {
      // A handler that came off the queue carried its final key; one that
      // executed out of the nursery is a journal entry whose key the
      // barrier-B replay has assigned by now.
      const std::uint64_t key =
          pt.known ? pt.seq
                   : sc->journal[static_cast<std::size_t>(pt.self)].seq;
      trace_merge_.push_back(TraceRef{pt.rec, key});
    }
  }
  // Global (time, handler-key) order is exactly the order the sequential
  // loop executed these handlers in; records within one handler keep their
  // emission order through the sort's stability. Appending in that order
  // reproduces the sequential ring byte for byte, overwrite behavior
  // included.
  std::stable_sort(trace_merge_.begin(), trace_merge_.end(),
                   [](const TraceRef& a, const TraceRef& b) {
                     return a.rec.time != b.rec.time ? a.rec.time < b.rec.time
                                                     : a.key < b.key;
                   });
  for (const TraceRef& tr : trace_merge_) sim_.trace_.append(tr.rec);
}

void ShardEngine::fold_profile(obs::PhaseProfiler& into) const {
  for (const auto& sc : shards_)
    if (sc->profiler) into.merge(*sc->profiler);
}

void ShardEngine::publish_shard_stats(obs::Snapshot& snap) const {
  const std::size_t n = shards_.size();
  std::vector<std::uint64_t> events(n), wait(n), depth(n), jpeak(n);
  std::uint64_t total_events = 0, journal_entries = 0, nursery = 0;
  std::uint64_t promotes = 0, spills = 0, wait_total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const ShardCtx& c = *shards_[s];
    events[s] = c.lifetime_events;
    wait[s] = c.barrier_wait_ns;
    depth[s] = c.channel_depth_peak;
    jpeak[s] = c.journal_peak;
    total_events += c.lifetime_events;
    journal_entries += c.journal_entries;
    nursery += c.nursery_events;
    promotes += c.promotes;
    spills += c.spills;
    wait_total += c.barrier_wait_ns;
  }
  snap.merge_gauge("shard.count", static_cast<double>(n),
                   obs::MergePolicy::kMax);
  snap.merge_gauge("shard.window_cycles", static_cast<double>(window_),
                   obs::MergePolicy::kMax);
  snap.merge_gauge("shard.events_per_window",
                   windows_total_ == 0
                       ? 0.0
                       : static_cast<double>(total_events) /
                             static_cast<double>(windows_total_),
                   obs::MergePolicy::kMax);
  snap.add_counter("shard.windows", windows_total_);
  snap.add_counter("shard.events", total_events);
  snap.add_counter("shard.journal_entries", journal_entries);
  snap.add_counter("shard.nursery_events", nursery);
  snap.add_counter("shard.promotes", promotes);
  snap.add_counter("shard.spills", spills);
  snap.add_counter("shard.replay_groups", replay_groups_);
  snap.add_counter("shard.barrier_wait_ns", wait_total);
  snap.add_counter("shard.orchestrator_wait_ns", orch_wait_ns_);
  snap.add_counter("shard.track_windows_dropped", track_dropped_);
  // Per-shard distributions as histograms, bin = shard id: load balance,
  // wall-clock waits, and structural high-waters at a glance.
  snap.add_histogram("shard.events_by_shard", events.data(), n);
  snap.add_histogram("shard.barrier_wait_ns_by_shard", wait.data(), n);
  snap.add_histogram("shard.channel_depth_peak_by_shard", depth.data(), n);
  snap.add_histogram("shard.journal_peak_by_shard", jpeak.data(), n);
}

void ShardEngine::export_tracks(
    std::vector<obs::PhaseSpan>& spans,
    std::vector<obs::CounterTrack>& counters) const {
  if (!tracks_enabled_) return;
  for (std::size_t s = 0; s < track_.size(); ++s) {
    const std::string track = "shard " + std::to_string(s);
    obs::CounterTrack ev{"shard" + std::to_string(s) + ".events", {}};
    obs::CounterTrack wait{"shard" + std::to_string(s) + ".barrier_wait_ns",
                           {}};
    obs::CounterTrack depth{"shard" + std::to_string(s) + ".channel_depth",
                            {}};
    for (const TrackPoint& tp : track_[s]) {
      spans.push_back(obs::PhaseSpan{track, "window", tp.begin, tp.end});
      ev.points.emplace_back(tp.end, static_cast<double>(tp.events));
      // Barrier waits are wall-clock ns plotted against the simulated
      // timeline (a span would misleadingly occupy simulated time), and
      // channel depth is the deepest single-channel drain of the window.
      wait.points.emplace_back(tp.end, static_cast<double>(tp.wait_ns));
      depth.points.emplace_back(tp.end, static_cast<double>(tp.depth));
    }
    counters.push_back(std::move(ev));
    counters.push_back(std::move(wait));
    counters.push_back(std::move(depth));
  }
}

void ShardEngine::fill_load(ShardLoadStats& out) const {
  out.events.clear();
  out.barrier_wait_ns.clear();
  for (const auto& sc : shards_) {
    out.events.push_back(sc->lifetime_events);
    out.barrier_wait_ns.push_back(sc->barrier_wait_ns);
  }
  out.windows = windows_total_;
  out.orchestrator_wait_ns = orch_wait_ns_;
}

}  // namespace ibarb::sim
