// Experiment E8 — micro-benchmarks (google-benchmark) of the hot operations:
// the fill algorithm's free-set search, allocate/release/defragment on a
// TableManager, the IBA arbiter's per-packet decision, and the up*/down*
// route computation. These are the operations a subnet manager (tables) and
// a switch (arbiter) would run in production.
//
// With --json, runs the regression harness instead: wall-clock hot-path
// rates written as an obs::Report to BENCH_micro.json (override with
// --out) so CI can archive a comparable artifact per commit (docs/PERF.md
// explains how to read it).
//
// Harness sections (report figures):
//  * queue      — the timing-wheel event queue alone, under a fig4-shaped
//                 event stream (steady-state depth ~20k, the paper network's
//                 live event count).
//  * sim_fig4   — the full fig4-style experiment (16-switch irregular fabric,
//                 Table-1 workload, small MTU), simulation phase only.
//  * arbiter    — arbitration decisions/sec on dense and sparse tables.
//  * series     — the SeriesRecorder hot path: deliveries/sec through
//                 record_delivery + windowed commits, in a regime without
//                 decimation and one that forces repeated decimations.
//  * shard_channel — the parallel core's cross-shard plumbing: raw SPSC
//                 ring transfer between two threads, the window-burst
//                 push/drain pattern through a ShardChannel (ring + spill),
//                 and the promote step (sort by final (time, key), keyed
//                 insert into the event queue) that merges a window's
//                 cross-shard events.
//  * shard_obs  — the per-shard observability planes (ISSUE 10): the
//                 SeriesRecorder lane fold's per-delivery overhead at 4
//                 lanes (target <2%), and the Snapshot::merge cost of
//                 folding 4 per-shard telemetry parts.
//  * snapshot_roundtrip — the crash-consistent control-plane snapshot
//                 (control/snapshot.hpp): save_world / restore_world /
//                 audit_full wall cost and blob size at small (1k) and
//                 large (100k) live-connection populations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arbtable/fill_algorithm.hpp"
#include "arbtable/table_manager.hpp"
#include "control/snapshot.hpp"
#include "iba/arbiter.hpp"
#include "network/graph.hpp"
#include "network/routing.hpp"
#include "network/topology.hpp"
#include "qos/admission.hpp"
#include "qos/traffic_classes.hpp"
#include "subnet/subnet_manager.hpp"
#include "obs/report.hpp"
#include "obs/series.hpp"
#include "obs/telemetry.hpp"
#include "paper_runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

using namespace ibarb;

namespace {

arbtable::Requirement req_for_distance(unsigned d) {
  arbtable::Requirement r;
  r.distance = d;
  r.entries = iba::kArbTableEntries / d;
  r.weight_per_entry = 200;
  r.total_weight = r.entries * r.weight_per_entry;
  return r;
}

void BM_FindFreeSet(benchmark::State& state) {
  const auto distance = static_cast<unsigned>(state.range(0));
  // Half-full table: a realistic search.
  iba::ArbTable table{};
  util::Xoshiro256 rng(7);
  for (auto& e : table)
    if (rng.chance(0.5)) e = iba::ArbTableEntry{0, 1};
  for (auto _ : state) {
    auto set = arbtable::find_free_set(table, distance,
                                       arbtable::FillPolicy::kBitReversal);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_FindFreeSet)->Arg(2)->Arg(8)->Arg(64);

void BM_AllocateRelease(benchmark::State& state) {
  arbtable::TableManager::Config cfg;
  cfg.reservable_fraction = 1.0;
  arbtable::TableManager m(cfg);
  const auto req = req_for_distance(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const auto h = m.allocate(1, req, 0.001);
    benchmark::DoNotOptimize(h);
    m.release(*h, req, 0.001);
  }
}
BENCHMARK(BM_AllocateRelease)->Arg(2)->Arg(8)->Arg(64);

void BM_ChurnWithDefrag(benchmark::State& state) {
  arbtable::TableManager::Config cfg;
  cfg.reservable_fraction = 1.0;
  cfg.defrag_on_release = state.range(0) != 0;
  arbtable::TableManager m(cfg);
  util::Xoshiro256 rng(11);
  struct Live {
    arbtable::SeqHandle h;
    arbtable::Requirement r;
  };
  std::vector<Live> live;
  constexpr unsigned kDistances[] = {2, 4, 8, 16, 32, 64};
  for (auto _ : state) {
    if (!live.empty() && rng.chance(0.5)) {
      const auto i = rng.below(live.size());
      m.release(live[i].h, live[i].r, 0.001);
      live[i] = live.back();
      live.pop_back();
    } else {
      const auto r = req_for_distance(kDistances[rng.below(6)]);
      if (const auto h = m.allocate(1, r, 0.001))
        live.push_back(Live{*h, r});
    }
  }
}
BENCHMARK(BM_ChurnWithDefrag)->Arg(0)->Arg(1);

void BM_ArbiterDecision(benchmark::State& state) {
  // Fully programmed table, several competing VLs — the per-packet cost a
  // switch output port pays.
  iba::VlArbitrationTable t;
  for (unsigned i = 0; i < iba::kArbTableEntries; ++i)
    t.high()[i] = iba::ArbTableEntry{static_cast<iba::VirtualLane>(i % 10),
                                     static_cast<std::uint8_t>(100 + i % 50)};
  iba::VlArbiter arb(t);
  iba::ReadyBytes ready{};
  for (unsigned vl = 0; vl < 10; vl += 2) ready[vl] = 282;
  for (auto _ : state) {
    auto d = arb.arbitrate(ready);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ArbiterDecision);

void BM_ArbiterSparse(benchmark::State& state) {
  // Worst case: only one lightly-weighted VL ready, most entries skipped.
  iba::VlArbitrationTable t;
  for (unsigned i = 0; i < iba::kArbTableEntries; i += 16)
    t.high()[i] = iba::ArbTableEntry{3, 10};
  iba::VlArbiter arb(t);
  iba::ReadyBytes ready{};
  ready[3] = 4122;
  for (auto _ : state) {
    auto d = arb.arbitrate(ready);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ArbiterSparse);

void BM_UpDownRoutes(benchmark::State& state) {
  network::IrregularSpec spec;
  spec.switches = static_cast<unsigned>(state.range(0));
  spec.seed = 5;
  const auto g = network::gen::irregular(spec);
  for (auto _ : state) {
    auto routes = network::compute_routes(g);
    benchmark::DoNotOptimize(routes);
  }
  state.SetLabel(std::to_string(g.hosts().size()) + " hosts");
}
BENCHMARK(BM_UpDownRoutes)->Arg(8)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_Defragment(benchmark::State& state) {
  // Measure one defrag pass over a fragmented table (rebuild each time).
  util::Xoshiro256 rng(13);
  constexpr unsigned kDistances[] = {2, 4, 8, 16, 32, 64};
  for (auto _ : state) {
    state.PauseTiming();
    arbtable::TableManager::Config cfg;
    cfg.reservable_fraction = 1.0;
    cfg.defrag_on_release = false;
    arbtable::TableManager m(cfg);
    std::vector<std::pair<arbtable::SeqHandle, arbtable::Requirement>> live;
    for (int i = 0; i < 40; ++i) {
      if (!live.empty() && rng.chance(0.4)) {
        const auto k = rng.below(live.size());
        m.release(live[k].first, live[k].second, 0.001);
        live[k] = live.back();
        live.pop_back();
      } else {
        const auto r = req_for_distance(kDistances[rng.below(6)]);
        if (const auto h = m.allocate(1, r, 0.001)) live.emplace_back(*h, r);
      }
    }
    state.ResumeTiming();
    m.defragment();
  }
}
BENCHMARK(BM_Defragment);

// --- The --json regression harness -----------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Inter-event gap drawn from a fig4-shaped mixture: serialization and
/// crossbar completions land tens to hundreds of cycles out, link-level
/// deliveries a few thousand, CBR regenerations tens of thousands, and a
/// trickle beyond the 2^16-cycle wheel horizon exercises the overflow heap.
iba::Cycle fig4_delta(util::Xoshiro256& rng) {
  const double r = rng.uniform();
  if (r < 0.45) return static_cast<iba::Cycle>(rng.between(8, 600));
  if (r < 0.80) return static_cast<iba::Cycle>(rng.between(600, 4000));
  if (r < 0.99) return static_cast<iba::Cycle>(rng.between(4000, 60000));
  return static_cast<iba::Cycle>(rng.between(70000, 300000));
}

struct QueueResult {
  double push_ns = 0.0;        ///< Mean push cost while filling to depth.
  double pop_ns = 0.0;         ///< Mean pop cost while draining.
  double events_per_sec = 0.0; ///< Steady-state pop+reschedule throughput.
  std::uint64_t checksum = 0;  ///< Order-sensitive digest of popped events.
};

QueueResult measure_queue_once(std::size_t depth, std::uint64_t events,
                               std::uint64_t seed) {
  QueueResult res;
  // Gaps are pre-drawn into a ring so the timed loops measure the queue, not
  // the random-number generator; the ring fits in L2 and is read in order.
  constexpr std::size_t kRing = 1u << 16;
  static_assert((kRing & (kRing - 1)) == 0);
  std::vector<iba::Cycle> deltas(kRing);
  {
    util::Xoshiro256 rng(seed);
    for (auto& d : deltas) d = fig4_delta(rng);
  }
  std::size_t ring = 0;
  const auto next_delta = [&] { return deltas[ring++ & (kRing - 1)]; };
  sim::EventQueue q;
  iba::Cycle now = 0;

  const auto make_event = [&](iba::Cycle t) {
    sim::Event e;
    e.time = t;
    e.type = sim::EventType::kLinkDeliver;
    e.aux = static_cast<std::uint32_t>(t);
    return e;
  };

  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < depth; ++i) q.push(make_event(now + next_delta()));
  res.push_ns = seconds_since(t0) * 1e9 / static_cast<double>(depth);

  // Steady state: pop the earliest event and schedule a successor, the
  // hold-and-regenerate pattern every simulated packet follows.
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    const sim::Event e = q.pop();
    now = e.time;
    res.checksum = res.checksum * 1099511628211ull + (e.time ^ e.seq);
    q.push(make_event(now + next_delta()));
  }
  res.events_per_sec = static_cast<double>(events) / seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  while (!q.empty()) {
    const sim::Event e = q.pop();
    res.checksum = res.checksum * 1099511628211ull + (e.time ^ e.seq);
  }
  res.pop_ns = seconds_since(t0) * 1e9 / static_cast<double>(depth);
  return res;
}

/// Best of `reps` runs: wall-clock microbenchmarks are noisy downward only
/// (scheduling, frequency ramps), so the fastest run is the least-disturbed
/// estimate. The pop-order checksum must agree across every run.
QueueResult measure_queue(std::size_t depth, std::uint64_t events,
                          std::uint64_t seed, unsigned reps) {
  QueueResult best = measure_queue_once(depth, events, seed);
  for (unsigned r = 1; r < reps; ++r) {
    const QueueResult run = measure_queue_once(depth, events, seed);
    if (run.checksum != best.checksum) {
      std::cerr << "error: queue replay checksum varies across runs\n";
      std::exit(2);
    }
    best.events_per_sec = std::max(best.events_per_sec, run.events_per_sec);
    best.push_ns = std::min(best.push_ns, run.push_ns);
    best.pop_ns = std::min(best.pop_ns, run.pop_ns);
  }
  return best;
}

struct SimResult {
  double seconds = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
};

SimResult measure_sim(const bench::PaperRunConfig& cfg) {
  bench::PaperRun run(cfg, bench::PaperRun::DeferSim{});
  const auto t0 = std::chrono::steady_clock::now();
  run.run();
  SimResult res;
  res.seconds = seconds_since(t0);
  res.events = run.summary.events;
  res.events_per_sec = static_cast<double>(res.events) / res.seconds;
  return res;
}

double measure_arbiter(const iba::VlArbitrationTable& t,
                       const iba::ReadyBytes& ready, std::uint64_t decisions) {
  iba::VlArbiter arb(t);
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < decisions; ++i) {
    const auto d = arb.arbitrate(ready);
    sink += d ? d->vl : 0;
  }
  const double secs = seconds_since(t0);
  // Keep the loop observable without google-benchmark's DoNotOptimize.
  volatile std::uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(decisions) / secs;
}

struct SeriesBenchResult {
  double deliveries_per_sec = 0.0;  ///< record_delivery + commit throughput.
  double samples_per_sec = 0.0;     ///< Committed window boundaries per sec.
  std::uint64_t boundaries = 0;     ///< Boundaries driven through the run.
  std::uint64_t decimations = 0;    ///< Ring-halvings the run triggered.
};

/// Drives a standalone SeriesRecorder the way the simulator does: synthetic
/// delivery times sweep [0, sample_every*boundaries), advancing the window
/// clock before each record. `boundaries` below the ring capacity (512)
/// measures the plain sampling path; far above it, the decimation path.
SeriesBenchResult measure_series(std::uint64_t deliveries,
                                 std::uint64_t sample_every,
                                 std::uint64_t boundaries) {
  obs::TelemetryRegistry reg;
  auto& injected = reg.counter("micro.injected");
  obs::SeriesRecorder::Config sc;
  sc.sample_every = sample_every;
  obs::SeriesRecorder rec(reg, sc);
  constexpr std::uint32_t kConns = 8;
  for (std::uint32_t c = 0; c < kConns; ++c)
    rec.note_connection(c, static_cast<iba::ServiceLevel>(c % 10),
                        /*qos=*/true, /*deadline=*/5000);

  const iba::Cycle end = sample_every * boundaries;
  std::uint64_t ring = 0;
  constexpr std::size_t kRing = 1u << 12;
  std::vector<iba::Cycle> delays(kRing);
  {
    util::Xoshiro256 rng(29);
    for (auto& d : delays) d = rng.between(100, 6000);
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < deliveries; ++i) {
    const iba::Cycle t = i * end / deliveries;
    if (t > rec.next_due()) rec.advance_to(t);
    injected.inc();
    rec.record_delivery(static_cast<std::uint32_t>(i % kConns),
                        static_cast<iba::ServiceLevel>(i % 10),
                        delays[ring++ & (kRing - 1)], /*contracted=*/5000);
  }
  const auto data = rec.finalize(end);
  const double secs = seconds_since(t0);

  SeriesBenchResult res;
  res.deliveries_per_sec = static_cast<double>(deliveries) / secs;
  res.samples_per_sec = static_cast<double>(boundaries) / secs;
  res.boundaries = boundaries;
  res.decimations = data.decimations;
  return res;
}

struct ShardObsBenchResult {
  double single_lane_dps = 0.0;  ///< record_delivery+commit, one lane.
  double multi_lane_dps = 0.0;   ///< Same stream scattered over 4 lanes.
  double lane_fold_overhead_pct = 0.0;  ///< Multi-lane slowdown (target <2%).
  double snapshot_folds_per_sec = 0.0;  ///< Snapshot::merge of 4 shard parts.
  double snapshot_fold_us = 0.0;        ///< Mean wall cost of one fold.
};

/// The per-window series merge cost under shard lanes: the same delivery
/// stream recorded on one lane versus scattered over `lanes` (the shard
/// workers' pattern), committed every `sample_every` cycles. The committed
/// bytes are identical either way (tests/test_shard_obs.cpp); this measures
/// what the lane fold adds per delivery.
double measure_lane_fold(std::uint64_t deliveries, std::uint64_t sample_every,
                         std::uint64_t boundaries, std::size_t lanes) {
  obs::TelemetryRegistry reg;
  auto& injected = reg.counter("micro.injected");
  obs::SeriesRecorder::Config sc;
  sc.sample_every = sample_every;
  obs::SeriesRecorder rec(reg, sc);
  rec.set_lanes(lanes);
  constexpr std::uint32_t kConns = 8;
  for (std::uint32_t c = 0; c < kConns; ++c)
    rec.note_connection(c, static_cast<iba::ServiceLevel>(c % 10),
                        /*qos=*/true, /*deadline=*/5000);
  const iba::Cycle end = sample_every * boundaries;
  std::uint64_t ring = 0;
  constexpr std::size_t kRing = 1u << 12;
  std::vector<iba::Cycle> delays(kRing);
  {
    util::Xoshiro256 rng(29);
    for (auto& d : delays) d = rng.between(100, 6000);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < deliveries; ++i) {
    const iba::Cycle t = i * end / deliveries;
    if (t > rec.next_due()) rec.advance_to(t);
    injected.inc();
    obs::t_series_lane = i % lanes;
    rec.record_delivery(static_cast<std::uint32_t>(i % kConns),
                        static_cast<iba::ServiceLevel>(i % 10),
                        delays[ring++ & (kRing - 1)], /*contracted=*/5000);
  }
  obs::t_series_lane = 0;
  (void)rec.finalize(end);
  return static_cast<double>(deliveries) / seconds_since(t0);
}

/// The per-shard registry fold cost: Snapshot::merge over `parts` shard
/// snapshots shaped like a real run's envelope (shared counter/gauge names,
/// per-shard histogram bins) — the work the profile probe does once per
/// telemetry_snapshot() call when the engine is engaged.
ShardObsBenchResult measure_shard_obs(std::uint64_t deliveries,
                                      std::uint64_t folds) {
  ShardObsBenchResult res;
  // 256 boundaries: the pure sampling regime, no decimation noise.
  res.single_lane_dps =
      measure_lane_fold(deliveries, /*sample_every=*/4096,
                        /*boundaries=*/256, /*lanes=*/1);
  res.multi_lane_dps =
      measure_lane_fold(deliveries, /*sample_every=*/4096,
                        /*boundaries=*/256, /*lanes=*/4);
  if (res.multi_lane_dps > 0.0)
    res.lane_fold_overhead_pct =
        100.0 * (res.single_lane_dps / res.multi_lane_dps - 1.0);

  constexpr unsigned kParts = 4;
  std::vector<obs::Snapshot> parts(kParts);
  for (unsigned s = 0; s < kParts; ++s) {
    auto& p = parts[s];
    for (unsigned c = 0; c < 32; ++c)
      p.add_counter("queue.instrument_" + std::to_string(c), 1000 + c + s);
    for (unsigned g = 0; g < 8; ++g)
      p.merge_gauge("sim.gauge_" + std::to_string(g), double(g + s),
                    obs::MergePolicy::kMax);
    std::uint64_t bins[16] = {};
    bins[s] = 100 + s;
    for (unsigned h = 0; h < 4; ++h)
      p.add_histogram("shard.hist_" + std::to_string(h), bins, 16);
  }
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t f = 0; f < folds; ++f) {
    const auto merged = obs::Snapshot::merge(parts);
    sink += merged.counters.size();
  }
  const double secs = seconds_since(t0);
  volatile std::uint64_t keep = sink;
  (void)keep;
  res.snapshot_folds_per_sec = static_cast<double>(folds) / secs;
  res.snapshot_fold_us = secs * 1e6 / static_cast<double>(folds);
  return res;
}

struct ChannelBenchResult {
  double thread_xfer_per_sec = 0.0;  ///< Raw SPSC ring, producer vs consumer.
  double burst_per_sec = 0.0;        ///< ShardChannel window bursts w/ spill.
  double merge_per_sec = 0.0;        ///< Promote: sort + keyed queue insert.
  std::uint64_t spilled = 0;         ///< Burst items that overflowed the ring.
};

/// Benchmarks the cross-shard channel exactly as the engine uses it
/// (sim/shard.cpp): a producer journals pushes and hands pointers through
/// the SPSC ring; after the window barrier the consumer drains, sorts by
/// the final (time, key) and inserts into its event queue.
ChannelBenchResult measure_shard_channel(std::uint64_t items) {
  ChannelBenchResult res;

  // Raw ring, two threads: the in-window transfer path. On fewer cores
  // than threads this measures the yield-heavy oversubscribed regime —
  // still the regime the engine would run in there.
  {
    util::SpscQueue<sim::Push*> ring(1024);
    std::vector<sim::Push> pool(4096);
    const auto t0 = std::chrono::steady_clock::now();
    std::thread producer([&] {
      for (std::uint64_t i = 0; i < items; ++i) {
        sim::Push* p = &pool[i & 4095];
        while (!ring.try_push(std::move(p))) std::this_thread::yield();
      }
    });
    std::uint64_t got = 0;
    sim::Push* v = nullptr;
    while (got < items) {
      if (ring.try_pop(v))
        ++got;
      else
        std::this_thread::yield();
    }
    producer.join();
    res.thread_xfer_per_sec =
        static_cast<double>(items) / seconds_since(t0);
  }

  // Window bursts through a ShardChannel: push a whole window's worth
  // (beyond the ring, so the spill engages), then drain ring + spill —
  // the producer-finishes-then-consumer-drains shape the barrier imposes.
  constexpr std::size_t kBurst = 4096;
  {
    sim::ShardChannel ch;  // default 1024-slot ring: 3/4 of a burst spills
    std::vector<sim::Push> journal(kBurst);
    std::vector<sim::Push*> inbox;
    inbox.reserve(kBurst);
    const std::uint64_t rounds = std::max<std::uint64_t>(1, items / kBurst);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (auto& p : journal) ch.push(&p);
      inbox.clear();
      ch.drain(inbox);
      if (inbox.size() != kBurst) {
        std::cerr << "error: shard channel lost items\n";
        std::exit(2);
      }
    }
    res.burst_per_sec =
        static_cast<double>(rounds * kBurst) / seconds_since(t0);
    res.spilled = kBurst - std::min<std::uint64_t>(kBurst, 1024);
  }

  // Promote: the inbox sorted by final (time, key), then keyed insertion
  // into the event queue and a full in-order drain (the next window's pops).
  {
    sim::EventQueue q;
    std::vector<sim::Push> journal(kBurst);
    std::vector<sim::Push*> inbox(kBurst);
    util::Xoshiro256 rng(31);
    const std::uint64_t rounds =
        std::max<std::uint64_t>(1, items / (kBurst * 8));
    iba::Cycle base = 0;
    std::uint64_t key = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
      // Arrival order is channel order, i.e. effectively random in time.
      for (std::size_t i = 0; i < kBurst; ++i) {
        sim::Push& p = journal[i];
        p.ev.time = base + rng.between(0, 512);
        p.ev.type = sim::EventType::kLinkDeliver;
        p.ev.seq = key + 2 * i;  // unique keys in the doubled domain
        p.seq = p.ev.seq;
        p.origin = base;
        inbox[i] = &p;
      }
      key += 2 * kBurst;
      std::sort(inbox.begin(), inbox.end(),
                [](const sim::Push* a, const sim::Push* b) {
                  return a->ev.time != b->ev.time ? a->ev.time < b->ev.time
                                                  : a->seq < b->seq;
                });
      for (sim::Push* p : inbox) q.push_keyed(p->ev, p->origin, true);
      iba::Cycle prev = base;
      for (std::size_t i = 0; i < kBurst; ++i) {
        const sim::Event e = q.pop();
        if (e.time < prev) {
          std::cerr << "error: promote produced out-of-order pops\n";
          std::exit(2);
        }
        prev = e.time;
      }
      base += 600;  // next window starts past every event of this one
    }
    res.merge_per_sec =
        static_cast<double>(rounds * kBurst) / seconds_since(t0);
  }
  return res;
}

struct SnapshotBenchResult {
  std::uint64_t connections = 0;   ///< Live connections actually admitted.
  std::uint64_t bytes = 0;         ///< Sealed snapshot size.
  double save_ms = 0.0;            ///< save_world: serialize + CRC + seal.
  double restore_ms = 0.0;         ///< restore_world: parse, apply, audit,
                                   ///< re-serialize bit-exactness proof.
  double audit_ms = 0.0;           ///< One standalone audit_full pass.
};

/// Cost of a crash-consistent control-plane snapshot at a given live
/// population: a 64-host star fabric is filled with `target` tiny guaranteed
/// connections (round-robin pairs spread the per-port load), then the
/// save_world / restore_world / audit_full wall costs are measured.
SnapshotBenchResult measure_snapshot_roundtrip(std::uint64_t target) {
  constexpr unsigned kHosts = 64;
  network::FabricGraph graph;
  const iba::Link link{iba::LinkRate::k4x, 2};
  const auto sw = graph.add_switch(kHosts);
  for (unsigned h = 0; h < kHosts; ++h) {
    const auto host = graph.add_host();
    graph.connect(host, 0, sw, static_cast<iba::PortIndex>(h), link);
  }
  subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config ac;
  ac.seed = 41;
  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  ac);

  const auto hosts = graph.hosts();
  // Distance-64 SLs: one table entry per sequence and weight-1 sharing, so
  // six-figure live populations fit the 64-entry tables.
  constexpr iba::ServiceLevel kSls[] = {6, 7, 8, 9};
  SnapshotBenchResult res;
  for (std::uint64_t i = 0; res.connections < target; ++i) {
    if (i > target * 2) break;  // table space exhausted: report what fits
    qos::ConnectionRequest req;
    req.src_host = hosts[i % kHosts];
    req.dst_host = hosts[(i + 1 + i / kHosts) % kHosts];
    if (req.src_host == req.dst_host) continue;
    req.sl = kSls[i % std::size(kSls)];
    req.max_distance =
        qos::find_sl(admission.catalogue(), req.sl)->max_distance;
    req.wire_mbps = 0.05;  // weight-1 requirements: sharing packs densely
    if (admission.request(req)) ++res.connections;
  }

  const control::World world{&admission, nullptr, nullptr, nullptr};
  auto t0 = std::chrono::steady_clock::now();
  const auto blob = control::save_world(/*now=*/0, /*run_seed=*/41, world);
  res.save_ms = seconds_since(t0) * 1e3;
  res.bytes = blob.size();

  qos::AdmissionControl loaded(graph, sm.routes(), qos::paper_catalogue(),
                               ac);
  const control::World fresh{&loaded, nullptr, nullptr, nullptr};
  t0 = std::chrono::steady_clock::now();
  (void)control::restore_world(blob, /*run_seed=*/41, fresh);
  res.restore_ms = seconds_since(t0) * 1e3;

  t0 = std::chrono::steady_clock::now();
  std::string why;
  if (!loaded.audit_full(&why)) {
    std::cerr << "error: snapshot bench audit failed: " << why << "\n";
    std::exit(2);
  }
  res.audit_ms = seconds_since(t0) * 1e3;
  return res;
}

int run_json_harness(int argc, const char* const* argv) {
  const util::Cli cli(argc, argv);
  (void)cli.get_bool("json", true);  // consumed; routing happened in main()
  const std::string out_path = cli.get("out", "BENCH_micro.json");
  const auto depth =
      static_cast<std::size_t>(cli.get_int("queue-depth", 20000));
  const auto queue_events =
      static_cast<std::uint64_t>(cli.get_int("queue-events", 2'000'000));
  const auto queue_reps =
      static_cast<unsigned>(cli.get_int("queue-reps", 3));
  const auto arb_decisions =
      static_cast<std::uint64_t>(cli.get_int("arb-decisions", 2'000'000));
  const bool skip_sim = cli.get_bool("skip-sim", false);
  const auto series_deliveries = static_cast<std::uint64_t>(
      cli.get_int("series-deliveries", 2'000'000));
  const auto channel_items = static_cast<std::uint64_t>(
      cli.get_int("channel-items", 4'000'000));
  const auto shard_obs_folds = static_cast<std::uint64_t>(
      cli.get_int("shard-obs-folds", 50'000));
  const auto snapshot_small = static_cast<std::uint64_t>(
      cli.get_int("snapshot-small", 1'000));
  const auto snapshot_large = static_cast<std::uint64_t>(
      cli.get_int("snapshot-large", 100'000));

  bench::PaperRunConfig sim_cfg;
  sim_cfg.switches = static_cast<unsigned>(cli.get_int("switches", 16));
  sim_cfg.min_rx_packets =
      static_cast<std::uint64_t>(cli.get_int("packets", 10));
  sim_cfg.warmup = static_cast<iba::Cycle>(cli.get_int("warmup", 500'000));
  cli.warn_unused(std::cerr);

  std::cerr << "[bench_micro] queue replay (depth " << depth << ", "
            << queue_events << " events, best of " << queue_reps
            << ")...\n";
  const QueueResult queue =
      measure_queue(depth, queue_events, /*seed=*/2027, queue_reps);

  SimResult sim_run;
  if (!skip_sim) {
    std::cerr << "[bench_micro] fig4-style sim...\n";
    sim_run = measure_sim(sim_cfg);
  }

  std::cerr << "[bench_micro] arbiter decision rates...\n";
  iba::VlArbitrationTable dense;
  for (unsigned i = 0; i < iba::kArbTableEntries; ++i)
    dense.high()[i] =
        iba::ArbTableEntry{static_cast<iba::VirtualLane>(i % 10),
                           static_cast<std::uint8_t>(100 + i % 50)};
  iba::ReadyBytes dense_ready{};
  for (unsigned vl = 0; vl < 10; vl += 2) dense_ready[vl] = 282;

  iba::VlArbitrationTable sparse;
  for (unsigned i = 0; i < iba::kArbTableEntries; i += 16)
    sparse.high()[i] = iba::ArbTableEntry{3, 10};
  iba::ReadyBytes sparse_ready{};
  sparse_ready[3] = 4122;

  const double dense_rate = measure_arbiter(dense, dense_ready, arb_decisions);
  const double sparse_rate =
      measure_arbiter(sparse, sparse_ready, arb_decisions);

  std::cerr << "[bench_micro] series recorder (" << series_deliveries
            << " deliveries) x2 regimes...\n";
  // 256 boundaries stay under the 512-window ring: the pure sampling path.
  const SeriesBenchResult series_flat =
      measure_series(series_deliveries, /*sample_every=*/4096,
                     /*boundaries=*/256);
  // 16384 boundaries force ~5 decimation passes over a full ring.
  const SeriesBenchResult series_decim =
      measure_series(series_deliveries, /*sample_every=*/4096,
                     /*boundaries=*/16384);

  std::cerr << "[bench_micro] shard channel (" << channel_items
            << " items) x3 paths...\n";
  const ChannelBenchResult channel = measure_shard_channel(channel_items);

  std::cerr << "[bench_micro] shard observability (lane fold + "
            << shard_obs_folds << " snapshot folds)...\n";
  const ShardObsBenchResult shard_obs =
      measure_shard_obs(series_deliveries, shard_obs_folds);

  std::cerr << "[bench_micro] snapshot round-trip at " << snapshot_small
            << " and " << snapshot_large << " live connections...\n";
  const SnapshotBenchResult snap_small =
      measure_snapshot_roundtrip(snapshot_small);
  const SnapshotBenchResult snap_large =
      measure_snapshot_roundtrip(snapshot_large);

  obs::Report report("bench_micro");
  report.config("queue_depth", static_cast<std::uint64_t>(depth));
  report.config("queue_events", queue_events);
  report.config("queue_reps", static_cast<std::uint64_t>(queue_reps));
  report.config("arb_decisions", arb_decisions);
  report.config("switches", static_cast<std::uint64_t>(sim_cfg.switches));
  report.config("skip_sim", skip_sim);
  report.figure("queue", [&](util::JsonWriter& w) {
    w.begin_object();
    w.kv("workload", "fig4-shaped event stream");
    w.kv("depth", static_cast<std::uint64_t>(depth));
    w.kv("events", queue_events);
    w.kv("events_per_sec", queue.events_per_sec);
    w.kv("push_ns", queue.push_ns);
    w.kv("pop_ns", queue.pop_ns);
    w.end_object();
  });
  if (!skip_sim) {
    report.figure("sim_fig4", [&](util::JsonWriter& w) {
      w.begin_object();
      w.kv("switches", static_cast<std::uint64_t>(sim_cfg.switches));
      w.kv("events", sim_run.events);
      w.kv("seconds", sim_run.seconds);
      w.kv("events_per_sec", sim_run.events_per_sec);
      w.end_object();
    });
  }
  report.figure("arbiter", [&](util::JsonWriter& w) {
    w.begin_object();
    w.kv("dense_decisions_per_sec", dense_rate);
    w.kv("sparse_decisions_per_sec", sparse_rate);
    w.end_object();
  });
  report.figure("series", [&](util::JsonWriter& w) {
    const auto series_obj = [&w](const SeriesBenchResult& r) {
      w.begin_object();
      w.kv("deliveries_per_sec", r.deliveries_per_sec);
      w.kv("samples_per_sec", r.samples_per_sec);
      w.kv("boundaries", r.boundaries);
      w.kv("decimations", r.decimations);
      w.end_object();
    };
    w.begin_object();
    w.kv("deliveries", series_deliveries);
    w.key("flat");
    series_obj(series_flat);
    w.key("decimating");
    series_obj(series_decim);
    // >1 means the decimation path costs measurable per-delivery overhead.
    w.kv("decimation_slowdown",
         series_flat.deliveries_per_sec / series_decim.deliveries_per_sec);
    w.end_object();
  });
  report.figure("shard_channel", [&](util::JsonWriter& w) {
    w.begin_object();
    w.kv("items", channel_items);
    w.kv("thread_xfer_per_sec", channel.thread_xfer_per_sec);
    w.kv("burst_per_sec", channel.burst_per_sec);
    w.kv("spilled_per_burst", channel.spilled);
    w.kv("merge_per_sec", channel.merge_per_sec);
    w.end_object();
  });
  report.figure("shard_obs", [&](util::JsonWriter& w) {
    w.begin_object();
    w.kv("deliveries", series_deliveries);
    w.kv("single_lane_deliveries_per_sec", shard_obs.single_lane_dps);
    w.kv("four_lane_deliveries_per_sec", shard_obs.multi_lane_dps);
    // What the per-window lane fold adds per delivery; the acceptance
    // target is <2% at 4 shards (wall clock, so report-only — not a gate).
    w.kv("lane_fold_overhead_pct", shard_obs.lane_fold_overhead_pct);
    w.kv("snapshot_parts", std::uint64_t{4});
    w.kv("snapshot_folds", shard_obs_folds);
    w.kv("snapshot_folds_per_sec", shard_obs.snapshot_folds_per_sec);
    w.kv("snapshot_fold_us", shard_obs.snapshot_fold_us);
    w.end_object();
  });
  report.figure("snapshot_roundtrip", [&](util::JsonWriter& w) {
    const auto snap_obj = [&w](const SnapshotBenchResult& r) {
      w.begin_object();
      w.kv("connections", r.connections);
      w.kv("bytes", r.bytes);
      w.kv("save_ms", r.save_ms);
      w.kv("restore_ms", r.restore_ms);
      w.kv("audit_ms", r.audit_ms);
      w.end_object();
    };
    w.begin_object();
    w.key("small");
    snap_obj(snap_small);
    w.key("large");
    snap_obj(snap_large);
    w.end_object();
  });

  if (out_path == "-") {
    report.write(std::cout, /*pretty=*/true);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    report.write(out, /*pretty=*/true);
    std::cout << "wrote " << out_path << "\n";
  }

  std::cout << "queue   " << queue.events_per_sec / 1e6 << " Mev/s, push "
            << queue.push_ns << " ns, pop " << queue.pop_ns << " ns\n";
  if (!skip_sim)
    std::cout << "sim     " << sim_run.events_per_sec / 1e6 << " Mev/s\n";
  std::cout << "arbiter dense " << dense_rate / 1e6 << " Mdec/s, sparse "
            << sparse_rate / 1e6 << " Mdec/s\n";
  std::cout << "series  flat " << series_flat.deliveries_per_sec / 1e6
            << " Mdlv/s, decimating "
            << series_decim.deliveries_per_sec / 1e6 << " Mdlv/s ("
            << series_decim.decimations << " decimations)\n";
  std::cout << "channel xfer " << channel.thread_xfer_per_sec / 1e6
            << " Mit/s, burst " << channel.burst_per_sec / 1e6
            << " Mit/s, merge " << channel.merge_per_sec / 1e6 << " Mit/s\n";
  std::cout << "shardobs lane fold " << shard_obs.lane_fold_overhead_pct
            << "% overhead at 4 lanes, snapshot fold "
            << shard_obs.snapshot_fold_us << " us (4 parts)\n";
  std::cout << "snapshot " << snap_small.connections << " conns "
            << snap_small.bytes / 1024 << " KiB save " << snap_small.save_ms
            << " ms restore " << snap_small.restore_ms << " ms; "
            << snap_large.connections << " conns "
            << snap_large.bytes / 1024 << " KiB save " << snap_large.save_ms
            << " ms restore " << snap_large.restore_ms << " ms\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--json")
      return run_json_harness(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
