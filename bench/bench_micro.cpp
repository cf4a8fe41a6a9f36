// Experiment E8 — micro-benchmarks (google-benchmark) of the hot operations:
// the fill algorithm's free-set search, allocate/release/defragment on a
// TableManager, the IBA arbiter's per-packet decision, and the up*/down*
// route computation. These are the operations a subnet manager (tables) and
// a switch (arbiter) would run in production.
//
// Speed numbers for the simulator and the admission path come from
// perfbench (`python3 perfbench/run.py`, perfbench/README.md); these cases
// isolate single operations for quick relative comparisons.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arbtable/fill_algorithm.hpp"
#include "arbtable/table_manager.hpp"
#include "iba/arbiter.hpp"
#include "network/graph.hpp"
#include "network/routing.hpp"
#include "network/topology.hpp"
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

}  // namespace

BENCHMARK_MAIN();
