// Experiment E6 — the paper's §4.1 claim: "We have evaluated networks with
// sizes ranging from 8 to 64 switches ... for all cases, the results are
// similar." This bench sweeps the network size and reports, per size, the
// admission outcome and the QoS headline numbers; the expected shape is a
// flat row of 100% deadline compliance across sizes. The sizes run in
// parallel via the sweep engine (--jobs N, see docs/SWEEP.md).
//
// 64 switches is expensive; it runs only with --full.
//
// A second phase measures the parallel simulation core (ISSUE 7): the same
// 16-switch scenario with large packets (MTU 4096 stretches the lookahead
// window) timed sequentially and with --speedup-shards workers, reported as
// a speedup row. The numbers are wall-clock and honest: with fewer hardware
// threads than shards the sharded run *loses* (barrier churn on one core);
// the byte-identical-output check runs either way. --skip-speedup omits the
// phase.
//
// A third phase measures the structured-topology registry (ISSUE 9): per
// (family, size) cell it builds the fabric, routes it with the family's
// engine, checks the channel-dependency graph for cycles, times flat-CSR
// route lookups under a global allocation counter (the column must read 0),
// and runs a short fixed-flow simulation for a host-cycles/us throughput
// figure. Default cells top out at a 1k-host dragonfly and a 4k-host
// fat-tree; --full adds 14k-110k-host instances (build/route/lookup only —
// a packet-level sim at that size measures the allocator, not the fabric).
// --skip-topo omits the phase.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <new>
#include <thread>

#include "iba/arbiter.hpp"
#include "network/registry.hpp"
#include "network/routing_engine.hpp"
#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

// Global allocation counter: the topology phase brackets its lookup loop
// with reads of this to *prove* the flat-CSR Routes table allocates nothing
// per lookup (the pre-registry per-path API allocated a vector per query).
static std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace ibarb;

namespace {

struct SizeRow {
  unsigned switches = 0;
  std::uint64_t hosts = 0;
  std::uint64_t connections = 0;
  double acceptance = 0.0;
  double mean_hops = 0.0;
  double switch_utilization = 0.0;
  double meet_deadline = 0.0;
  std::uint64_t misses = 0;
};

SizeRow summarize(const bench::PaperRun& run) {
  SizeRow row;
  row.switches = run.cfg.switches;
  row.hosts = run.graph.hosts().size();
  row.connections = run.workload.accepted;
  std::uint64_t rx = 0;
  double hops = 0.0;
  for (const auto& ec : run.workload.connections) {
    const auto& c = run.sim->metrics().connections[ec.flow];
    rx += c.rx_packets;
    row.misses += c.deadline_misses;
    hops += ec.stages - 1;
  }
  if (run.workload.offered > 0)
    row.acceptance = 100.0 * double(run.workload.accepted) /
                     double(run.workload.offered);
  if (!run.workload.connections.empty())
    row.mean_hops = hops / double(run.workload.connections.size());
  row.switch_utilization = run.table2().switch_utilization;
  if (rx > 0) row.meet_deadline = 100.0 * (1.0 - double(row.misses) / double(rx));
  return row;
}

struct SpeedupRow {
  unsigned shards = 0;     ///< Requested worker count.
  unsigned effective = 0;  ///< What the run actually used (fallback = 1).
  double seconds = 0.0;    ///< Simulation phase only (setup excluded).
  std::uint64_t events = 0;
  sim::ShardLoadStats load;  ///< Per-shard balance (empty when sequential).
};

/// Max/min per-shard event ratio: 1.0 is a perfect split, 0.0 when a shard
/// processed nothing (or the run was sequential).
double load_ratio(const sim::ShardLoadStats& load) {
  if (load.events.size() < 2) return 0.0;
  const auto [lo, hi] =
      std::minmax_element(load.events.begin(), load.events.end());
  return *lo > 0 ? double(*hi) / double(*lo) : 0.0;
}

/// Fraction of the workers' aggregate wall clock spent blocked on window
/// barriers — the load-imbalance tax the shard_balance figure tracks.
double barrier_wait_share(const sim::ShardLoadStats& load, double seconds) {
  if (load.barrier_wait_ns.empty() || seconds <= 0.0) return 0.0;
  double wait_ns = 0.0;
  for (const auto ns : load.barrier_wait_ns) wait_ns += double(ns);
  return wait_ns / (seconds * 1e9 * double(load.barrier_wait_ns.size()));
}

/// Times the simulation phase of one fig4-class run (16 switches, MTU 4096)
/// at the given shard count, via the two-phase PaperRun form so fabric and
/// workload construction stay out of the measurement.
SpeedupRow time_sharded_run(bench::PaperRunConfig cfg, unsigned shards) {
  cfg.switches = 16;
  cfg.mtu = iba::Mtu::kMtu4096;
  cfg.shards = shards;
  bench::PaperRun run(cfg, bench::PaperRun::DeferSim{});
  const auto t0 = std::chrono::steady_clock::now();
  run.run();
  SpeedupRow row;
  row.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  row.shards = shards;
  row.effective = run.sim->effective_shards();
  row.events = run.summary.events;
  row.load = run.sim->shard_load();
  return row;
}

// --- Topology-registry scaling phase (ISSUE 9) ----------------------------

struct TopoCase {
  const char* spec;     ///< Registry grammar string (network/registry.hpp).
  const char* routing;  ///< Engine the family pairs with.
  bool full_only = false;
};

constexpr TopoCase kTopoCases[] = {
    {"fattree:k=4,n=2", "fattree-dmodk"},
    {"fattree:k=8,n=2", "fattree-dmodk"},
    {"fattree:k=16,n=3", "fattree-dmodk"},               // 4096 hosts
    {"dragonfly:a=4,h=2,g=9,p=2", "minimal-vl-escape"},
    {"dragonfly:a=8,h=4,g=33,p=4", "minimal-vl-escape"}, // 1056 hosts
    {"torus3d:x=4,y=4,z=4", "minimal-vl-escape"},
    {"torus3d:x=8,y=8,z=8,hosts=2", "minimal-vl-escape"},    // 1024 hosts
    {"fattree:k=24,n=3", "fattree-dmodk", true},             // 13824 hosts
    {"dragonfly:a=16,h=8,g=129,p=8", "minimal-vl-escape", true},  // 16512
    {"torus3d:x=16,y=16,z=16,hosts=4", "minimal-vl-escape", true},  // 16384
    {"fattree:k=48,n=3", "fattree-dmodk", true},             // 110592 hosts
};

struct TopoRow {
  std::string family;
  std::string spec;
  std::string routing;
  std::uint64_t switches = 0;
  std::uint64_t hosts = 0;
  double build_ms = 0.0;
  double route_ms = 0.0;
  std::uint64_t table_bytes = 0;
  unsigned vl_layers = 1;
  int cdg = -1;  ///< 1 acyclic, 0 CYCLE, -1 skipped (size cap).
  double lookups_per_us = 0.0;
  std::uint64_t lookup_allocs = 0;  ///< Heap allocations across the loop.
  std::uint64_t sim_rx = 0;
  double host_cycles_per_us = 0.0;  ///< 0 when the sim was skipped.
};

/// Sink the lookup checksum so the loop cannot be optimized away.
volatile std::uint64_t g_lookup_sink = 0;

TopoRow run_topo_case(const TopoCase& tc) {
  using clock = std::chrono::steady_clock;
  const auto ms = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  TopoRow row;
  row.spec = tc.spec;
  row.routing = tc.routing;

  const auto spec = network::TopologySpec::parse(tc.spec);
  row.family = spec.family();
  const auto t0 = clock::now();
  const auto g = spec.build();
  const auto t1 = clock::now();
  const auto routes = network::compute_routes(g, tc.routing);
  const auto t2 = clock::now();
  row.build_ms = ms(t0, t1);
  row.route_ms = ms(t1, t2);
  row.switches = g.switches().size();
  row.hosts = g.hosts().size();
  row.table_bytes = routes.table_bytes();
  row.vl_layers = routes.vl_layers();

  // Deadlock freedom. Capped at 4096 switches: the edge set is O(n_sw^2)
  // and the giant --full instances are covered by the same check in
  // tests/test_routing_engines.cpp at representative sizes.
  if (row.switches <= 4096) row.cdg = network::cdg_acyclic(routes) ? 1 : 0;

  // Flat-CSR lookup throughput under the allocation counter. ~2M lookups,
  // strided over hosts so every destination row gets touched.
  const auto sws = routes.switch_ids();
  const auto hosts = g.hosts();
  const std::size_t stride =
      std::max<std::size_t>(1, sws.size() * hosts.size() / 2'000'000);
  std::uint64_t sum = 0, lookups = 0;
  const auto allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const auto t3 = clock::now();
  for (const auto sw : sws) {
    for (std::size_t i = 0; i < hosts.size(); i += stride) {
      sum += routes.out_port(sw, hosts[i]);
      sum += routes.vl(sw, hosts[i]);
      ++lookups;
    }
  }
  const auto t4 = clock::now();
  row.lookup_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  g_lookup_sink = sum;
  const double lookup_us = ms(t3, t4) * 1000.0;
  if (lookup_us > 0.0) row.lookups_per_us = double(lookups) / lookup_us;

  // Short fixed-flow simulation: eight CBR flows across the fabric, 300k
  // cycles. The flow count is constant, so the wall clock tracks the
  // per-hop cost of the full-size fabric, not the offered load. Skipped
  // above 8k hosts where per-port buffer state dominates the measurement.
  if (row.hosts <= 8192) {
    sim::Simulator simulator(g, routes, sim::SimConfig{});
    iba::VlArbitrationTable table;
    for (unsigned vl = 0; vl < 8; ++vl)
      table.high()[vl] = iba::ArbTableEntry{static_cast<iba::VirtualLane>(vl),
                                            64};
    for (iba::NodeId n = 0; n < g.node_count(); ++n) {
      const unsigned ports = g.is_switch(n) ? g.port_count(n) : 1;
      for (unsigned p = 0; p < ports; ++p)
        if (g.peer(n, static_cast<iba::PortIndex>(p)))
          simulator.set_output_arbitration(
              n, static_cast<iba::PortIndex>(p), table);
    }
    std::vector<std::uint32_t> flows;
    for (unsigned i = 0; i < 8; ++i) {
      sim::FlowSpec f;
      f.src_host = hosts[(i * hosts.size()) / 8];
      f.dst_host = hosts[((i * hosts.size()) / 8 + hosts.size() / 2) %
                         hosts.size()];
      if (f.src_host == f.dst_host) continue;
      f.sl = static_cast<iba::ServiceLevel>(i);
      f.payload_bytes = 256;
      f.interval = 2000 + 97 * i;
      f.deadline = 1u << 20;
      flows.push_back(simulator.add_flow(f));
    }
    constexpr iba::Cycle kSimCycles = 300'000;
    simulator.metrics().start_window(0);
    const auto t5 = clock::now();
    simulator.run_until(kSimCycles);
    const auto t6 = clock::now();
    for (const auto f : flows)
      row.sim_rx += simulator.metrics().connections[f].rx_packets;
    const double sim_us = ms(t5, t6) * 1000.0;
    if (sim_us > 0.0)
      row.host_cycles_per_us =
          double(kSimCycles) * double(row.hosts) / sim_us;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto sf = cli.std_flags(21);
  auto base = bench::config_from_cli(cli);
  const bool full = cli.get_bool("full", false);

  if (!sf.json) std::cout << "=== Scaling: 8..64 switches, small packets ===\n\n";

  std::vector<unsigned> sizes{8, 16, 32};
  if (full) sizes.push_back(64);
  std::vector<bench::PaperRunConfig> cfgs;
  for (const auto n : sizes) {
    auto cfg = base;
    cfg.switches = n;
    cfgs.push_back(cfg);
  }
  bench::apply_run0_observability(cfgs[0], sf);
  const auto sweep =
      bench::run_sweep(cfgs, bench::sweep_options_from_cli(cli, "scaling"));

  const bool skip_speedup = cli.get_bool("skip-speedup", false);
  const auto speedup_shards =
      static_cast<unsigned>(cli.get_int_in("speedup-shards", 4, 1, 64));
  const unsigned hw_threads = std::thread::hardware_concurrency();
  SpeedupRow seq_row, par_row;
  if (!skip_speedup) {
    if (!sf.json)
      std::cerr << "[speedup] 16-switch MTU-4096 run, sequential...\n";
    seq_row = time_sharded_run(base, 1);
    if (!sf.json)
      std::cerr << "[speedup] same run, --shards " << speedup_shards
                << "...\n";
    par_row = time_sharded_run(base, speedup_shards);
  }
  const double speedup =
      skip_speedup || par_row.seconds <= 0.0 ? 0.0
                                             : seq_row.seconds / par_row.seconds;

  const bool skip_topo = cli.get_bool("skip-topo", false);
  std::vector<TopoRow> topo_rows;
  if (!skip_topo) {
    for (const auto& tc : kTopoCases) {
      if (tc.full_only && !full) continue;
      if (!sf.json) std::cerr << "[topo] " << tc.spec << "...\n";
      topo_rows.push_back(run_topo_case(tc));
    }
  }

  int rc = 0;
  if (sf.json) {
    obs::Report report("scaling");
    bench::echo_config(report, base);
    report.config("full", full);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("sizes", [&](util::JsonWriter& w) {
      w.begin_array();
      for (const auto& run : sweep.runs) {
        const auto row = summarize(*run);
        w.begin_object();
        w.kv("switches", static_cast<std::uint64_t>(row.switches));
        w.kv("hosts", row.hosts);
        w.kv("connections", row.connections);
        w.kv("acceptance_pct", row.acceptance);
        w.kv("mean_hops", row.mean_hops);
        w.kv("switch_utilization", row.switch_utilization);
        w.kv("meet_deadline_pct", row.meet_deadline);
        w.kv("deadline_misses", row.misses);
        w.end_object();
      }
      w.end_array();
    });
    if (!skip_speedup) {
      report.figure("shards_speedup", [&](util::JsonWriter& w) {
        const auto row_obj = [&w](const SpeedupRow& r) {
          w.begin_object();
          w.kv("shards", static_cast<std::uint64_t>(r.shards));
          w.kv("effective_shards", static_cast<std::uint64_t>(r.effective));
          w.kv("seconds", r.seconds);
          w.kv("events", r.events);
          w.end_object();
        };
        w.begin_object();
        w.kv("switches", std::uint64_t{16});
        w.kv("mtu_bytes", std::uint64_t{4096});
        w.kv("hw_threads", static_cast<std::uint64_t>(hw_threads));
        w.key("sequential");
        row_obj(seq_row);
        w.key("sharded");
        row_obj(par_row);
        w.kv("speedup", speedup);
        // The determinism contract holds regardless of the wall clock.
        w.kv("events_identical", seq_row.events == par_row.events);
        w.end_object();
      });
      report.figure("shard_balance", [&](util::JsonWriter& w) {
        const auto& load = par_row.load;
        w.begin_object();
        w.kv("shards", static_cast<std::uint64_t>(par_row.shards));
        w.kv("effective_shards",
             static_cast<std::uint64_t>(par_row.effective));
        w.kv("windows", load.windows);
        w.key("events_per_shard").begin_array();
        for (const auto e : load.events) w.value(e);
        w.end_array();
        w.key("barrier_wait_ns_per_shard").begin_array();
        for (const auto ns : load.barrier_wait_ns) w.value(ns);
        w.end_array();
        // max/min per-shard events: 1.0 = perfect balance. Wall-clock-free,
        // so it is stable across machines (the wait share below is not).
        w.kv("load_ratio", load_ratio(load));
        w.kv("barrier_wait_share",
             barrier_wait_share(load, par_row.seconds));
        w.kv("orchestrator_wait_ns", load.orchestrator_wait_ns);
        w.end_object();
      });
    }
    if (!skip_topo) {
      report.figure("topo_scaling", [&](util::JsonWriter& w) {
        w.begin_array();
        for (const auto& r : topo_rows) {
          w.begin_object();
          w.kv("family", r.family);
          w.kv("spec", r.spec);
          w.kv("routing", r.routing);
          w.kv("switches", r.switches);
          w.kv("hosts", r.hosts);
          w.kv("build_ms", r.build_ms);
          w.kv("route_ms", r.route_ms);
          w.kv("table_bytes", r.table_bytes);
          w.kv("vl_layers", static_cast<std::uint64_t>(r.vl_layers));
          w.kv("cdg", r.cdg == 1   ? "acyclic"
                      : r.cdg == 0 ? "CYCLE"
                                   : "skipped");
          w.kv("lookups_per_us", r.lookups_per_us);
          w.kv("lookup_allocs", r.lookup_allocs);
          w.kv("sim_rx_packets", r.sim_rx);
          w.kv("host_cycles_per_us", r.host_cycles_per_us);
          w.end_object();
        }
        w.end_array();
      });
    }
    rc = bench::emit_report(report, cli);
  } else {
    util::TablePrinter table({"switches", "hosts", "connections",
                              "acceptance (%)", "mean hops", "switch util (%)",
                              "meet deadline (%)", "misses"});
    for (const auto& run : sweep.runs) {
      const auto row = summarize(*run);
      table.add_row(
          {std::to_string(row.switches), std::to_string(row.hosts),
           std::to_string(row.connections),
           util::TablePrinter::num(row.acceptance, 1),
           util::TablePrinter::num(row.mean_hops, 2),
           util::TablePrinter::num(row.switch_utilization * 100.0, 2),
           util::TablePrinter::num(row.meet_deadline, 3),
           std::to_string(row.misses)});
      std::cerr << "[" << row.switches
                << " switches] window=" << run->summary.window_cycles
                << (run->summary.hit_hard_limit ? " (HARD LIMIT)" : "") << "\n";
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: deadline compliance stays at 100% across\n"
                 "sizes (pass --full to include the 64-switch network).\n";
    if (!skip_speedup) {
      std::cout << "\n=== Parallel core: 16 switches, MTU 4096 ===\n\n";
      util::TablePrinter sp({"shards", "effective", "seconds", "events",
                             "speedup"});
      sp.add_row({"1", std::to_string(seq_row.effective),
                  util::TablePrinter::num(seq_row.seconds, 2),
                  std::to_string(seq_row.events), "1.00"});
      sp.add_row({std::to_string(par_row.shards),
                  std::to_string(par_row.effective),
                  util::TablePrinter::num(par_row.seconds, 2),
                  std::to_string(par_row.events),
                  util::TablePrinter::num(speedup, 2)});
      sp.print(std::cout);
      std::cout << "\n(" << hw_threads << " hardware threads; a speedup needs "
                << "at least shards+1 of them — see docs/PARALLEL.md. Event "
                << "counts must match regardless: "
                << (seq_row.events == par_row.events ? "OK" : "MISMATCH")
                << ")\n";
      if (!par_row.load.events.empty()) {
        std::cout << "shard balance: load ratio (max/min events) "
                  << util::TablePrinter::num(load_ratio(par_row.load), 2)
                  << ", barrier-wait share "
                  << util::TablePrinter::num(
                         100.0 *
                             barrier_wait_share(par_row.load, par_row.seconds),
                         1)
                  << "% of worker wall clock over " << par_row.load.windows
                  << " windows\n";
      }
    }
    if (!skip_topo) {
      std::cout << "\n=== Topology registry: structured families ===\n\n";
      util::TablePrinter tp({"topology", "routing", "switches", "hosts",
                             "build (ms)", "route (ms)", "table (MB)", "VLs",
                             "CDG", "lookups/us", "allocs", "sim rx",
                             "host-cyc/us"});
      for (const auto& r : topo_rows) {
        tp.add_row(
            {r.spec, r.routing, std::to_string(r.switches),
             std::to_string(r.hosts), util::TablePrinter::num(r.build_ms, 1),
             util::TablePrinter::num(r.route_ms, 1),
             util::TablePrinter::num(double(r.table_bytes) / 1e6, 2),
             std::to_string(r.vl_layers),
             r.cdg == 1   ? "acyclic"
             : r.cdg == 0 ? "CYCLE"
                          : "skipped",
             util::TablePrinter::num(r.lookups_per_us, 1),
             std::to_string(r.lookup_allocs),
             r.host_cycles_per_us > 0.0 ? std::to_string(r.sim_rx) : "-",
             r.host_cycles_per_us > 0.0
                 ? util::TablePrinter::num(r.host_cycles_per_us, 0)
                 : "-"});
      }
      tp.print(std::cout);
      std::cout << "\nRoute lookups go through the flat CSR table: the "
                   "'allocs' column counts heap\nallocations across the "
                   "whole ~2M-lookup loop and must read 0. 'CDG acyclic'\n"
                   "is the Dally/Seitz deadlock-freedom check on the "
                   "(port, VL) channel graph.\n(--full adds 14k-110k-host "
                   "instances, build/route/lookup only.)\n";
    }
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
} catch (const std::invalid_argument& e) {
  return bench::flag_error(e);
}
