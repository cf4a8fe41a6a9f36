// Extension of Table 2: all four IBA MTUs rather than only the paper's
// small/large pair. Shows the overhead/serialization trade across the whole
// range the specification permits. The four experiments run in parallel via
// the sweep engine (--jobs N, see docs/SWEEP.md); each MTU keeps the same
// base seed so every variant runs on the same fabric.
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto sf = cli.std_flags(21);
  const auto base = bench::config_from_cli(cli);

  if (!sf.json) std::cout << "=== MTU sweep: Table 2 across every IBA MTU ===\n\n";

  const iba::Mtu mtus[] = {iba::Mtu::kMtu256, iba::Mtu::kMtu1024,
                           iba::Mtu::kMtu2048, iba::Mtu::kMtu4096};
  std::vector<bench::PaperRunConfig> cfgs;
  for (const auto mtu : mtus) {
    auto cfg = base;
    cfg.mtu = mtu;
    cfgs.push_back(cfg);
  }
  bench::apply_run0_observability(cfgs[0], sf);
  const auto sweep =
      bench::run_sweep(cfgs, bench::sweep_options_from_cli(cli, "mtu"));

  int rc = 0;
  if (sf.json) {
    obs::Report report("mtu_sweep");
    bench::echo_config(report, base);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("mtus", [&](util::JsonWriter& w) {
      w.begin_array();
      for (const auto& run : sweep.runs) {
        std::uint64_t misses = 0;
        for (const auto& c : run->sim->metrics().connections)
          misses += c.deadline_misses;
        w.begin_object();
        w.kv("mtu_bytes",
             static_cast<std::uint64_t>(iba::mtu_bytes(run->cfg.mtu)));
        w.kv("efficiency", iba::mtu_efficiency(run->cfg.mtu));
        w.kv("connections", static_cast<std::uint64_t>(run->workload.accepted));
        w.kv("deadline_misses", misses);
        w.key("table2");
        bench::write_table2(w, run->table2());
        w.end_object();
      }
      w.end_array();
    });
    rc = bench::emit_report(report, cli);
  } else {
    util::TablePrinter table({"MTU", "efficiency", "connections",
                              "injected (B/cyc/node)", "delivered (B/cyc/node)",
                              "host util (%)", "switch util (%)", "misses"});
    for (const auto& run : sweep.runs) {
      const auto mtu = run->cfg.mtu;
      const auto t2 = run->table2();
      std::uint64_t misses = 0;
      for (const auto& c : run->sim->metrics().connections)
        misses += c.deadline_misses;
      table.add_row(
          {std::to_string(iba::mtu_bytes(mtu)),
           util::TablePrinter::pct(iba::mtu_efficiency(mtu), 1),
           std::to_string(run->workload.accepted),
           util::TablePrinter::num(t2.injected_bytes_per_cycle_per_node, 4),
           util::TablePrinter::num(t2.delivered_bytes_per_cycle_per_node, 4),
           util::TablePrinter::num(t2.host_utilization * 100.0, 2),
           util::TablePrinter::num(t2.switch_utilization * 100.0, 2),
           std::to_string(misses)});
      std::cerr << "[MTU " << iba::mtu_bytes(mtu)
                << "] window=" << run->summary.window_cycles
                << (run->summary.hit_hard_limit ? " (HARD LIMIT)" : "") << "\n";
    }
    table.print(std::cout);
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
} catch (const std::invalid_argument& e) {
  return bench::flag_error(e);
}
