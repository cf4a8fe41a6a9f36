// Experiment E4 — reproduces Figure 6: for the SLs with the strictest
// latency requirements (0-3), the per-threshold delay profile of the best
// and the worst connection (selected by the fraction of packets meeting the
// tightest threshold, D/30 — the paper likewise picks a threshold tight
// enough that Figure 4a is below 100%).
//
// Expected shape (paper §4.3): even the worst connection reaches 100% by D,
// and best/worst curves nearly coincide — the arbitration tables give every
// connection of an SL the same treatment.
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto sf = cli.std_flags(21);
  // Default to LARGE packets: they are the regime where the tight D/30
  // threshold discriminates (with 256 B packets every connection is already
  // at 100% there — see bench_fig4_delay panel (a)). The paper picked its
  // threshold for the same reason: tight enough that Figure 4a is < 100%.
  auto base = bench::PaperRunConfig{};
  base.mtu = iba::Mtu::kMtu4096;
  auto cfg = bench::config_from_cli(cli, base);
  // More packets per connection make the best/worst selection meaningful.
  if (!cli.has("packets") && !cli.get_bool("quick", false))
    cfg.min_rx_packets = 60;
  bench::apply_run0_observability(cfg, sf);

  if (!sf.json)
    std::cout << "=== Figure 6: best vs worst connection for the strictest "
                 "SLs ===\n\n";
  const auto sweep = bench::run_sweep({cfg},
                                      bench::sweep_options_from_cli(cli, "fig6"));
  const auto& run = *sweep.runs.front();

  int rc = 0;
  if (sf.json) {
    obs::Report report("fig6_bestworst");
    bench::echo_config(report, cfg);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, run);
    report.figure("best_worst", [&](util::JsonWriter& w) {
      w.begin_array();
      for (iba::ServiceLevel sl = 0; sl <= 3; ++sl) {
        const auto bw = run.best_worst(sl);
        if (!bw.found) continue;  // no received packets: nothing to rank
        w.begin_object();
        w.kv("sl", static_cast<std::uint64_t>(sl));
        w.kv("best_flow", static_cast<std::uint64_t>(
                              run.workload.connections[bw.best].flow));
        w.kv("worst_flow", static_cast<std::uint64_t>(
                               run.workload.connections[bw.worst].flow));
        w.key("best_within").begin_array();
        for (const double v : bw.best_within) w.value(v);
        w.end_array();
        w.key("worst_within").begin_array();
        for (const double v : bw.worst_within) w.value(v);
        w.end_array();
        w.end_object();
      }
      w.end_array();
    });
    rc = bench::emit_report(report, cli);
  } else {
    for (iba::ServiceLevel sl = 0; sl <= 3; ++sl) {
      const auto bw = run.best_worst(sl);
      if (!bw.found) {
        std::cout << "SL " << int(sl) << ": no received packets, skipped\n\n";
        continue;
      }
      const auto& best = run.workload.connections[bw.best];
      const auto& worst = run.workload.connections[bw.worst];
      std::cout << "SL " << int(sl) << " (best: flow " << best.flow
                << ", worst: flow " << worst.flow << ")\n";
      std::vector<std::string> headers{"connection"};
      for (std::size_t k = 0; k < sim::kDelayThresholds; ++k)
        headers.push_back(bench::threshold_label(k));
      util::TablePrinter table(headers);
      std::vector<std::string> brow{"best"};
      std::vector<std::string> wrow{"worst"};
      for (std::size_t k = 0; k < sim::kDelayThresholds; ++k) {
        brow.push_back(util::TablePrinter::num(bw.best_within[k] * 100.0, 2));
        wrow.push_back(util::TablePrinter::num(bw.worst_within[k] * 100.0, 2));
      }
      table.add_row(std::move(brow));
      table.add_row(std::move(wrow));
      table.print(std::cout);
      const double spread = bw.best_within[0] - bw.worst_within[0];
      std::cout << "best-worst spread at D/30: "
                << util::TablePrinter::num(spread * 100.0, 2)
                << " percentage points; both at D: "
                << util::TablePrinter::num(bw.worst_within.back() * 100.0, 1)
                << "%\n\n";
    }
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, run);
  if (!bench::export_series_csv(run, sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
} catch (const std::invalid_argument& e) {
  return bench::flag_error(e);
}
