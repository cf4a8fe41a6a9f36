// Design-choice ablation: the LimitOfHighPriority value.
//
// The paper leaves 20% of every link to best-effort traffic but serves all
// guaranteed classes from the high-priority table; LimitOfHighPriority
// controls how many bytes of high-priority traffic may pass while a
// low-priority (best-effort) packet waits. This bench sweeps the limit and
// shows the trade: an unlimited value starves best effort under load, while
// small values hand it bandwidth at the cost of QoS-class latency margins.
// The four limits run in parallel via the sweep engine (--jobs N).
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

namespace {

struct LimitRow {
  unsigned limit = 0;
  double qos_miss_fraction = 0.0;
  double qos_mean_delay_us = 0.0;
  double be_delivered_mbps_per_host = 0.0;
  double be_mean_delay_us = 0.0;
};

LimitRow summarize(const bench::PaperRun& run) {
  LimitRow row;
  row.limit = run.cfg.limit_of_high_priority;
  const auto& m = run.sim->metrics();
  const auto window = static_cast<double>(m.window_length());

  std::uint64_t qos_rx = 0, qos_miss = 0, qos_delay = 0;
  std::uint64_t be_bytes = 0;
  double be_delay = 0.0;
  std::uint64_t be_flows = 0;
  for (const auto& c : m.connections) {
    if (c.qos) {
      qos_rx += c.rx_packets;
      qos_miss += c.deadline_misses;
      qos_delay += c.delay_sum;
    } else {
      be_bytes += c.rx_wire_bytes;
      be_delay += c.mean_delay();
      ++be_flows;
    }
  }
  if (qos_rx > 0) {
    row.qos_miss_fraction = double(qos_miss) / double(qos_rx);
    row.qos_mean_delay_us =
        double(qos_delay) / double(qos_rx) * iba::kNsPerCycle / 1000.0;
  }
  if (window > 0)
    row.be_delivered_mbps_per_host =
        static_cast<double>(be_bytes) * 8.0 * 1000.0 /
        (window * iba::kNsPerCycle) /
        static_cast<double>(run.graph.hosts().size());
  if (be_flows > 0)
    row.be_mean_delay_us =
        be_delay / double(be_flows) * iba::kNsPerCycle / 1000.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto sf = cli.std_flags(21);
  auto base = bench::config_from_cli(cli);
  base.besteffort_load = cli.get_double_in("be-load", 0.25, 0.0, 1.0);
  // The limit only matters while the high-priority table has backlog at the
  // moment low-priority packets wait: drive the guaranteed classes into
  // backlog by making them all oversend (cf. bench_misbehavior).
  base.oversend_sl_mask = 0x3FF;  // every QoS SL misbehaves
  base.oversend_factor = cli.get_double_in("oversend", 2.5, 1.0);

  if (!sf.json)
    std::cout << "=== Ablation: LimitOfHighPriority (best-effort load "
              << base.besteffort_load << " per host; QoS classes oversending "
              << base.oversend_factor << "x) ===\n\n";

  const unsigned limits[] = {255u, 16u, 4u, 1u};
  std::vector<bench::PaperRunConfig> cfgs;
  for (const unsigned limit : limits) {
    auto cfg = base;
    cfg.limit_of_high_priority = static_cast<std::uint8_t>(limit);
    cfgs.push_back(cfg);
  }
  bench::apply_run0_observability(cfgs[0], sf);
  const auto sweep =
      bench::run_sweep(cfgs, bench::sweep_options_from_cli(cli, "limit"));

  int rc = 0;
  if (sf.json) {
    obs::Report report("ablation_limit");
    bench::echo_config(report, base);
    report.config("oversend_factor", base.oversend_factor);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("limits", [&](util::JsonWriter& w) {
      w.begin_array();
      for (const auto& run : sweep.runs) {
        const auto row = summarize(*run);
        w.begin_object();
        w.kv("limit", static_cast<std::uint64_t>(row.limit));
        w.kv("unlimited", row.limit == 255);
        w.kv("qos_miss_fraction", row.qos_miss_fraction);
        w.kv("qos_mean_delay_us", row.qos_mean_delay_us);
        w.kv("be_delivered_mbps_per_host", row.be_delivered_mbps_per_host);
        w.kv("be_mean_delay_us", row.be_mean_delay_us);
        w.end_object();
      }
      w.end_array();
    });
    rc = bench::emit_report(report, cli);
  } else {
    util::TablePrinter table({"limit", "QoS miss frac", "QoS p-mean delay (us)",
                              "BE delivered (Mbps/host)", "BE mean delay (us)"});
    for (const auto& run : sweep.runs) {
      const auto row = summarize(*run);
      table.add_row(
          {row.limit == 255 ? "unlimited" : std::to_string(row.limit),
           util::TablePrinter::pct(row.qos_miss_fraction, 3),
           util::TablePrinter::num(row.qos_mean_delay_us, 1),
           util::TablePrinter::num(row.be_delivered_mbps_per_host, 1),
           util::TablePrinter::num(row.be_mean_delay_us, 1)});
      std::cerr << "[limit " << row.limit
                << "] window=" << run->summary.window_cycles
                << (run->summary.hit_hard_limit ? " (HARD LIMIT)" : "") << "\n";
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: with saturating high-priority traffic an\n"
                 "unlimited limit starves the best-effort classes; tightening\n"
                 "it hands them bandwidth at the oversending classes'\n"
                 "expense (compliant reservations are not at risk either\n"
                 "way - see bench_misbehavior).\n";
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
} catch (const std::invalid_argument& e) {
  return bench::flag_error(e);
}
