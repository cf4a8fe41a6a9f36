// Design-choice ablation: per-VL buffer depth.
//
// The paper models VL buffers "large enough to store four whole packets".
// This bench sweeps the depth: shallow buffers throttle the pipeline
// (credits bound the in-flight data per VL), deep buffers add nothing once
// the bandwidth-delay product is covered. The four depths run in parallel
// via the sweep engine (--jobs N).
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto sf = cli.std_flags(21);
  const auto base = bench::config_from_cli(cli);

  if (!sf.json)
    std::cout << "=== Ablation: per-VL buffer depth (packets) ===\n\n";

  const unsigned depths[] = {1u, 2u, 4u, 8u};
  std::vector<bench::PaperRunConfig> cfgs;
  for (const unsigned depth : depths) {
    auto cfg = base;
    cfg.buffer_packets = depth;
    cfgs.push_back(cfg);
  }
  bench::apply_run0_observability(cfgs[0], sf);
  const auto sweep =
      bench::run_sweep(cfgs, bench::sweep_options_from_cli(cli, "buffers"));

  int rc = 0;
  if (sf.json) {
    obs::Report report("ablation_buffers");
    bench::echo_config(report, base);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("depths", [&](util::JsonWriter& w) {
      w.begin_array();
      for (const auto& run : sweep.runs) {
        const auto& m = run->sim->metrics();
        std::uint64_t rx = 0, miss = 0, delay = 0;
        for (const auto& c : m.connections) {
          if (!c.qos) continue;
          rx += c.rx_packets;
          miss += c.deadline_misses;
          delay += c.delay_sum;
        }
        w.begin_object();
        w.kv("buffer_packets",
             static_cast<std::uint64_t>(run->cfg.buffer_packets));
        w.kv("qos_miss_fraction", rx ? double(miss) / double(rx) : 0.0);
        w.kv("qos_mean_delay_us",
             rx ? double(delay) / double(rx) * iba::kNsPerCycle / 1000.0 : 0.0);
        w.key("table2");
        bench::write_table2(w, run->table2());
        w.end_object();
      }
      w.end_array();
    });
    rc = bench::emit_report(report, cli);
  } else {
    util::TablePrinter table({"buffers", "delivered (B/cyc/node)",
                              "switch util (%)", "QoS miss frac",
                              "mean delay (us)"});
    for (const auto& run : sweep.runs) {
      const auto& m = run->sim->metrics();
      std::uint64_t rx = 0, miss = 0, delay = 0;
      for (const auto& c : m.connections) {
        if (!c.qos) continue;
        rx += c.rx_packets;
        miss += c.deadline_misses;
        delay += c.delay_sum;
      }
      const auto t2 = run->table2();
      table.add_row(
          {std::to_string(run->cfg.buffer_packets),
           util::TablePrinter::num(t2.delivered_bytes_per_cycle_per_node, 4),
           util::TablePrinter::num(t2.switch_utilization * 100.0, 2),
           util::TablePrinter::pct(rx ? double(miss) / double(rx) : 0.0, 3),
           util::TablePrinter::num(
               rx ? double(delay) / double(rx) * iba::kNsPerCycle / 1000.0 : 0.0, 1)});
      std::cerr << "[depth " << run->cfg.buffer_packets
                << "] window=" << run->summary.window_cycles
                << (run->summary.hit_hard_limit ? " (HARD LIMIT)" : "") << "\n";
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: throughput saturates around the paper's\n"
                 "4-packet depth; deadline compliance holds at every depth\n"
                 "(credits only slow sources down, they never drop packets).\n";
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
} catch (const std::invalid_argument& e) {
  return bench::flag_error(e);
}
