// VBR evaluation — the scenario of the authors' companion study
// ("Performance Evaluation of VBR Traffic in InfiniBand", CCECE'02): the
// same Table-1 SL mix, but sources burst at 4x their mean rate (on/off with
// on-fraction 0.25) while reserving only the mean.
//
// Expected shape: deadline compliance at the full deadline D survives (the
// reservation covers the mean, buffers and the table absorb the bursts),
// while the tight-threshold percentages and jitter visibly degrade compared
// to the CBR columns.
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto sf = cli.std_flags(21);
  auto base = bench::config_from_cli(cli);
  base.vbr_on_fraction = cli.get_double_in("on-fraction", 0.25, 0.01, 1.0);

  if (!sf.json) {
    std::cout << "=== VBR vs CBR: per-SL deadline compliance and jitter ===\n";
    std::cout << "VBR shape: bursts at " << 1.0 / base.vbr_on_fraction
              << "x mean rate, on-fraction " << base.vbr_on_fraction << "\n\n";
  }

  std::vector<bench::PaperRunConfig> cfgs(2, base);
  cfgs[0].vbr = false;
  cfgs[1].vbr = true;
  bench::apply_run0_observability(cfgs[0], sf);
  const auto sweep =
      bench::run_sweep(cfgs, bench::sweep_options_from_cli(cli, "vbr"));

  const auto cbr_sl = sweep.runs[0]->per_sl();
  const auto vbr_sl = sweep.runs[1]->per_sl();

  int rc = 0;
  if (sf.json) {
    obs::Report report("vbr");
    bench::echo_config(report, base);
    report.config("vbr_on_fraction", base.vbr_on_fraction);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("cbr", [&](util::JsonWriter& w) {
      bench::write_sl_series(w, cbr_sl);
    });
    report.figure("vbr", [&](util::JsonWriter& w) {
      bench::write_sl_series(w, vbr_sl);
    });
    rc = bench::emit_report(report, cli);
  } else {
    util::TablePrinter table({"SL", "CBR @D/10 (%)", "VBR @D/10 (%)",
                              "CBR @D (%)", "VBR @D (%)",
                              "CBR jitter central (%)",
                              "VBR jitter central (%)"});
    // Threshold index for D/10 and the central jitter bin.
    constexpr std::size_t kD10 = 4;
    constexpr std::size_t kCentral = 5;
    for (unsigned sl = 0; sl < 10; ++sl) {
      table.add_row(
          {std::to_string(sl),
           util::TablePrinter::num(cbr_sl[sl].within[kD10] * 100.0, 2),
           util::TablePrinter::num(vbr_sl[sl].within[kD10] * 100.0, 2),
           util::TablePrinter::num(cbr_sl[sl].within.back() * 100.0, 2),
           util::TablePrinter::num(vbr_sl[sl].within.back() * 100.0, 2),
           util::TablePrinter::num(cbr_sl[sl].jitter[kCentral] * 100.0, 2),
           util::TablePrinter::num(vbr_sl[sl].jitter[kCentral] * 100.0, 2)});
    }
    table.print(std::cout);

    std::uint64_t cbr_misses = 0, vbr_misses = 0;
    for (unsigned sl = 0; sl < 10; ++sl) {
      cbr_misses += cbr_sl[sl].deadline_misses;
      vbr_misses += vbr_sl[sl].deadline_misses;
    }
    std::cout << "\ndeadline misses: CBR " << cbr_misses << ", VBR "
              << vbr_misses
              << "\n(VBR keeps the hard guarantee; the soft percentiles and "
                 "jitter pay for the bursts)\n";
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
} catch (const std::invalid_argument& e) {
  return bench::flag_error(e);
}
