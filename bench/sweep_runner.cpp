#include "sweep_runner.hpp"

#include <chrono>
#include <iostream>

#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"

namespace ibarb::bench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

SweepOptions sweep_options_from_cli(const util::Cli& cli, std::string label) {
  SweepOptions opts;
  opts.jobs = cli.jobs();
  if (cli.has("sweep-seed"))
    opts.base_seed =
        static_cast<std::uint64_t>(cli.get_int_in("sweep-seed", 0, 0));
  opts.label = std::move(label);
  if (cli.get_bool("quiet", false)) opts.timing = false;
  return opts;
}

std::uint64_t derive_run_seed(std::uint64_t base_seed, std::size_t run_index) {
  // One SplitMix64 step over base ^ index: nearby indices land in unrelated
  // parts of the xoshiro seed space (ISSUE 1 / docs/SWEEP.md).
  return util::SplitMix64(base_seed ^ static_cast<std::uint64_t>(run_index))
      .next();
}

SweepResult run_sweep(const std::vector<PaperRunConfig>& cfgs,
                      const SweepOptions& opts) {
  SweepResult result;
  const std::size_t n = cfgs.size();
  result.jobs = opts.jobs == 0 ? util::default_jobs() : opts.jobs;
  // More lanes than runs only spawns idle threads.
  if (result.jobs > n && n > 0) result.jobs = static_cast<unsigned>(n);
  result.runs.resize(n);
  result.run_ms.assign(n, 0.0);

  const auto sweep_start = Clock::now();
  util::parallel_for(result.jobs, n, [&](std::size_t i) {
    auto cfg = cfgs[i];
    if (opts.base_seed) cfg.seed = derive_run_seed(*opts.base_seed, i);
    const auto run_start = Clock::now();
    result.runs[i] = std::make_unique<PaperRun>(cfg);
    result.run_ms[i] = ms_since(run_start);
  });
  result.wall_ms = ms_since(sweep_start);

  if (opts.timing) {
    double sum_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum_ms += result.run_ms[i];
      std::cerr << "[sweep:" << opts.label << "] run " << i << " (seed "
                << result.runs[i]->cfg.seed << ") "
                << util::TablePrinter::num(result.run_ms[i], 1) << " ms\n";
    }
    // sum/wall is the average run overlap; it equals the wall-clock speedup
    // only when each lane has a core of its own.
    std::cerr << "[sweep:" << opts.label << "] " << n << " runs on "
              << result.jobs << " lane(s): run-sum "
              << util::TablePrinter::num(sum_ms, 1) << " ms, wall "
              << util::TablePrinter::num(result.wall_ms, 1) << " ms";
    if (result.wall_ms > 0.0)
      std::cerr << " (effective parallelism "
                << util::TablePrinter::num(sum_ms / result.wall_ms, 2) << "x)";
    std::cerr << "\n";
  }
  return result;
}

}  // namespace ibarb::bench
