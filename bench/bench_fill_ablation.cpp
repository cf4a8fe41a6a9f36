// Experiment E7 — ablation of the filling algorithm (§3.3): acceptance ratio
// of the bit-reversal scan (with and without defragmentation) against the
// sequential / random scan orders and the scattered strawman, under the same
// randomized arrival/departure trace. The (policy, seed) matrix runs in
// parallel (--jobs N): every cell is an independent seeded experiment whose
// result lands in its own slot, and the fixed-order aggregation afterwards
// keeps stdout byte-identical for any job count.
//
// The headline column is "avoidable rejections": requests refused although
// enough free entries existed. The paper's pair (bit-reversal + defrag) is
// provably at zero; every baseline fragments.
#include <iostream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "arbtable/baselines.hpp"
#include "report_common.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto sf = cli.std_flags(1);
  arbtable::AcceptanceWorkload w;
  constexpr std::int64_t kMaxCount = std::numeric_limits<unsigned>::max();
  w.requests =
      static_cast<unsigned>(cli.get_int_in("requests", 5000, 1, kMaxCount));
  w.departure_probability = cli.get_double_in("departures", 0.45, 0.0, 1.0);
  // Entry-limited regime: the whole link is reservable so rejections come
  // from table placement, the thing being ablated, not the bandwidth cap.
  w.reservable_fraction = cli.get_double_in("reservable", 1.0, 0.01, 1.0);
  w.min_mbps = cli.get_double_in("min-mbps", 4.0, 0.0, iba::kBaseLinkMbps);
  w.max_mbps = cli.get_double_in("max-mbps", 32.0, 0.0, iba::kBaseLinkMbps);
  if (w.max_mbps < w.min_mbps)
    throw std::invalid_argument("flag --max-mbps must not be below --min-mbps");
  const unsigned seeds =
      static_cast<unsigned>(cli.get_int_in("seeds", 10, 1, kMaxCount));

  if (!sf.json) {
    std::cout << "=== Fill-algorithm ablation: acceptance under churn ===\n";
    std::cout << w.requests << " requests/seed, " << seeds
              << " seeds, departure probability " << w.departure_probability
              << "\n\n";
  }

  struct Case {
    const char* name;
    const char* key;
    arbtable::FillPolicy policy;
    bool defrag;
  };
  const Case cases[] = {
      {"bit-reversal + defrag (paper)", "bitrev_defrag",
       arbtable::FillPolicy::kBitReversal, true},
      {"bit-reversal, no defrag", "bitrev",
       arbtable::FillPolicy::kBitReversal, false},
      {"sequential + defrag", "sequential_defrag",
       arbtable::FillPolicy::kSequential, true},
      {"sequential, no defrag", "sequential",
       arbtable::FillPolicy::kSequential, false},
      {"random, no defrag", "random", arbtable::FillPolicy::kRandom, false},
      {"scattered (no spacing)", "scattered", arbtable::FillPolicy::kScattered,
       false},
  };
  const std::size_t n_cases = std::size(cases);

  // One flat slot per (policy, seed) cell, filled concurrently.
  std::vector<arbtable::AcceptanceResult> cells(n_cases * seeds);
  util::parallel_for(cli.jobs(), cells.size(), [&](std::size_t i) {
    const auto& c = cases[i / seeds];
    auto ws = w;
    ws.seed = 1000 + (i % seeds);
    cells[i] = arbtable::run_acceptance_experiment(c.policy, c.defrag, ws);
  });

  // Fixed-order aggregation: byte-identical for any --jobs.
  std::vector<arbtable::AcceptanceResult> sums(n_cases);
  for (std::size_t k = 0; k < n_cases; ++k) {
    for (unsigned s = 0; s < seeds; ++s) {
      const auto& r = cells[k * seeds + s];
      sums[k].offered += r.offered;
      sums[k].accepted += r.accepted;
      sums[k].rejected_bandwidth += r.rejected_bandwidth;
      sums[k].rejected_entries += r.rejected_entries;
      sums[k].avoidable_rejections += r.avoidable_rejections;
      sums[k].defrag_moves += r.defrag_moves;
    }
  }

  int rc = 0;
  if (sf.json) {
    obs::Report report("fill_ablation");
    report.config("requests", static_cast<std::uint64_t>(w.requests));
    report.config("seeds", static_cast<std::uint64_t>(seeds));
    report.config("departure_probability", w.departure_probability);
    report.config("reservable_fraction", w.reservable_fraction);
    report.config("min_mbps", w.min_mbps);
    report.config("max_mbps", w.max_mbps);
    report.figure("policies", [&](util::JsonWriter& jw) {
      jw.begin_array();
      for (std::size_t k = 0; k < n_cases; ++k) {
        const auto& sum = sums[k];
        jw.begin_object();
        jw.kv("policy", cases[k].key);
        jw.kv("defrag", cases[k].defrag);
        jw.kv("offered", sum.offered);
        jw.kv("accepted", sum.accepted);
        jw.kv("acceptance_ratio", sum.acceptance_ratio());
        jw.kv("rejected_bandwidth", sum.rejected_bandwidth);
        jw.kv("rejected_entries", sum.rejected_entries);
        jw.kv("avoidable_rejections", sum.avoidable_rejections);
        jw.kv("defrag_moves", sum.defrag_moves);
        jw.end_object();
      }
      jw.end_array();
    });
    rc = bench::emit_report(report, cli);
  } else {
    util::TablePrinter table({"policy", "accepted (%)", "rej: bandwidth",
                              "rej: entries", "avoidable rejections",
                              "defrag moves"});
    for (std::size_t k = 0; k < n_cases; ++k) {
      const auto& sum = sums[k];
      table.add_row({cases[k].name,
                     util::TablePrinter::num(sum.acceptance_ratio() * 100.0, 2),
                     std::to_string(sum.rejected_bandwidth),
                     std::to_string(sum.rejected_entries),
                     std::to_string(sum.avoidable_rejections),
                     std::to_string(sum.defrag_moves)});
    }
    table.print(std::cout);
    std::cout << "\nNote: 'scattered' accepts by count alone (it ignores the\n"
                 "distance requirement entirely), so its acceptance is an\n"
                 "upper bound that comes at the cost of the latency guarantee\n"
                 "— see bench_micro / the simulator tests for the gap bound.\n";
  }

  cli.warn_unused(std::cerr);
  return rc;
} catch (const std::invalid_argument& e) {
  return bench::flag_error(e);
}
