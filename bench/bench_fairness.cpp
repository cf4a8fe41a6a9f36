// Crossbar-scheduler fairness ablation: the zoo (wrr|islip|matrix) under
// three adversarial single-switch patterns.
//
// The paper's arbitration tables govern each output LINK; upstream of them
// sits the crossbar matching policy, which decides WHICH input reaches an
// output queue first. This bench isolates that layer on the smallest fabric
// where it matters — one 8-port switch — and measures what each scheduler
// does to fairness (Jain's index over per-connection delivered throughput)
// and to per-SL latency under:
//
//   permutation  host i -> host (i+1)%8, one QoS SL per pair. Conflict-free
//                in principle: a maximal-matching scheduler (islip) should
//                sustain every lane at its offered load.
//   bursty       the same permutation shifted by 3, but on/off VBR sources.
//                Pointer/priority memory decides who absorbs whose burst.
//   hotspot      hosts 1..7 all target host 0. The crossbar picks which
//                input reaches the contended output queue; the Jain index
//                over the seven contenders is the fairness headline.
//
// Every pattern also carries best-effort flows on SL8 (low-priority table),
// clashing at two shared sinks. All (scheduler x pattern) runs are
// independent simulations run via util::parallel_for — reports are
// byte-identical for any --jobs value.
#include <array>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "iba/link.hpp"
#include "network/routing.hpp"
#include "network/topology.hpp"
#include "paper_runner.hpp"
#include "report_common.hpp"
#include "sched/crossbar_impl.hpp"
#include "sim/simulator.hpp"
#include "util/parallel.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

namespace {

constexpr unsigned kHosts = 8;
constexpr std::uint32_t kPayload = 1024;     // 1050 wire cycles at 1x
constexpr iba::Cycle kQosInterval = 1200;    // ~87% offered load per lane
constexpr iba::Cycle kBeInterval = 4800;     // best-effort spill on top
constexpr iba::Cycle kDeadline = 60'000;
constexpr iba::Cycle kWarmup = 100'000;
constexpr iba::Cycle kWindow = 1'000'000;

enum class Pattern { kPermutation, kBursty, kHotspot };
constexpr std::array<Pattern, 3> kPatterns = {
    Pattern::kPermutation, Pattern::kBursty, Pattern::kHotspot};

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kPermutation: return "permutation";
    case Pattern::kBursty: return "bursty";
    case Pattern::kHotspot: return "hotspot";
  }
  return "?";
}

constexpr std::array<sched::CrossbarImpl, 3> kImpls = {
    sched::CrossbarImpl::kWrr, sched::CrossbarImpl::kIslip,
    sched::CrossbarImpl::kMatrix};

/// One SL per host pair on the high-priority table, best effort on VL8 in
/// the low table. The limit keeps low-priority from total starvation so the
/// BE throughput column is meaningful under every scheduler.
iba::VlArbitrationTable fabric_table() {
  iba::VlArbitrationTable t;
  for (unsigned i = 0; i < kHosts; ++i)
    t.high()[i] = iba::ArbTableEntry{static_cast<iba::VirtualLane>(i), 16};
  t.low()[0] = iba::ArbTableEntry{8, 4};
  t.set_limit_of_high_priority(8);
  return t;
}

void program_fabric(sim::Simulator& sim, const network::FabricGraph& g) {
  const auto table = fabric_table();
  for (iba::NodeId n = 0; n < g.node_count(); ++n) {
    const unsigned ports = g.is_switch(n) ? g.port_count(n) : 1;
    for (unsigned p = 0; p < ports; ++p)
      if (g.peer(n, static_cast<iba::PortIndex>(p)))
        sim.set_output_arbitration(n, static_cast<iba::PortIndex>(p), table);
  }
  sim.set_sl_to_vl_all(iba::SlToVlMappingTable::identity(15));
}

struct SlRow {
  std::uint64_t rx = 0;
  double delay_us = 0.0;  ///< Mean end-to-end delay; 0 when nothing landed.
  /// Worst per-window p99 delay across the measurement window, from the
  /// PR 5 series layer (log2-bucket upper bound, so conservative).
  double p99_us = 0.0;
};

struct Row {
  sched::CrossbarImpl impl = sched::CrossbarImpl::kWrr;
  Pattern pattern = Pattern::kPermutation;
  double jain_qos = 0.0;
  double jain_be = 0.0;
  double qos_mbps = 0.0;      ///< Delivered wire Mbps, all QoS lanes.
  double be_mbps = 0.0;       ///< Delivered wire Mbps, best-effort lanes.
  std::array<SlRow, kHosts> sl{};
  obs::Snapshot telemetry;    ///< Per-run snapshot (xbar.* et al).
};

/// Jain's fairness index (sum x)^2 / (n * sum x^2) over per-connection
/// delivered bytes; 1 = perfectly equal shares, 1/n = one flow hogs all.
double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0, sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

void add_pattern_flows(sim::Simulator& sim, const network::FabricGraph& g,
                       Pattern p, std::uint64_t seed) {
  const auto hosts = g.hosts();
  std::uint64_t salt = 0;
  const auto add = [&](unsigned src, unsigned dst, iba::ServiceLevel sl,
                       iba::Cycle interval, sim::GeneratorKind kind,
                       bool qos) {
    sim::FlowSpec f;
    f.src_host = hosts[src];
    f.dst_host = hosts[dst];
    f.sl = sl;
    f.payload_bytes = kPayload;
    f.interval = interval;
    f.kind = kind;
    f.deadline = kDeadline;
    f.qos = qos;
    f.seed = seed * 97 + ++salt;
    sim.add_flow(f);
  };

  switch (p) {
    case Pattern::kPermutation:
      for (unsigned i = 0; i < kHosts; ++i)
        add(i, (i + 1) % kHosts, static_cast<iba::ServiceLevel>(i),
            kQosInterval, sim::GeneratorKind::kCbr, true);
      break;
    case Pattern::kBursty:
      for (unsigned i = 0; i < kHosts; ++i)
        add(i, (i + 3) % kHosts, static_cast<iba::ServiceLevel>(i),
            kQosInterval, sim::GeneratorKind::kOnOffVbr, true);
      break;
    case Pattern::kHotspot:
      for (unsigned i = 1; i < kHosts; ++i)
        add(i, 0, static_cast<iba::ServiceLevel>(i), kQosInterval,
            sim::GeneratorKind::kCbr, true);
      break;
  }
  // Best-effort load on SL8 (low-priority table), deliberately clashing:
  // every host floods one of TWO shared sinks, so four BE heads contend for
  // each sink's crossbar output and the schedulers' tie-breaks become
  // visible in the Jain(BE) column.
  for (unsigned i = 0; i < kHosts; ++i) {
    unsigned dst = (i % 2) ? kHosts - 1 : kHosts - 2;
    if (dst == i) dst = (dst == kHosts - 1) ? kHosts - 2 : kHosts - 1;
    add(i, dst, 8, kBeInterval, sim::GeneratorKind::kPoisson, false);
  }
}

Row run_one(sched::CrossbarImpl impl, Pattern pattern, std::uint64_t seed) {
  const auto g = network::gen::single_switch(kHosts);
  const auto routes = network::compute_routes(g);

  sim::SimConfig sc;
  sc.seed = seed;
  sc.crossbar_impl = impl;
  sc.sample_every = kWarmup;  // series windows align with the warmup edge
  sim::Simulator sim(g, routes, sc);
  program_fabric(sim, g);
  add_pattern_flows(sim, g, pattern, seed);

  sim.run_until(kWarmup);
  sim.metrics().start_window(sim.now());
  sim.run_until(kWarmup + kWindow);
  sim.metrics().stop_window(sim.now());

  Row row;
  row.impl = impl;
  row.pattern = pattern;
  row.telemetry = sim.telemetry_snapshot();

  const auto& m = sim.metrics();
  const double window = static_cast<double>(m.window_length());
  std::vector<double> qos_bytes, be_bytes;
  std::uint64_t qos_wire = 0, be_wire = 0;
  for (const auto& c : m.connections) {
    if (c.qos) {
      qos_bytes.push_back(static_cast<double>(c.rx_wire_bytes));
      qos_wire += c.rx_wire_bytes;
      auto& s = row.sl[c.sl % kHosts];
      s.rx += c.rx_packets;
      s.delay_us = c.mean_delay() * iba::kNsPerCycle / 1000.0;
    } else {
      be_bytes.push_back(static_cast<double>(c.rx_wire_bytes));
      be_wire += c.rx_wire_bytes;
    }
  }
  row.jain_qos = jain_index(qos_bytes);
  row.jain_be = jain_index(be_bytes);

  // Per-SL tail latency from the series layer: the worst windowed p99 over
  // the measurement span (warmup windows excluded by the time stamp).
  if (sim.series() != nullptr) {
    const auto series = sim.series()->finalize(sim.now());
    for (const auto& sd : series.sl_delay) {
      if (sd.sl >= kHosts) continue;
      double worst = 0.0;
      for (std::size_t w = 0; w < sd.p99.size(); ++w) {
        if (w < series.time.size() && series.time[w] <= kWarmup) continue;
        worst = std::max(
            worst, static_cast<double>(sd.p99[w]) * iba::kNsPerCycle / 1000.0);
      }
      row.sl[sd.sl].p99_us = worst;
    }
  }
  if (window > 0.0) {
    const double to_mbps = 8.0 * 1000.0 / (window * iba::kNsPerCycle);
    row.qos_mbps = static_cast<double>(qos_wire) * to_mbps;
    row.be_mbps = static_cast<double>(be_wire) * to_mbps;
  }
  return row;
}

std::uint64_t xbar_counter(const Row& row, std::string_view name) {
  const auto it = row.telemetry.counters.find(std::string(name));
  return it == row.telemetry.counters.end() ? 0 : it->second;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto sf = cli.std_flags(31);

  // --crossbar restricts the ablation to one scheduler; absent means the
  // whole zoo, since comparing the schedulers is the bench's job.
  std::vector<sched::CrossbarImpl> impls(kImpls.begin(), kImpls.end());
  if (const auto impl = bench::crossbar_from_cli(cli)) impls = {*impl};

  if (!sf.json)
    std::cout << "=== Crossbar fairness ablation (" << kHosts
              << "-port switch; QoS load " << kQosInterval
              << "-cycle CBR/VBR, best effort on SL8) ===\n\n";

  struct Job {
    sched::CrossbarImpl impl;
    Pattern pattern;
  };
  std::vector<Job> jobs;
  for (const auto pattern : kPatterns)
    for (const auto impl : impls) jobs.push_back({impl, pattern});

  std::vector<Row> rows(jobs.size());
  util::parallel_for(sf.jobs, jobs.size(), [&](std::size_t i) {
    rows[i] = run_one(jobs[i].impl, jobs[i].pattern, sf.seed);
    if (!sf.quiet)
      std::cerr << "[" << pattern_name(jobs[i].pattern) << "/"
                << sched::crossbar_impl_name(jobs[i].impl) << "] done\n";
  });

  int rc = 0;
  if (sf.json) {
    obs::Report report("fairness");
    report.config("hosts", static_cast<std::uint64_t>(kHosts));
    report.config("payload_bytes", static_cast<std::uint64_t>(kPayload));
    report.config("qos_interval", static_cast<std::uint64_t>(kQosInterval));
    report.config("be_interval", static_cast<std::uint64_t>(kBeInterval));
    report.config("deadline", static_cast<std::uint64_t>(kDeadline));
    report.config("warmup", static_cast<std::uint64_t>(kWarmup));
    report.config("window", static_cast<std::uint64_t>(kWindow));
    report.config("seed", sf.seed);

    std::vector<obs::Snapshot> parts;
    for (const auto& row : rows) parts.push_back(row.telemetry);
    report.telemetry(obs::Snapshot::merge(parts));

    report.figure("fairness", [&](util::JsonWriter& w) {
      w.begin_array();
      for (const auto pattern : kPatterns) {
        w.begin_object();
        w.kv("pattern", pattern_name(pattern));
        w.key("rows");
        w.begin_array();
        for (const auto& row : rows) {
          if (row.pattern != pattern) continue;
          w.begin_object();
          w.kv("crossbar", sched::crossbar_impl_name(row.impl));
          w.kv("jain_qos", row.jain_qos);
          w.kv("jain_be", row.jain_be);
          w.kv("qos_delivered_mbps", row.qos_mbps);
          w.kv("be_delivered_mbps", row.be_mbps);
          w.key("sl");
          w.begin_array();
          for (unsigned sl = 0; sl < kHosts; ++sl) {
            if (row.sl[sl].rx == 0) continue;
            w.begin_object();
            w.kv("sl", static_cast<std::uint64_t>(sl));
            w.kv("rx_packets", row.sl[sl].rx);
            w.kv("mean_delay_us", row.sl[sl].delay_us);
            w.kv("p99_delay_us", row.sl[sl].p99_us);
            w.end_object();
          }
          w.end_array();
          w.key("xbar");
          w.begin_object();
          w.kv("rounds", xbar_counter(row, "xbar.rounds"));
          w.kv("grants", xbar_counter(row, "xbar.grants"));
          w.kv("iterations", xbar_counter(row, "xbar.iterations"));
          w.kv("blocked_output", xbar_counter(row, "xbar.blocked_output"));
          w.kv("blocked_space", xbar_counter(row, "xbar.blocked_space"));
          w.end_object();
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      w.end_array();
    });
    rc = bench::emit_report(report, cli);
  } else {
    for (const auto pattern : kPatterns) {
      std::cout << "--- " << pattern_name(pattern) << " ---\n";
      util::TablePrinter table({"crossbar", "Jain(QoS)", "Jain(BE)",
                                "QoS Mbps", "BE Mbps",
                                "SL delay lo..hi (us)", "SL p99 hi (us)"});
      for (const auto& row : rows) {
        if (row.pattern != pattern) continue;
        double lo = 0.0, hi = 0.0, p99 = 0.0;
        bool first = true;
        for (const auto& s : row.sl) {
          if (s.rx == 0) continue;
          lo = first ? s.delay_us : std::min(lo, s.delay_us);
          hi = first ? s.delay_us : std::max(hi, s.delay_us);
          p99 = std::max(p99, s.p99_us);
          first = false;
        }
        table.add_row({std::string(sched::crossbar_impl_name(row.impl)),
                       util::TablePrinter::num(row.jain_qos, 4),
                       util::TablePrinter::num(row.jain_be, 4),
                       util::TablePrinter::num(row.qos_mbps, 1),
                       util::TablePrinter::num(row.be_mbps, 1),
                       util::TablePrinter::num(lo, 1) + ".." +
                           util::TablePrinter::num(hi, 1),
                       util::TablePrinter::num(p99, 1)});
      }
      table.print(std::cout);
      std::cout << "\n";
    }
    std::cout << "Jain's index: 1 = equal per-connection throughput, 1/n =\n"
                 "one connection monopolizes. QoS lanes should stay near 1\n"
                 "under EVERY scheduler (the arbitration tables, not the\n"
                 "crossbar, own the guarantees); the discriminator is the\n"
                 "best-effort column under bursty load, where pointer memory\n"
                 "(islip) and least-recently-served order (matrix) each pick\n"
                 "different winners among the clashing SL8 flows.\n";
  }

  cli.warn_unused(std::cerr);
  return rc;
} catch (const std::invalid_argument& e) {
  return bench::flag_error(e);
}
