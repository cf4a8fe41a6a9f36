// perfbench: the repository's benchmark program (see README.md beside it).
//
//   perfbench --workload fig4-small|admission-churn
//             --seed N --seconds S --trace 0|1 [--trace-out FILE] [--tiny]
//
// Prints a human report on stderr and, as the last stdout line, one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// for --trace 0, the per-layer metrics for --trace 1. Exits non-zero when
// the correctness gate fails.
#include <cstdlib>
#include <cerrno>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every workload reports every metric, so the names and units are one
/// list each. A layer a workload does not exercise reports 0.
constexpr MetricName kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"op_p50_us", "us"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
    {"guaranteed_accept_frac", "frac"},
};

constexpr MetricName kPerLayer[] = {
    {"sim_cycles_per_s", "1/s"},
    {"admit_ops_per_s", "1/s"},
    {"admit_p50_us", "us"},
    {"admit_p99_us", "us"},
    {"admit_samples", "count"},
    {"op_p99_us", "us"},
    {"deadline_miss_frac", "frac"},
    {"false_reject_frac", "frac"},
    {"qos_within_half_deadline_frac", "frac"},
    {"delivered_bytes_per_cycle_per_node", "B/cycle"},
    {"network.build_ms", "ms"},
    {"subnet.route_ms", "ms"},
    {"subnet.configure_ms", "ms"},
    {"qos.ctor_ms", "ms"},
    {"sim.ctor_ms", "ms"},
    {"traffic.build_ms", "ms"},
    {"qos.setup_requests", "count"},
    {"qos.accept_ratio", "frac"},
    {"qos.release_us_p50", "us"},
    {"qos.can_admit_path_us_p50", "us"},
    {"qos.audit_full_ms", "ms"},
    {"tm.allocations", "count"},
    {"tm.shares", "count"},
    {"tm.share_ratio", "frac"},
    {"tm.reject_entries", "count"},
    {"tm.reject_bandwidth", "count"},
    {"tm.defrag_runs", "count"},
    {"sim.run_s", "s"},
    {"sim.cycles", "cycle"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"queue.pushes", "count"},
    {"queue.overflow_pushes", "count"},
    {"queue.peak_size", "count"},
    {"queue.replay_ns_per_op", "ns"},
    {"queue.est_share", "frac"},
    {"arb.decisions", "count"},
    {"arb.idle_ratio", "frac"},
    {"arb.high_picks", "count"},
    {"arb.limit_blocks", "count"},
    {"arb.replay_ns_per_decision", "ns"},
    {"arb.est_share", "frac"},
    {"xbar.rounds", "count"},
    {"xbar.grants", "count"},
    {"xbar.grant_ratio", "frac"},
    {"xbar.blocked_output", "count"},
    {"xbar.blocked_space", "count"},
    {"port.credit_stalls", "count"},
    {"buffer.out.peak_bytes", "B"},
    {"sim.residual_share", "frac"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.spans", "count"},
    {"self.bench_s", "s"},
    {"self.network_s", "s"},
    {"self.subnet_s", "s"},
    {"self.qos_s", "s"},
    {"self.traffic_s", "s"},
    {"self.sim_s", "s"},
};

/// Environment knobs the bench harness obeys. This program pins every choice
/// in code, but a set variable means someone expects it to matter, so the
/// run is refused rather than silently measuring something else.
constexpr const char* kPinnedEnv[] = {"IBARB_EVENT_QUEUE", "IBARB_SHARDS",
                                      "IBARB_CROSSBAR", "IBARB_TOPO",
                                      "IBARB_ROUTING"};

std::uint64_t parse_u64(std::string_view flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || text[0] == '-')
    throw std::invalid_argument(std::string(flag) + " expects an unsigned "
                                "integer, got '" + text + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (flag == "--break-gate") {
      a.break_gate = true;
      continue;
    }
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " needs a value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto s = parse_u64(flag, v);
      if (s < 1 || s > 600)
        throw std::invalid_argument("--seconds must be in [1, 600]");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      const auto t = parse_u64(flag, v);
      if (t > 1) throw std::invalid_argument("--trace expects 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload || !have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  return a;
}

void write_result(const Result& res, bool trace) {
  std::ostringstream os;
  ibarb::util::JsonWriter w(os);
  w.begin_object();
  w.kv("correct", res.correct);
  w.kv("attempted", res.attempted);
  w.kv("failed", res.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : trace ? res.per_layer : res.end_to_end) {
    w.key(name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

/// Checks a workload reported exactly the listed metrics with their units,
/// filling per-layer metrics of layers it does not exercise with 0.
template <std::size_t N>
void conform(std::map<std::string, Metric>& got, const MetricName (&want)[N],
             bool fill_absent) {
  for (const auto& m : want) {
    auto it = got.find(m.name);
    if (it == got.end()) {
      if (!fill_absent)
        throw std::logic_error(std::string("metric not reported: ") + m.name);
      it = got.emplace(m.name, Metric{0.0, m.unit}).first;
    }
    if (it->second.unit != m.unit)
      throw std::logic_error(std::string("unit mismatch for ") + m.name);
  }
  if (got.size() != N) throw std::logic_error("unlisted metric reported");
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

int run(int argc, char** argv) {
#ifndef NDEBUG
  // Debug builds cross-check every arbiter cache (cache_in_sync) and so
  // measure a different program.
  std::cerr << "perfbench: refusing to measure a build with assertions on\n";
  return 2;
#endif
  for (const char* var : kPinnedEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: unset " << var
                << "; the benchmark pins every implementation choice\n";
      return 2;
    }
  }
  const Args args = parse_args(argc, argv);
  std::cerr << "[perfbench] workload " << args.workload << " seed "
            << args.seed << " seconds " << args.seconds << " trace "
            << args.trace << " | hw_threads "
            << std::thread::hardware_concurrency() << ", compiler "
            << kCompiler << ", build " << PERFBENCH_BUILD_TYPE << "\n";

  Result res;
  if (args.workload == "fig4-small") {
    res = run_fig4_small(args);
  } else if (args.workload == "admission-churn") {
    res = run_admission_churn(args);
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (fig4-small, admission-churn)");
  }
  conform(res.end_to_end, kEndToEnd, false);
  conform(res.per_layer, kPerLayer, true);

  for (const auto& [name, m] : res.end_to_end)
    std::cerr << "  " << name << " = " << m.value << " " << m.unit << "\n";
  if (args.trace)
    for (const auto& [name, m] : res.per_layer)
      std::cerr << "  " << name << " = " << m.value << " " << m.unit << "\n";
  for (const auto& why : res.failures)
    std::cerr << "perfbench: CORRECTNESS FAILURE: " << why << "\n";

  write_result(res, args.trace);
  return res.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
