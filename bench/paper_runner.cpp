#include "paper_runner.hpp"

#include "network/routing_engine.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ibarb::bench {

namespace {

iba::Mtu mtu_from_cli(const util::Cli& cli, iba::Mtu fallback) {
  if (!cli.has("mtu")) return fallback;
  const auto mtu = cli.get("mtu", "");
  if (mtu == "small" || mtu == "256") return iba::Mtu::kMtu256;
  if (mtu == "1024") return iba::Mtu::kMtu1024;
  if (mtu == "2048") return iba::Mtu::kMtu2048;
  if (mtu == "large" || mtu == "4096") return iba::Mtu::kMtu4096;
  throw std::invalid_argument(
      "flag --mtu expects small|256|1024|2048|large|4096, got '" + mtu + "'");
}

}  // namespace

std::optional<sched::CrossbarImpl> crossbar_from_cli(const util::Cli& cli) {
  if (!cli.has("crossbar")) return std::nullopt;
  const auto name = cli.get("crossbar", "");
  const auto impl = sched::parse_crossbar_impl(name);
  if (!impl) {
    throw std::invalid_argument(
        "flag --crossbar: unknown crossbar scheduler '" + name +
        "' (expected " + std::string(sched::kCrossbarImplNames) + ")");
  }
  return impl;
}

PaperRunConfig config_from_cli(const util::Cli& cli, PaperRunConfig base) {
  base.switches = static_cast<unsigned>(cli.get_int_in(
      "switches", base.switches, 2, std::numeric_limits<unsigned>::max()));
  base.mtu = mtu_from_cli(cli, base.mtu);
  base.seed = static_cast<std::uint64_t>(
      cli.get_int_in("seed", static_cast<std::int64_t>(base.seed), 0));
  base.min_rx_packets = static_cast<std::uint64_t>(cli.get_int_in(
      "packets", static_cast<std::int64_t>(base.min_rx_packets), 1));
  base.warmup = static_cast<iba::Cycle>(cli.get_int_in(
      "warmup", static_cast<std::int64_t>(base.warmup), 0));
  base.besteffort_load =
      cli.get_double_in("besteffort-load", base.besteffort_load, 0.0, 1.0);
  if (cli.get_bool("quick", false)) {
    base.min_rx_packets = 10;
    base.warmup = 500'000;
  }
  if (const auto impl = crossbar_from_cli(cli)) base.crossbar = *impl;
  base.shards =
      static_cast<unsigned>(cli.get_int_in("shards", base.shards, 1, 64));
  base.topo = cli.get("topo", base.topo);
  try {
    (void)network::TopologySpec::parse(base.topo);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("flag --topo: " + std::string(e.what()));
  }
  base.routing = cli.get("routing", base.routing);
  if (!network::is_routing_engine(base.routing)) {
    throw std::invalid_argument(
        "flag --routing: unknown routing engine '" + base.routing +
        "' (expected " + std::string(network::kRoutingEngineNames) + ")");
  }
  return base;
}

network::TopologySpec resolve_topology(const PaperRunConfig& cfg) {
  auto spec = network::TopologySpec::parse(cfg.topo);
  if (spec.family() == "irregular") {
    // Keep the pre-registry knobs meaningful: an irregular spec that does
    // not pin switches/seed itself inherits them from --switches/--seed.
    if (!spec.has("switches")) spec.set("switches", cfg.switches);
    if (!spec.has("seed")) spec.set("seed", cfg.seed);
  }
  return spec;
}

PaperRun::PaperRun(PaperRunConfig c) : PaperRun(c, DeferSim{}) { run(); }

PaperRun::PaperRun(PaperRunConfig c, DeferSim) : cfg(c) {
  graph = resolve_topology(cfg).build();
  sm = std::make_unique<subnet::SubnetManager>(graph, cfg.routing);

  qos::AdmissionControl::Config ac;
  ac.policy = cfg.policy;
  ac.scheme = cfg.scheme;
  ac.seed = cfg.seed;
  ac.limit_of_high_priority = cfg.limit_of_high_priority;
  ac.max_packet_wire_bytes =
      iba::mtu_bytes(cfg.mtu) + iba::kPacketOverheadBytes;
  admission = std::make_unique<qos::AdmissionControl>(
      graph, sm->routes(), qos::paper_catalogue(), ac);

  sim::SimConfig sc;
  sc.max_payload_bytes = iba::mtu_bytes(cfg.mtu);
  sc.buffer_packets = cfg.buffer_packets;
  sc.seed = cfg.seed;
  sc.shards = cfg.shards;
  sc.crossbar_impl = cfg.crossbar;
  sc.trace_capacity = cfg.trace_capacity;
  sc.sample_every = cfg.sample_every;
  sc.profile = cfg.profile;
  sim = std::make_unique<sim::Simulator>(graph, sm->routes(), sc);

  traffic::WorkloadConfig wc;
  wc.mtu = cfg.mtu;
  wc.seed = cfg.seed;
  wc.besteffort_load = cfg.besteffort_load;
  wc.oversend_factor = cfg.oversend_factor;
  wc.oversend_sl_mask = cfg.oversend_sl_mask;
  wc.vbr = cfg.vbr;
  wc.vbr_on_fraction = cfg.vbr_on_fraction;
  workload =
      traffic::build_paper_workload(graph, sm->routes(), *admission, *sim, wc);

  sm->configure_fabric(*sim, *admission);
}

void PaperRun::run() {
  summary = sim->run_paper_phases(cfg.warmup, cfg.min_rx_packets,
                                  cfg.hard_limit);
  if (sim->series() != nullptr) series = sim->series()->finalize(sim->now());
}

std::unique_ptr<PaperRun> run_paper_experiment(PaperRunConfig cfg) {
  return std::make_unique<PaperRun>(cfg);
}

std::vector<PaperRun::SlSeries> PaperRun::per_sl() const {
  std::vector<SlSeries> out(10);
  std::vector<std::array<std::uint64_t, sim::kDelayThresholds>> within(10);
  std::vector<std::array<std::uint64_t, sim::kJitterBins>> jitter(10);
  for (unsigned sl = 0; sl < 10; ++sl) out[sl].sl = sl;

  for (const auto& ec : workload.connections) {
    const auto& c = sim->metrics().connections[ec.flow];
    auto& s = out[ec.sl];
    ++s.connections;
    s.rx_packets += c.rx_packets;
    s.deadline_misses += c.deadline_misses;
    for (std::size_t i = 0; i < sim::kDelayThresholds; ++i)
      within[ec.sl][i] += c.within_threshold[i];
    for (std::size_t b = 0; b < sim::kJitterBins; ++b)
      jitter[ec.sl][b] += c.jitter_bins[b];
  }
  for (unsigned sl = 0; sl < 10; ++sl) {
    auto& s = out[sl];
    if (s.rx_packets > 0) {
      for (std::size_t i = 0; i < sim::kDelayThresholds; ++i)
        s.within[i] = static_cast<double>(within[sl][i]) /
                      static_cast<double>(s.rx_packets);
    }
    std::uint64_t jt = 0;
    for (const auto v : jitter[sl]) jt += v;
    if (jt > 0) {
      for (std::size_t b = 0; b < sim::kJitterBins; ++b)
        s.jitter[b] =
            static_cast<double>(jitter[sl][b]) / static_cast<double>(jt);
    }
  }
  return out;
}

PaperRun::BestWorst PaperRun::best_worst(iba::ServiceLevel sl) const {
  BestWorst bw;
  bool first = true;
  for (std::size_t i = 0; i < workload.connections.size(); ++i) {
    const auto& ec = workload.connections[i];
    if (ec.sl != sl) continue;
    const auto& c = sim->metrics().connections[ec.flow];
    if (c.rx_packets == 0) continue;
    std::array<double, sim::kDelayThresholds> within{};
    for (std::size_t k = 0; k < sim::kDelayThresholds; ++k)
      within[k] = c.fraction_within(k);
    // Lexicographic over thresholds, tightest first: the whole curve breaks
    // ties, not just the D/30 point.
    if (first || within > bw.best_within) {
      bw.best = i;
      bw.best_within = within;
    }
    if (first || within < bw.worst_within) {
      bw.worst = i;
      bw.worst_within = within;
    }
    first = false;
  }
  bw.found = !first;
  return bw;
}

PaperRun::Table2Row PaperRun::table2() const {
  Table2Row row;
  const auto& m = sim->metrics();
  const auto window = static_cast<double>(m.window_length());
  const auto nodes = static_cast<double>(graph.hosts().size());
  if (window <= 0.0 || nodes <= 0.0) return row;

  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  for (const auto& c : m.connections) {
    injected += c.tx_wire_bytes;
    delivered += c.rx_wire_bytes;
  }
  row.injected_bytes_per_cycle_per_node =
      static_cast<double>(injected) / window / nodes;
  row.delivered_bytes_per_cycle_per_node =
      static_cast<double>(delivered) / window / nodes;

  double host_util = 0.0, sw_util = 0.0;
  double host_res = 0.0, sw_res = 0.0;
  unsigned hosts = 0, switches = 0;
  for (const auto& p : m.ports) {
    if (p.is_host_interface) {
      host_util += p.utilization(m.window_length());
      host_res += p.reserved_mbps;
      ++hosts;
    } else {
      sw_util += p.utilization(m.window_length());
      sw_res += p.reserved_mbps;
      ++switches;
    }
  }
  if (hosts > 0) {
    row.host_utilization = host_util / hosts;
    row.host_reserved_mbps = host_res / hosts;
  }
  if (switches > 0) {
    row.switch_utilization = sw_util / switches;
    row.switch_reserved_mbps = sw_res / switches;
  }
  return row;
}

std::vector<PaperRun::SlThroughput> PaperRun::per_sl_throughput() const {
  std::vector<SlThroughput> out;
  const auto window = static_cast<double>(sim->metrics().window_length());
  for (unsigned sl = 0; sl < 10; ++sl) {
    SlThroughput t{static_cast<iba::ServiceLevel>(sl), 0.0, 0.0, 0.0};
    std::uint64_t rx = 0, misses = 0, bytes = 0;
    for (const auto& ec : workload.connections) {
      if (ec.sl != sl) continue;
      t.reserved_wire_mbps += ec.wire_mbps;
      const auto& c = sim->metrics().connections[ec.flow];
      rx += c.rx_packets;
      misses += c.deadline_misses;
      bytes += c.rx_wire_bytes;
    }
    if (window > 0.0)
      t.delivered_wire_mbps =
          static_cast<double>(bytes) * 8.0 / (window * iba::kNsPerCycle);
    // bytes*8 bits over window*4 ns = (bits/ns) * 1000 = Mbps... convert:
    // bits / ns == Gbps; x1000 -> Mbps.
    t.delivered_wire_mbps *= 1000.0;
    if (rx > 0)
      t.miss_fraction =
          static_cast<double>(misses) / static_cast<double>(rx);
    out.push_back(t);
  }
  return out;
}

std::string threshold_label(std::size_t index) {
  const double div = sim::kDelayThresholdDivisors[index];
  if (div == 1.0) return "D";
  std::ostringstream os;
  if (div == static_cast<double>(static_cast<int>(div)))
    os << "D/" << static_cast<int>(div);
  else
    os << "D/" << div;
  return os.str();
}

std::string jitter_label(std::size_t bin) {
  static const char* kLabels[] = {
      "<-IAT",          "[-IAT,-3/4)",   "[-3/4,-1/2)", "[-1/2,-1/4)",
      "[-1/4,-1/8)",    "[-1/8,+1/8)",   "[+1/8,+1/4)", "[+1/4,+1/2)",
      "[+1/2,+3/4)",    "[+3/4,+IAT)",   ">+IAT"};
  static_assert(std::size(kLabels) == sim::kJitterBins);
  return kLabels[bin];
}

}  // namespace ibarb::bench
