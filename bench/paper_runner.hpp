// Shared harness for the paper-reproduction benches: stands up the full
// pipeline (irregular fabric -> subnet manager -> Table-1 workload ->
// admission -> simulation) and exposes the aggregations each table/figure
// needs. Lives in bench/ because it is reproduction plumbing, not library
// API.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "network/registry.hpp"
#include "network/topology.hpp"
#include "obs/series.hpp"
#include "qos/admission.hpp"
#include "sched/crossbar_impl.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"

namespace ibarb::bench {

struct PaperRunConfig {
  unsigned switches = 16;           ///< Paper's headline network size.
  iba::Mtu mtu = iba::Mtu::kMtu256; ///< Small packets; kMtu4096 = large.
  std::uint64_t seed = 21;
  std::uint64_t min_rx_packets = 30;
  iba::Cycle warmup = 2'000'000;
  iba::Cycle hard_limit = 3'000'000'000;
  double besteffort_load = 0.10;
  qos::Scheme scheme = qos::Scheme::kNewProposal;
  arbtable::FillPolicy policy = arbtable::FillPolicy::kBitReversal;
  double oversend_factor = 1.0;
  std::uint16_t oversend_sl_mask = 0;
  bool vbr = false;                  ///< VBR instead of CBR sources.
  double vbr_on_fraction = 0.25;
  unsigned buffer_packets = 4;       ///< Per-VL buffer depth.
  std::uint8_t limit_of_high_priority = iba::kUnlimitedHighPriority;
  /// Packet-trace ring size (0 = off). Benches enable it on run 0 of a
  /// sweep when --trace-out is given; the run is self-contained and
  /// deterministic, so the exported trace is byte-identical for any --jobs.
  std::size_t trace_capacity = 0;
  /// Time-series sampling cadence (--sample-every); 0 = off. Like tracing,
  /// benches enable this on run 0 only (bench::apply_run0_observability).
  std::uint64_t sample_every = 0;
  /// Wall-clock self-profiler (--profile); profile.* telemetry only.
  bool profile = false;
  /// Crossbar scheduler. Engaged by --crossbar; empty defers to the
  /// IBARB_CROSSBAR env (then wrr) — flag beats env beats default, the same
  /// precedence every knob here follows.
  std::optional<sched::CrossbarImpl> crossbar;
  /// Parallel simulation shards (--shards); 0 defers to IBARB_SHARDS, then
  /// 1 (sequential). Output is byte-identical for any value.
  unsigned shards = 0;
  /// Topology spec ("family:k=v,...", network/registry.hpp). Engaged by
  /// --topo; empty defers to IBARB_TOPO, then the paper's irregular family.
  /// For the irregular family, --switches/--seed still fill in any
  /// parameter the spec leaves unset, so the pre-registry flags keep
  /// working unchanged.
  std::string topo;
  /// Routing engine name (network/routing_engine.hpp). Engaged by
  /// --routing; empty defers to IBARB_ROUTING, then updown.
  std::string routing;
};

/// Applies the common bench flags (--switches --mtu --seed --packets
/// --warmup --quick) on top of the defaults.
PaperRunConfig config_from_cli(const util::Cli& cli, PaperRunConfig base = {});

/// IBARB_SHARDS=N selects the parallel-core shard count through an
/// unmodified bench binary (CI reruns the suite sharded); unset or empty
/// means 1 (sequential). Any other value must be an integer in [1, 64];
/// otherwise throws std::invalid_argument naming the value.
unsigned shards_from_env();

/// The topology spec a config resolves to (flag beats IBARB_TOPO beats
/// irregular), with --switches/--seed filled into an irregular spec's unset
/// parameters. Every fabric a PaperRun builds comes from this.
network::TopologySpec resolve_topology(const PaperRunConfig& cfg);

/// The routing engine a config resolves to (flag beats IBARB_ROUTING beats
/// updown).
std::string resolve_routing(const PaperRunConfig& cfg);

/// One complete simulated experiment. Members reference each other, so the
/// struct is heap-pinned (no copies/moves).
struct PaperRun {
  PaperRunConfig cfg;
  network::FabricGraph graph;
  std::unique_ptr<subnet::SubnetManager> sm;
  std::unique_ptr<qos::AdmissionControl> admission;
  std::unique_ptr<sim::Simulator> sim;
  traffic::Workload workload;
  sim::RunSummary summary;
  /// Finalized time-series of the run; engaged when cfg.sample_every > 0
  /// (filled by run() after the last simulated cycle).
  std::optional<obs::SeriesData> series;

  PaperRun(const PaperRun&) = delete;
  PaperRun& operator=(const PaperRun&) = delete;
  explicit PaperRun(PaperRunConfig c);

  /// Tag for the two-phase form used by timing harnesses: the constructor
  /// stands up the fabric/workload only, and run() executes the simulation
  /// phases (so setup cost can be excluded from a measurement).
  struct DeferSim {};
  PaperRun(PaperRunConfig c, DeferSim);
  void run();

  // --- Aggregations -------------------------------------------------------

  struct SlSeries {
    iba::ServiceLevel sl = 0;
    std::uint64_t connections = 0;
    std::uint64_t rx_packets = 0;
    /// Fraction of packets within deadline/divisor, per threshold index.
    std::array<double, sim::kDelayThresholds> within{};
    /// Fraction of inter-arrival deviations per jitter bin.
    std::array<double, sim::kJitterBins> jitter{};
    std::uint64_t deadline_misses = 0;
  };

  /// Figure 4 / 5 series for the ten QoS SLs.
  std::vector<SlSeries> per_sl() const;

  /// Figure 6: indices (into workload.connections) of the connections of
  /// `sl` with the lowest/highest fraction meeting the tightest threshold.
  struct BestWorst {
    /// False when no connection of the SL received a packet — best/worst
    /// are then meaningless and callers must skip the cell.
    bool found = false;
    std::size_t best = 0;
    std::size_t worst = 0;
    std::array<double, sim::kDelayThresholds> best_within{};
    std::array<double, sim::kDelayThresholds> worst_within{};
  };
  BestWorst best_worst(iba::ServiceLevel sl) const;

  /// Table 2 aggregates.
  struct Table2Row {
    double injected_bytes_per_cycle_per_node = 0.0;
    double delivered_bytes_per_cycle_per_node = 0.0;
    double host_utilization = 0.0;     ///< Mean over host interfaces.
    double switch_utilization = 0.0;   ///< Mean over wired switch ports.
    double host_reserved_mbps = 0.0;
    double switch_reserved_mbps = 0.0;
  };
  Table2Row table2() const;

  /// Per-SL delivered payload rate vs reservation (misbehaviour bench).
  struct SlThroughput {
    iba::ServiceLevel sl;
    double reserved_wire_mbps;
    double delivered_wire_mbps;
    double miss_fraction;  ///< Deadline misses / rx packets.
  };
  std::vector<SlThroughput> per_sl_throughput() const;
};

std::unique_ptr<PaperRun> run_paper_experiment(PaperRunConfig cfg);

/// Human label for a threshold index ("D/30" ... "D").
std::string threshold_label(std::size_t index);

/// Human label for a jitter bin ("<-IAT", "[-IAT,-3IAT/4)", ..., ">+IAT").
std::string jitter_label(std::size_t bin);

}  // namespace ibarb::bench
