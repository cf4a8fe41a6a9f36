// fig4-small: set up a fabric, then drive the simulator
// through run_until slices of a fixed simulated length. Each repeat builds
// the fabric from nothing, so set-up is measured as often as the
// simulation, and every repeat of one seed must reproduce the same
// simulated statistics. Timed figures come from the fastest copy of each
// slice over a run's repeats (fastest_blocks).
#include <algorithm>
#include <array>
#include <iostream>
#include <numeric>

#include "obs/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ibarb::iba::Cycle;

struct SimWorkload {
  FabricConfig fabric;
  Cycle warmup = 0;  ///< Stats-off transient.
  /// Paper protocol: measure until every QoS connection has received this
  /// many packets, checked every kProbeStep cycles as run_paper_phases
  /// does.
  std::uint64_t min_rx_packets = 0;
  /// run_until step: one timed operation and one block. Sized so the
  /// window has about a thousand slices, enough for a p99 with ten samples
  /// beyond it.
  Cycle slice = 4096;
  double min_run_s = 0.0;  ///< Simulated host seconds to accumulate.
};

constexpr Cycle kProbeStep = 65536;  // Simulator::run_paper_phases' probe.
constexpr Cycle kHardLimit = 3'000'000'000;  // The paper runs' window cap.

struct Repeat : RepeatBase {
  Cycle cycles = 0;
  std::uint64_t events = 0;
  /// block_s holds every slice, warm-up first; the measurement window
  /// starts at this index.
  std::size_t window_first = 0;
  std::uint64_t qos_rx = 0;
  std::uint64_t qos_within_half = 0;
  std::uint64_t deadline_misses = 0;
  double delivered_bytes_per_cycle_per_node = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  double audit_ms = 0.0;
  bool audit_ok = true;
  ibarb::obs::Snapshot snap;
  double arb_replay_ns = 0.0;  ///< Set when the repeat ran the replay.
};

/// Runs [now, until) in slices, appending each slice's host seconds to
/// `slice_s`; `stop` is polled at every kProbeStep boundary relative to
/// `origin`.
template <typename Stop>
void run_slices(ibarb::sim::Simulator& sim, Cycle origin, Cycle until,
                Cycle slice, std::vector<double>& slice_s, Tracer* tracer,
                Stop&& stop) {
  while (sim.now() < until) {
    const Cycle from = sim.now();
    const Cycle to = std::min(until, from + slice);
    const std::uint64_t ev0 = sim.events_processed();
    const auto t0 = Clock::now();
    sim.run_until(to);
    const auto t1 = Clock::now();
    slice_s.push_back(seconds_between(t0, t1));
    if (tracer != nullptr)
      tracer->leaf("sim", "run_until", t0, t1, sim.events_processed() - ev0,
                   to - from);
    if ((to - origin) % kProbeStep == 0 && stop()) return;
  }
}

Repeat run_repeat(const SimWorkload& w, Tracer* tracer, bool replay_arbiter) {
  Repeat r;
  auto f = build_fabric(w.fabric, r.setup, tracer);
  auto& sim = *f->sim;
  r.offered = f->workload.offered;
  r.accepted = f->workload.accepted;

  {
    ScopedSpan span(tracer, "bench", "run");
    const auto t0 = Clock::now();
    // Warm-up slices count towards throughput but not towards op latency,
    // which describes the steady state, not the start-up transient.
    run_slices(sim, 0, w.warmup, w.slice, r.block_s, tracer,
               [] { return false; });
    sim.metrics().start_window(sim.now());
    const Cycle window_start = sim.now();
    r.window_first = r.block_s.size();
    run_slices(sim, window_start, window_start + kHardLimit, w.slice,
               r.block_s, tracer, [&] {
                 return sim.metrics().min_qos_rx() >= w.min_rx_packets;
               });
    sim.metrics().stop_window(sim.now());
    r.run_s = seconds_between(t0, Clock::now());
  }
  r.cycles = sim.now();
  r.events = sim.events_processed();

  // The simulated statistics: identical for every repeat of one seed.
  const auto& m = sim.metrics();
  std::uint64_t delivered = 0;
  std::array<std::uint64_t, 16> rx{}, within{};  // per SL
  for (const auto& c : m.connections) {
    delivered += c.rx_wire_bytes;
    if (!c.qos) continue;
    r.qos_rx += c.rx_packets;
    r.qos_within_half += c.within_threshold[7];  // D/2
    r.deadline_misses += c.deadline_misses;
    rx[c.sl] += c.rx_packets;
    within[c.sl] += c.within_threshold[7];
  }
  r.delivered_bytes_per_cycle_per_node =
      static_cast<double>(delivered) /
      static_cast<double>(std::max<Cycle>(1, m.window_length())) /
      static_cast<double>(f->graph.hosts().size());
  r.digest = digest_mix(r.digest, r.events);
  r.digest = digest_mix(r.digest, r.cycles);
  r.digest = digest_mix(r.digest, r.accepted);
  for (unsigned sl = 0; sl < 16; ++sl) {
    r.digest = digest_mix(r.digest, rx[sl]);
    r.digest = digest_mix(r.digest, within[sl]);
  }

  r.snap = sim.telemetry_snapshot();
  const auto a0 = Clock::now();
  {
    ScopedSpan span(tracer, "qos", "audit_full");
    r.audit_ok = f->admission->audit_full();
  }
  r.audit_ms = seconds_between(a0, Clock::now()) * 1e3;
  if (replay_arbiter)
    r.arb_replay_ns = replay_arbiter_ns_per_decision(
        *f,
        ibarb::iba::mtu_bytes(w.fabric.mtu) + ibarb::iba::kPacketOverheadBytes,
        derive_seed(w.fabric.seed, 8));
  return r;
}

Result run_sim(const Args& args, const SimWorkload& w) {
  Result res;
  Tracer spans;
  bool replayed = false;  // the arbiter replay runs once, on the first repeat
  const auto reps = run_repeats<Repeat>(
      args, w.min_run_s, spans, [&](Tracer* tracer) {
        const auto t0 = Clock::now();
        auto r = run_repeat(w, tracer, args.trace && !replayed);
        replayed = true;
        const std::vector<double> window(
            r.block_s.begin() + static_cast<std::ptrdiff_t>(r.window_first),
            r.block_s.end());
        std::cerr << "[perfbench] " << args.workload
                  << (tracer ? " traced" : "") << " repeat: setup "
                  << r.setup.total_s << " s, run " << r.run_s << " s, "
                  << r.cycles << " cycles, " << r.events
                  << " events, slice p50 " << quantile(window, 0.5) * 1e6
                  << " us p99 " << quantile(window, 0.99) * 1e6
                  << " us, wall " << seconds_between(t0, Clock::now())
                  << " s, digest "
                  << std::hex << r.digest << std::dec << "\n";
        return r;
      });

  // --- Correctness gate ------------------------------------------------
  const Repeat& first = reps.front();
  for (const auto& r : reps) {
    res.attempted += r.qos_rx;
    if (r.deadline_misses > 0)
      res.fail(std::to_string(r.deadline_misses) + " QoS deadline misses");
    if (!r.audit_ok) res.fail("audit_full failed after set-up");
  }
  check_digests(reps, res, "simulated statistics");
  if (first.qos_rx == 0) res.fail("no QoS packet was delivered");

  // --- Aggregation -------------------------------------------------------
  auto med = [&](auto field) { return untraced_median(reps, field); };
  const std::vector<double> fastest = fastest_blocks(reps);
  std::vector<double> slices_us;
  for (std::size_t i = first.window_first; i < fastest.size(); ++i)
    slices_us.push_back(fastest[i] * 1e6);

  const double run_s = std::accumulate(fastest.begin(), fastest.end(), 0.0);
  const double cycles_per_s = ratio(static_cast<double>(first.cycles), run_s);
  res.end_to_end["throughput_per_s"] = {cycles_per_s, "1/s"};
  res.end_to_end["op_p50_us"] = {quantile(slices_us, 0.50), "us"};
  res.end_to_end["setup_s"] = {
      med([](const Repeat& r) { return r.setup.total_s; }), "s"};
  res.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  res.end_to_end["guaranteed_accept_frac"] = {
      ratio(static_cast<double>(first.accepted),
            static_cast<double>(first.offered)),
      "frac"};
  if (!args.trace) return res;

  auto& L = res.per_layer;
  const auto& s = first.snap;
  L["sim_cycles_per_s"] = {cycles_per_s, "1/s"};
  L["op_p99_us"] = {quantile(slices_us, 0.99), "us"};
  const double traffic_ms =
      med([](const Repeat& r) { return r.setup.traffic_build_ms; });
  L["admit_ops_per_s"] = {ratio(static_cast<double>(first.offered),
                                traffic_ms / 1e3),
                          "1/s"};
  L["deadline_miss_frac"] = {
      ratio(static_cast<double>(first.deadline_misses),
            static_cast<double>(first.qos_rx)),
      "frac"};
  L["qos_within_half_deadline_frac"] = {
      ratio(static_cast<double>(first.qos_within_half),
            static_cast<double>(first.qos_rx)),
      "frac"};
  L["delivered_bytes_per_cycle_per_node"] = {
      first.delivered_bytes_per_cycle_per_node, "B/cycle"};

  add_setup_layers(res, untraced_setups(reps));
  add_admission_layers(res, s);
  L["qos.audit_full_ms"] = {med([](const Repeat& r) { return r.audit_ms; }),
                            "ms"};

  const auto events = static_cast<double>(first.events);
  L["sim.run_s"] = {run_s, "s"};
  L["sim.cycles"] = {static_cast<double>(first.cycles), "cycle"};
  L["sim.events"] = {events, "count"};
  L["sim.ns_per_event"] = {ratio(run_s * 1e9, events), "ns"};

  L["queue.pushes"] = {static_cast<double>(counter(s, "queue.pushes")),
                       "count"};
  L["queue.overflow_pushes"] = {
      static_cast<double>(counter(s, "queue.overflow_pushes")), "count"};
  L["queue.peak_size"] = {gauge(s, "queue.peak_size"), "count"};
  const auto depth = static_cast<std::size_t>(gauge(s, "queue.peak_size"));
  const auto hist_it = s.histograms.find("queue.residency_log2");
  const std::vector<std::uint64_t> residency =
      hist_it == s.histograms.end() ? std::vector<std::uint64_t>{}
                                    : hist_it->second;
  const double queue_ns = replay_queue_ns_per_event(
      std::max<std::size_t>(depth, 1), residency, derive_seed(args.seed, 7));
  L["queue.replay_ns_per_op"] = {queue_ns, "ns"};
  const double queue_share = ratio(
      queue_ns * static_cast<double>(counter(s, "queue.pops")), run_s * 1e9);
  L["queue.est_share"] = {queue_share, "frac"};

  const auto decisions = static_cast<double>(counter(s, "arb.decisions"));
  L["arb.decisions"] = {decisions, "count"};
  L["arb.idle_ratio"] = {
      ratio(static_cast<double>(counter(s, "arb.idle")), decisions), "frac"};
  L["arb.high_picks"] = {static_cast<double>(counter(s, "arb.high_picks")),
                         "count"};
  L["arb.limit_blocks"] = {
      static_cast<double>(counter(s, "arb.limit_blocks")), "count"};
  const double arb_ns = first.arb_replay_ns;
  L["arb.replay_ns_per_decision"] = {arb_ns, "ns"};
  const double arb_share = ratio(arb_ns * decisions, run_s * 1e9);
  L["arb.est_share"] = {arb_share, "frac"};
  L["sim.residual_share"] = {1.0 - queue_share - arb_share, "frac"};

  const auto rounds = static_cast<double>(counter(s, "xbar.rounds"));
  L["xbar.rounds"] = {rounds, "count"};
  L["xbar.grants"] = {static_cast<double>(counter(s, "xbar.grants")),
                      "count"};
  L["xbar.grant_ratio"] = {
      ratio(static_cast<double>(counter(s, "xbar.grants")), rounds), "frac"};
  L["xbar.blocked_output"] = {
      static_cast<double>(counter(s, "xbar.blocked_output")), "count"};
  L["xbar.blocked_space"] = {
      static_cast<double>(counter(s, "xbar.blocked_space")), "count"};
  L["port.credit_stalls"] = {
      static_cast<double>(counter(s, "port.credit_stalls")), "count"};
  L["buffer.out.peak_bytes"] = {gauge(s, "buffer.out.peak_bytes"), "B"};

  add_trace_layers(res, spans, reps, args);
  return res;
}

}  // namespace

Result run_fig4_small(const Args& args) {
  SimWorkload w;
  w.fabric.topo = kPaperFabric;
  w.fabric.routing = "updown";
  w.fabric.mtu = ibarb::iba::Mtu::kMtu256;
  w.fabric.besteffort_load = 0.10;
  w.fabric.seed = args.seed;
  w.warmup = 500'000;
  w.min_rx_packets = 10;
  w.slice = 4096;
  w.min_run_s = args.seconds;
  if (args.tiny) {
    w.fabric.topo = "irregular:switches=4,seed=3";
    w.warmup = 65536;
    w.min_rx_packets = 1;
    w.min_run_s = 0.0;
  }
  return run_sim(args, w);
}

}  // namespace perfbench
