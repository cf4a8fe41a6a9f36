#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/shard.hpp"

namespace ibarb::sim {

namespace {

/// LID convention used across the library: host LID = node id + 1 (LID 0 is
/// reserved/invalid in IBA). The subnet manager mirrors this assignment.
iba::Lid lid_of(iba::NodeId host) { return static_cast<iba::Lid>(host + 1); }

/// True while the calling thread executes a shard window (sim/shard.cpp).
bool in_parallel() { return t_shard != nullptr; }

/// Out of line and cold so that output_port, which the datapath calls per
/// packet, stays small enough to inline.
[[noreturn, gnu::cold, gnu::noinline]] void throw_bad_host_port(
    iba::NodeId host, iba::PortIndex port) {
  throw std::invalid_argument("host " + std::to_string(host) +
                              " has only output port 0, not port " +
                              std::to_string(port));
}

}  // namespace

/// One switch's port state as the sched::CrossbarPorts view. The
/// eligibility queries and grant() reproduce exactly what the pre-refactor
/// Simulator::try_start_transfer checked and committed, in the same order,
/// so WrrCrossbar over this view is bit-identical to the old hard-wired
/// loop (tests/golden/, test_crossbar differential). Built per schedule()
/// call; the schedulers are templates over it, so every query is a direct
/// call.
class XbarView {
 public:
  XbarView(Simulator& sim, std::uint32_t switch_index)
      : sim_(sim), sw_(sim.switches_[switch_index]),
        pool_(sim.pool_at(sw_.node)) {}

  unsigned port_count() const { return static_cast<unsigned>(sw_.in.size()); }

  bool input_ready(iba::PortIndex in) const {
    const InputPort& ip = sw_.in[in];
    return ip.wired && !ip.xbar_tx_busy && !ip.buffers.all_empty();
  }

  std::uint16_t input_occupancy(iba::PortIndex in) const {
    return sw_.in[in].buffers.occupancy();
  }

  iba::PortIndex head_output(iba::PortIndex in, iba::VirtualLane vl) const {
    return sim_.route_port(sw_, head(in, vl).destination);
  }

  std::uint32_t head_bytes(iba::PortIndex in, iba::VirtualLane vl) const {
    return sw_.in[in].buffers.front_bytes(vl);
  }

  bool output_free(iba::PortIndex out) const {
    return !sw_.out[out].xbar_rx_busy;
  }

  bool output_accepts(iba::PortIndex in, iba::VirtualLane vl,
                      iba::PortIndex out) const {
    const iba::Packet& p = head(in, vl);
    const OutputPort& op = sw_.out[out];
    const iba::VirtualLane out_vl =
        p.management ? iba::kManagementVl : op.sl_map.map(p.sl);
    return op.queues.can_accept(out_vl, head_bytes(in, vl));
  }

  void grant(iba::PortIndex in, iba::VirtualLane vl, iba::PortIndex out) {
    InputPort& ip = sw_.in[in];
    OutputPort& op = sw_.out[out];

    ip.xbar_tx_busy = true;
    op.xbar_rx_busy = true;

    const std::uint32_t wire = ip.buffers.front_bytes(vl);
    const auto link_cycles = iba::serialization_cycles(wire, op.link.rate);
    const auto xfer_cycles = std::max<iba::Cycle>(
        1, static_cast<iba::Cycle>(static_cast<double>(link_cycles) /
                                   iba::kCrossbarSpeedup));
    Event done;
    done.time = sim_.now_cur() + iba::kCrossbarDelay + xfer_cycles;
    done.type = EventType::kXferComplete;
    done.node = sw_.node;
    done.port = out;
    done.vl = vl;
    done.aux = in;
    const iba::Cycle done_time = done.time;
    sim_.push_event(done);

    if (in_parallel()) {
      // The upstream credit release this transfer will perform is fully
      // determined now. on_xfer_complete applies it inline — before its
      // local work — on the sequential path; here it becomes its own event
      // so it can cross a shard boundary. The shard engine keys it
      // immediately *before* the kXferComplete above, no event anywhere can
      // order between the two halves, and they touch disjoint port state —
      // so the split is unobservable.
      const auto up = sim_.graph_.peer(sw_.node, in);
      assert(up.has_value());
      Event rel;
      rel.time = done_time;
      rel.type = EventType::kCreditRelease;
      rel.node = up->node;
      rel.port = up->port;
      rel.vl = vl;
      rel.aux = wire;
      sim_.push_event(rel);
    }
  }

 private:
  const iba::Packet& head(iba::PortIndex in, iba::VirtualLane vl) const {
    return pool_[sw_.in[in].buffers.front(vl)];
  }

  Simulator& sim_;
  SwitchState& sw_;
  const PacketPool& pool_;
};

Simulator::Simulator(const network::FabricGraph& graph,
                     const network::Routes& routes, SimConfig cfg)
    : graph_(graph), cfg_(cfg), trace_(cfg.trace_capacity) {
  buffer_capacity_bytes_ =
      cfg_.buffer_packets *
      (cfg_.max_payload_bytes + iba::kPacketOverheadBytes);

  // Switches forward by LID-indexed tables; LIDs are 16 bits wide.
  if (graph_.node_count() > 0xFFFE)
    throw std::invalid_argument(
        "Simulator: " + std::to_string(graph_.node_count()) +
        " nodes exceed the 16-bit LID space (LID = node id + 1)");
  index_.assign(graph_.node_count(), 0);
  std::uint32_t flat = 0;

  const auto init_output = [&](OutputPort& op, iba::NodeId node,
                               iba::PortIndex port, bool host_interface) {
    const auto peer = graph_.peer(node, port);
    if (!peer) return;
    op.wired = true;
    op.peer = network::PortRef{peer->node, peer->port};
    op.link = graph_.link(node, port);
    op.flat_id = flat++;
    op.sl_map = iba::SlToVlMappingTable::identity(iba::kManagementVl);
    op.credits = iba::CreditTracker(
        iba::bytes_to_blocks(buffer_capacity_bytes_));
    PortMetrics pm;
    pm.is_host_interface = host_interface;
    pm.link_mbps = iba::link_mbps(op.link.rate);
    metrics_.ports.push_back(pm);
  };

  for (iba::NodeId id = 0; id < graph_.node_count(); ++id) {
    if (graph_.is_switch(id)) {
      index_[id] = static_cast<std::uint32_t>(switches_.size());
      SwitchState sw;
      sw.node = id;
      sw.lft.assign(graph_.node_count() + 1, network::kNoRoute);
      for (const auto h : routes.host_ids())
        sw.lft[lid_of(h)] = routes.out_port(id, h);
      const unsigned ports = graph_.port_count(id);
      sw.in.resize(ports);
      sw.out.resize(ports);
      for (unsigned p = 0; p < ports; ++p) {
        if (graph_.peer(id, static_cast<iba::PortIndex>(p))) {
          sw.in[p].wired = true;
          sw.in[p].buffers.set_capacity_all(buffer_capacity_bytes_);
        }
        init_output(sw.out[p], id, static_cast<iba::PortIndex>(p),
                    /*host_interface=*/false);
      }
      switches_.push_back(std::move(sw));
      xbar_.emplace_back(cfg_.crossbar_impl, ports);
    } else {
      index_[id] = static_cast<std::uint32_t>(hosts_.size());
      HostState host;
      host.node = id;
      init_output(host.out, id, 0, /*host_interface=*/true);
      // Source queues are unbounded; leave capacities at kUnbounded.
      hosts_.push_back(std::move(host));
    }
  }
  // Switch port vectors keep their storage when switches_ grows; host
  // ports are addressed once hosts_ is complete.
  port_base_.resize(graph_.node_count());
  for (SwitchState& sw : switches_) port_base_[sw.node] = sw.out.data();
  for (HostState& h : hosts_) port_base_[h.node] = &h.out;

  // Publish the simulator's always-on component counters into the registry
  // at snapshot time. Arbiter/port/buffer figures are aggregated across all
  // output ports; per-VL output occupancy peaks keep the "which VL starved?"
  // question answerable without per-port blow-up.
  telemetry_.add_probe([this](obs::Snapshot& snap) {
    EventQueue::Stats qs = queue_.stats();
    qs.pops -= serial_release_pops_;
    if (engine_) engine_->fold_stats(qs);
    snap.add_counter("queue.pushes", qs.pushes);
    snap.add_counter("queue.pops", qs.pops);
    snap.add_counter("queue.overflow_pushes", qs.overflow_pushes);
    // Pending-event census sampled at fixed kPendingSampleEvery marks — the
    // one queue-depth figure the sequential and the sharded engine compute
    // identically (a true per-push peak is tie-order-sensitive and would
    // break the shard-count-invariance of snapshots).
    snap.merge_gauge("queue.peak_size", static_cast<double>(pending_peak_),
                     obs::MergePolicy::kMax);
    snap.add_histogram("queue.residency_log2", qs.residency_log2.data(),
                       qs.residency_log2.size());

    snap.add_counter("sim.events", events_);
    snap.add_counter("sim.purged_in_flight_late", purged_late_);
    snap.add_counter("trace.records", trace_.total_recorded());

    iba::VlArbiter::Stats arb;
    std::uint64_t credit_stalls = 0;
    std::uint64_t out_peak_bytes = 0;
    std::array<std::uint64_t, iba::kMaxVirtualLanes> vl_peak_packets{};
    const auto fold = [&](const OutputPort& op) {
      if (!op.wired) return;
      const iba::VlArbiter::Stats& s = op.arbiter.stats();
      arb.decisions += s.decisions;
      arb.vl15_bypasses += s.vl15_bypasses;
      arb.high_picks += s.high_picks;
      arb.low_picks += s.low_picks;
      arb.high_skips += s.high_skips;
      arb.low_skips += s.low_skips;
      arb.limit_blocks += s.limit_blocks;
      arb.idle += s.idle;
      credit_stalls += op.credit_stalls;
      for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v) {
        const VlFifo& f = op.queues.vl(static_cast<iba::VirtualLane>(v));
        out_peak_bytes = std::max<std::uint64_t>(out_peak_bytes,
                                                 f.peak_bytes());
        vl_peak_packets[v] =
            std::max<std::uint64_t>(vl_peak_packets[v], f.peak_packets());
      }
    };
    for (const SwitchState& sw : switches_)
      for (const OutputPort& op : sw.out) fold(op);
    for (const HostState& h : hosts_) fold(h.out);

    snap.add_counter("arb.decisions", arb.decisions);
    snap.add_counter("arb.vl15_bypasses", arb.vl15_bypasses);
    snap.add_counter("arb.high_picks", arb.high_picks);
    snap.add_counter("arb.low_picks", arb.low_picks);
    snap.add_counter("arb.high_skips", arb.high_skips);
    snap.add_counter("arb.low_skips", arb.low_skips);
    snap.add_counter("arb.limit_blocks", arb.limit_blocks);
    snap.add_counter("arb.idle", arb.idle);
    snap.add_counter("port.credit_stalls", credit_stalls);
    snap.merge_gauge("buffer.out.peak_bytes",
                     static_cast<double>(out_peak_bytes),
                     obs::MergePolicy::kMax);
    snap.add_histogram("buffer.out.peak_packets_by_vl",
                       vl_peak_packets.data(), vl_peak_packets.size());

    std::uint64_t in_peak_bytes = 0;
    for (const SwitchState& sw : switches_)
      for (const InputPort& ip : sw.in) {
        if (!ip.wired) continue;
        for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v)
          in_peak_bytes = std::max<std::uint64_t>(
              in_peak_bytes,
              ip.buffers.vl(static_cast<iba::VirtualLane>(v)).peak_bytes());
      }
    snap.merge_gauge("buffer.in.peak_bytes",
                     static_cast<double>(in_peak_bytes),
                     obs::MergePolicy::kMax);

    sched::CrossbarScheduler::Stats xs;
    for (const sched::Crossbar& x : xbar_) {
      const sched::CrossbarScheduler::Stats& s = x.stats();
      xs.rounds += s.rounds;
      xs.grants += s.grants;
      xs.iterations += s.iterations;
      xs.blocked_output += s.blocked_output;
      xs.blocked_space += s.blocked_space;
    }
    snap.add_counter("xbar.rounds", xs.rounds);
    snap.add_counter("xbar.grants", xs.grants);
    snap.add_counter("xbar.iterations", xs.iterations);
    snap.add_counter("xbar.blocked_output", xs.blocked_output);
    snap.add_counter("xbar.blocked_space", xs.blocked_space);
  });

  if (cfg_.sample_every > 0) {
    obs::SeriesRecorder::Config sc;
    sc.sample_every = cfg_.sample_every;
    series_ = std::make_unique<obs::SeriesRecorder>(telemetry_, sc);
    metrics_.set_series(series_.get());
  }

  if (cfg_.shards == 0) cfg_.shards = 1;

  if (cfg_.profile) {
    profiler_ = std::make_unique<obs::PhaseProfiler>();
    // profile.* and shard.* are the quarantined families: published only
    // when profiling is opted into, never sampled into the series, never
    // part of a determinism byte-compare. Under --shards the per-worker
    // profilers fold into one fleet-wide total, and the shard engine
    // publishes its health counters alongside.
    telemetry_.add_probe([this](obs::Snapshot& snap) {
      obs::PhaseProfiler folded = *profiler_;
      if (engine_) engine_->fold_profile(folded);
      for (int i = 0; i < obs::PhaseProfiler::kPhaseCount; ++i) {
        const auto p = static_cast<obs::PhaseProfiler::Phase>(i);
        const std::string base =
            std::string("profile.") + obs::PhaseProfiler::name(p);
        snap.merge_gauge(base + "_ms", folded.total_ms(p),
                         obs::MergePolicy::kSum);
        snap.add_counter(base + "_calls", folded.calls(p));
      }
      if (engine_) engine_->publish_shard_stats(snap);
    });
  }
}

Simulator::~Simulator() = default;

iba::Cycle Simulator::now_cur() const {
  return t_shard != nullptr ? t_shard->now : now_;
}

void Simulator::push_event(Event e) {
  if (engine_ && engine_->active()) {
    const iba::NodeId home = event_home_node(e);
    engine_->route_push(std::move(e), home);
    return;
  }
  queue_.push(std::move(e));
}

iba::NodeId Simulator::event_home_node(const Event& e) const {
  switch (e.type) {
    case EventType::kGenerate:
      return flows_[e.aux].spec.src_host;
    case EventType::kProbe:
    case EventType::kControl:
      return 0;  // Only ever migrated, never executed in parallel.
    default:
      return e.node;
  }
}

void Simulator::sample_pending(std::uint64_t pending, iba::Cycle through) {
  if (pending > pending_peak_) pending_peak_ = pending;
  next_pending_mark_ =
      (through / kPendingSampleEvery + 1) * kPendingSampleEvery;
}

bool Simulator::parallel_ready() {
  if (cfg_.shards <= 1) return false;
  // Hazards the parallel engine cannot reproduce byte-identically: inline
  // callbacks with cross-shard visibility (fault hooks, delivery listeners,
  // call_at controls) and purge barriers whose bookkeeping is shared mutable
  // state. Observers — tracing, series sampling, profiling — are NOT
  // hazards: each shard records into its own plane and the orchestrator
  // merges them deterministically at window barriers (docs/PARALLEL.md).
  const char* hazard = nullptr;
  if (hooks_ != nullptr) {
    hazard = "fault-hooks";
  } else if (delivery_listener_ != nullptr) {
    hazard = "delivery-listener";
  } else if (!controls_.empty()) {
    hazard = "pending-controls";
  } else if (!purged_flows_.empty()) {
    hazard = "purge-barriers";
  }
  if (hazard != nullptr) {
    fallback_reason_ = hazard;
    if (!shard_fallback_warned_) {
      shard_fallback_warned_ = true;
      std::fprintf(stderr,
                   "ibarb: --shards %u requested, but %s cannot be reproduced "
                   "in parallel; using the sequential core (output is "
                   "unchanged)\n",
                   cfg_.shards, hazard);
    }
    if (engine_ && engine_->active()) engine_->surrender(queue_);
    return false;
  }
  if (!engine_) {
    std::string error;
    engine_ = ShardEngine::create(*this, cfg_.shards, error);
    if (!engine_) {
      fallback_reason_ = "unshardable-topology";
      if (!shard_fallback_warned_) {
        shard_fallback_warned_ = true;
        std::fprintf(stderr, "ibarb: %s\n", error.c_str());
      }
      cfg_.shards = 1;
      return false;
    }
  }
  if (!engine_->active()) {
    engine_->adopt(queue_);
    // Give every shard worker its own series delivery lane, folded at each
    // commit — the one SeriesRecorder hot hook that is not already
    // single-writer under the shard partition.
    if (series_) series_->set_lanes(engine_->shards());
  }
  fallback_reason_.clear();
  return true;
}

ShardLoadStats Simulator::shard_load() const {
  ShardLoadStats out;
  if (engine_) engine_->fill_load(out);
  return out;
}

void Simulator::export_shard_tracks(
    std::vector<obs::PhaseSpan>& spans,
    std::vector<obs::CounterTrack>& counters) const {
  if (engine_) engine_->export_tracks(spans, counters);
}

obs::PhaseProfiler* Simulator::cur_profiler() const {
  const ShardCtx* const c = t_shard;
  return c != nullptr ? c->profiler.get() : profiler_.get();
}

void Simulator::record_trace(iba::Cycle time, TraceEvent event,
                             iba::NodeId node, iba::PortIndex port,
                             iba::VirtualLane vl, const iba::Packet& p) {
  if (!trace_.enabled()) return;
  ShardCtx* const c = t_shard;
  if (c == nullptr) {
    trace_.record(time, event, node, port, vl, p);
    return;
  }
  // Parallel window: park the record in the shard's window-local buffer,
  // tagged with the emitting handler's identity; the orchestrator merges
  // every buffer into the shared ring in final (time, key) order after
  // barrier D, reproducing the sequential ring byte for byte.
  c->trace_buf.push_back(ShardCtx::PendingTrace{
      TraceRecord{time, event, node, port, vl, p.id, p.connection},
      c->handler_known, c->handler_seq, c->handler_self});
}

OutputPort& Simulator::checked_output_port(const char* where,
                                           iba::NodeId node,
                                           iba::PortIndex port) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument(std::string(where) + ": node " +
                                std::to_string(node) + " port " +
                                std::to_string(port) + ": " + why);
  };
  if (node >= graph_.node_count())
    fail("no such node (the fabric has " +
         std::to_string(graph_.node_count()) + " nodes)");
  if (!graph_.is_switch(node)) {
    if (port != 0) throw_bad_host_port(node, port);
  } else if (const auto ports = switches_[index_[node]].out.size();
             port >= ports) {
    fail("no such port (the switch has " + std::to_string(ports) +
         " ports)");
  }
  return output_port(node, port);
}

PacketPool& Simulator::pool_at(iba::NodeId node) {
  if (ShardCtx* const c = t_shard; c != nullptr) return c->pool;
  if (engine_ && engine_->active()) return engine_->pool_of(node);
  return pool_;
}

void Simulator::set_output_arbitration(iba::NodeId node, iba::PortIndex port,
                                       const iba::VlArbitrationTable& table) {
  OutputPort& op = checked_output_port("set_output_arbitration", node, port);
  // The arbiter indexes per-VL state by an entry's VL, so an active entry
  // on a non-data VL (VL15 or a reserved value) must never reach it.
  for (const bool high : {true, false}) {
    const iba::ArbTable& t = high ? table.high() : table.low();
    for (unsigned slot = 0; slot < t.size(); ++slot)
      if (t[slot].active() && t[slot].vl >= iba::kManagementVl)
        throw std::invalid_argument(
            "set_output_arbitration: node " + std::to_string(node) +
            " port " + std::to_string(port) + ": " +
            (high ? "high" : "low") + "-priority slot " +
            std::to_string(slot) + " holds VL " + std::to_string(t[slot].vl) +
            "; only data VLs 0..14 may be active");
  }
  op.arbiter.set_table(table);
}

void Simulator::set_sl_to_vl(iba::NodeId node, iba::PortIndex port,
                             const iba::SlToVlMappingTable& map) {
  checked_output_port("set_sl_to_vl", node, port).sl_map = map;
}

void Simulator::set_sl_to_vl_all(const iba::SlToVlMappingTable& map) {
  for (auto& sw : switches_)
    for (auto& op : sw.out)
      if (op.wired) op.sl_map = map;
  for (auto& h : hosts_)
    if (h.out.wired) h.out.sl_map = map;
}

void Simulator::set_port_reserved_mbps(iba::NodeId node, iba::PortIndex port,
                                       double mbps) {
  metrics_.ports
      .at(checked_output_port("set_port_reserved_mbps", node, port).flat_id)
      .reserved_mbps = mbps;
}

void Simulator::set_forwarding(iba::NodeId sw,
                               std::vector<iba::PortIndex> lft) {
  if (sw >= graph_.node_count() || !graph_.is_switch(sw))
    throw std::invalid_argument("set_forwarding: node " + std::to_string(sw) +
                                " is not a switch; forwarding tables live "
                                "in switches");
  SwitchState& state = switches_[index_[sw]];
  const std::string where = "set_forwarding: switch " + std::to_string(sw);
  if (lft.size() != graph_.node_count() + 1)
    throw std::invalid_argument(
        where + ": table has " + std::to_string(lft.size()) +
        " entries, need one per LID 0.." + std::to_string(graph_.node_count()));
  for (const auto h : graph_.hosts()) {
    const auto port = lft[lid_of(h)];
    if (port >= state.out.size() || !state.out[port].wired)
      throw std::invalid_argument(
          where + ": LID " + std::to_string(lid_of(h)) + " maps to port " +
          std::to_string(port) + ", not a wired port of the switch");
  }
  state.lft = std::move(lft);
}

iba::PortIndex Simulator::route_port(const SwitchState& sw,
                                     iba::Lid dst) const {
  return sw.lft[dst];
}

std::uint32_t Simulator::flat_port_id(iba::NodeId node,
                                      iba::PortIndex port) const {
  auto& self = const_cast<Simulator&>(*this);
  return self.checked_output_port("flat_port_id", node, port).flat_id;
}

std::uint32_t Simulator::add_flow(const FlowSpec& spec) {
  for (const iba::NodeId n : {spec.src_host, spec.dst_host})
    if (n >= graph_.node_count())
      throw std::invalid_argument("add_flow: node " + std::to_string(n) +
                                  " does not exist (the fabric has " +
                                  std::to_string(graph_.node_count()) +
                                  " nodes)");
  if (graph_.is_switch(spec.src_host) || graph_.is_switch(spec.dst_host))
    throw std::invalid_argument("flows run host to host");
  if (spec.src_host == spec.dst_host)
    throw std::invalid_argument("flow source equals destination");
  if (spec.interval == 0) throw std::invalid_argument("zero flow interval");
  // Negated so that NaN shapes fail too.
  if (spec.kind == GeneratorKind::kOnOffVbr &&
      !(spec.on_fraction > 0.0 && spec.on_fraction <= 1.0 &&
        spec.burst_mean_packets >= 1.0))
    throw std::invalid_argument(
        "VBR flow needs on_fraction in (0, 1] and burst_mean_packets >= 1");

  const auto idx = static_cast<std::uint32_t>(flows_.size());
  FlowState fs;
  fs.spec = spec;
  fs.rng = util::Xoshiro256(cfg_.seed ^ (0x9e3779b97f4a7c15ull * (idx + 1)) ^
                            spec.seed);
  fs.next_nominal = std::max(spec.start_offset, now_);
  fs.generator_scheduled = !spec.external;
  flows_.push_back(std::move(fs));

  ConnectionMetrics cm;
  cm.sl = spec.sl;
  cm.deadline = spec.deadline;
  cm.nominal_iat = spec.interval;
  cm.qos = spec.qos;
  metrics_.connections.push_back(cm);
  if (series_) series_->note_connection(idx, spec.sl, spec.qos, spec.deadline);

  if (engine_)
    engine_->note_flow_wire(spec.external
                                ? iba::kPacketOverheadBytes
                                : spec.payload_bytes +
                                      iba::kPacketOverheadBytes);

  if (!spec.external) {
    Event e;
    e.time = std::max(spec.start_offset, now_);
    e.type = EventType::kGenerate;
    e.aux = idx;
    push_event(std::move(e));
  }
  return idx;
}

void Simulator::stop_flow(std::uint32_t flow_index) {
  flows_.at(flow_index).stopped = true;
}

void Simulator::resume_flow(std::uint32_t flow_index) {
  FlowState& f = flows_.at(flow_index);
  if (!f.stopped) return;
  f.stopped = false;
  if (f.spec.external || f.generator_scheduled) return;
  // The generator chain died while stopped: restart it from the present
  // (the CBR nominal clock must not try to catch up on the outage).
  f.next_nominal = now_;
  f.generator_scheduled = true;
  Event e;
  e.time = now_;
  e.type = EventType::kGenerate;
  e.aux = flow_index;
  push_event(std::move(e));
}

void Simulator::set_flow_overdrive(std::uint32_t flow_index, double factor) {
  if (factor <= 0.0) throw std::invalid_argument("overdrive must be > 0");
  flows_.at(flow_index).overdrive = factor;
}

void Simulator::schedule_flow(std::uint32_t flow_index,
                              iba::Cycle not_before) {
  FlowState& f = flows_[flow_index];
  // Misbehaving-source overdrive compresses every generator interval. The
  // common factor-1.0 path stays in exact integer arithmetic.
  const auto scaled = [&f](iba::Cycle interval) {
    if (f.overdrive == 1.0) return interval;
    return std::max<iba::Cycle>(
        1, static_cast<iba::Cycle>(static_cast<double>(interval) /
                                   f.overdrive));
  };
  iba::Cycle next = not_before;
  switch (f.spec.kind) {
    case GeneratorKind::kCbr:
      // Drift-free: advance the nominal clock, never the actual send time.
      f.next_nominal += scaled(f.spec.interval);
      next = f.next_nominal;
      break;
    case GeneratorKind::kPoisson:
      next = now_cur() + static_cast<iba::Cycle>(
                             f.rng.exponential(static_cast<double>(
                                 scaled(f.spec.interval))) + 1.0);
      break;
    case GeneratorKind::kOnOffVbr: {
      if (f.burst_left > 0) {
        --f.burst_left;
        const auto peak = static_cast<iba::Cycle>(
            static_cast<double>(scaled(f.spec.interval)) *
                f.spec.on_fraction + 1.0);
        next = now_cur() + peak;
      } else {
        // Draw a new burst; the silence restores the long-run mean rate.
        const double burst =
            1.0 + f.rng.exponential(f.spec.burst_mean_packets - 1.0);
        f.burst_left = static_cast<std::uint32_t>(burst);
        const double off_mean =
            static_cast<double>(scaled(f.spec.interval)) * burst *
            (1.0 - f.spec.on_fraction);
        next = now_cur() +
               static_cast<iba::Cycle>(f.rng.exponential(off_mean) + 1.0);
      }
      break;
    }
  }
  f.generator_scheduled = true;
  Event e;
  e.time = next;
  e.type = EventType::kGenerate;
  e.aux = flow_index;
  push_event(std::move(e));
}

void Simulator::on_generate(std::uint32_t flow_index) {
  FlowState& f = flows_[flow_index];
  f.generator_scheduled = false;
  if (f.stopped) return;  // torn down: neither generate nor reschedule
  const FlowSpec& spec = f.spec;
  const iba::Cycle now = now_cur();

  iba::Packet p;
  p.connection = flow_index;
  p.sl = spec.sl;
  p.source = lid_of(spec.src_host);
  p.destination = lid_of(spec.dst_host);
  p.payload_bytes = spec.payload_bytes;
  p.sequence = f.next_sequence++;
  // Generated packets derive their id from (flow, sequence) — never from a
  // shared counter — so ids are identical whether a window runs on the
  // sequential core or on any shard worker, and trace files byte-compare
  // across shard counts. External injections (inject_external) keep the
  // monotone counter; those ids stay below 2^32, so the domains never
  // collide.
  p.id = ((static_cast<std::uint64_t>(flow_index) + 1) << 32) |
         (p.sequence + 1);
  p.injected_at = now;
  p.management = spec.management;
  p.deadline = metrics_.connections[flow_index].deadline;

  metrics_.record_injection(flow_index, p);

  HostState& host = hosts_[index_[spec.src_host]];
  const iba::VirtualLane vl =
      spec.management ? iba::kManagementVl : host.out.sl_map.map(spec.sl);
  record_trace(now, TraceEvent::kInject, spec.src_host, 0, vl, p);
  host.out.queues.push(vl, pool_at(spec.src_host).park(p), p.wire_bytes());
  try_transmit(spec.src_host, 0);

  schedule_flow(flow_index, now);
}

void Simulator::try_transmit(iba::NodeId node, iba::PortIndex port) {
  OutputPort& op = output_port(node, port);
  if (!op.wired || op.tx_busy || op.queues.all_empty()) return;
  // Downed or stuck transmitter: hold everything; the fault layer calls
  // kick_port when the condition clears.
  if (hooks_ && !hooks_->may_transmit(node, port)) return;

  const auto ready = op.ready_bytes();
  const auto decision = [&] {
    obs::ScopedTimer timer(cur_profiler(), obs::PhaseProfiler::kArbitration);
    return op.arbiter.arbitrate(ready);
  }();
  if (!decision) return;

  const auto wire = op.queues.front_bytes(decision->vl);
  const PacketHandle h = op.queues.pop(decision->vl);
  op.credits.consume(decision->vl, wire);
  op.tx_busy = true;
  const iba::Cycle now = now_cur();
  record_trace(now, TraceEvent::kLinkTx, node, port, decision->vl,
               pool_at(node)[h]);

  auto ser = iba::serialization_cycles(wire, op.link.rate);
  if (hooks_) ser = hooks_->stretch_serialization(node, port, ser);
  metrics_.record_tx(op.flat_id, wire, ser);

  Event done;
  done.time = now + ser;
  done.type = EventType::kTxComplete;
  done.node = node;
  done.port = port;
  push_event(std::move(done));

  Event arrive;
  arrive.time = now + ser + op.link.propagation_delay;
  arrive.type = EventType::kLinkDeliver;
  arrive.node = op.peer.node;
  arrive.port = op.peer.port;
  arrive.vl = decision->vl;
  arrive.pkt = h;
  push_event(arrive);
}

void Simulator::on_tx_complete(iba::NodeId node, iba::PortIndex port) {
  output_port(node, port).tx_busy = false;
  try_transmit(node, port);
}

void Simulator::on_link_deliver(const Event& e) {
  const iba::Cycle now = now_cur();
  PacketPool& pool = pool_at(e.node);
  const iba::Packet& p = pool[e.pkt];
  const std::uint32_t wire = p.wire_bytes();
  auto verdict = FaultHooks::RxVerdict::kDeliver;
  if (hooks_ && !p.management) {
    obs::ScopedTimer timer(cur_profiler(), obs::PhaseProfiler::kFaultHooks);
    verdict = hooks_->on_link_rx(e.node, e.port, p);
  }
  if (verdict == FaultHooks::RxVerdict::kDrop) {
    // Discarded on arrival (corrupted past the CRC, or a drop-fault window).
    // The receiver still frees the notional buffer, so upstream credits are
    // returned — a lost packet must not wedge the sender.
    record_trace(now, TraceEvent::kDrop, e.node, e.port, e.vl, p);
    metrics_.record_drop(p.connection);
    pool.release(e.pkt);
    const auto up = graph_.peer(e.node, e.port);
    assert(up.has_value());
    OutputPort& upstream = output_port(up->node, up->port);
    upstream.credits.release(e.vl, wire);
    try_transmit(up->node, up->port);
    return;
  }
  if (graph_.is_switch(e.node)) {
    SwitchState& sw = switches_[index_[e.node]];
    sw.in[e.port].buffers.push(e.vl, e.pkt, wire);
    schedule_crossbar(index_[e.node], static_cast<int>(e.port));
    return;
  }
  // Host sink: record, then return credits to the upstream switch port
  // immediately (hosts drain their receive buffers at line rate). The
  // upstream port is the host's own uplink switch — same shard — so this
  // stays inline in parallel windows too.
  record_trace(now, TraceEvent::kDeliver, e.node, e.port, e.vl, p);
  {
    obs::ScopedTimer timer(cur_profiler(), obs::PhaseProfiler::kMetrics);
    metrics_.record_delivery(p.connection, p, now);
  }
  if (delivery_listener_) {
    // The listener may inject (and so park) packets: hand it a copy, since
    // a park can move the pool's storage.
    const iba::Packet delivered = pool.take(e.pkt);
    delivery_listener_(delivered, now);
  } else {
    pool.release(e.pkt);
  }
  const auto up = graph_.peer(e.node, 0);
  assert(up.has_value());
  OutputPort& upstream = output_port(up->node, up->port);
  upstream.credits.release(e.vl, wire);
  try_transmit(up->node, up->port);
}

void Simulator::on_xfer_complete(const Event& e) {
  SwitchState& sw = switches_[index_[e.node]];
  const auto in_port = static_cast<iba::PortIndex>(e.aux);
  InputPort& ip = sw.in[in_port];
  OutputPort& op = sw.out[e.port];

  const std::uint32_t wire = ip.buffers.front_bytes(e.vl);
  const PacketHandle h = ip.buffers.pop(e.vl);

  // Input buffer space freed: return credits to whoever feeds this port. In
  // a parallel window the feeder may live on another shard, so the release
  // travels as the kCreditRelease event XbarView::grant emitted alongside
  // this one (keyed right before it — see on_credit_release).
  if (!in_parallel()) {
    const auto up = graph_.peer(e.node, in_port);
    assert(up.has_value());
    OutputPort& upstream = output_port(up->node, up->port);
    upstream.credits.release(e.vl, wire);
    try_transmit(up->node, up->port);
  }

  // Enqueue at the output on the VL this port's SLtoVL table dictates —
  // unless recovery abandoned this connection on this port (the packet was
  // in flight when the purge ran; queuing it now would strand it on a VL
  // whose arbitration weight left with the reservation).
  PacketPool& pool = pool_at(e.node);
  const iba::Packet& p = pool[h];
  const iba::VirtualLane out_vl =
      p.management ? iba::kManagementVl : op.sl_map.map(p.sl);
  if (!p.management && !purged_flows_.empty() &&
      purged_flows_.count({op.flat_id, p.connection}) > 0) {
    record_trace(now_cur(), TraceEvent::kDrop, e.node, e.port, out_vl, p);
    metrics_.record_drop(p.connection);
    pool.release(h);
    ++purged_late_;
  } else {
    record_trace(now_cur(), TraceEvent::kXbar, e.node, e.port, out_vl, p);
    op.queues.push(out_vl, h, wire);
  }

  ip.xbar_tx_busy = false;
  op.xbar_rx_busy = false;

  try_transmit(e.node, e.port);
  schedule_crossbar(index_[e.node], /*only_input=*/-1);
}

void Simulator::schedule_crossbar(std::uint32_t switch_index, int only_input) {
  XbarView view(*this, switch_index);
  xbar_[switch_index].schedule(view, only_input);
}

void Simulator::on_credit_release(const Event& e) {
  OutputPort& op = output_port(e.node, e.port);
  op.credits.release(e.vl, e.aux);
  try_transmit(e.node, e.port);
}

void Simulator::handle(const Event& e) {
  switch (e.type) {
    case EventType::kGenerate:
      on_generate(e.aux);
      break;
    case EventType::kLinkDeliver:
      on_link_deliver(e);
      break;
    case EventType::kTxComplete:
      on_tx_complete(e.node, e.port);
      break;
    case EventType::kXferComplete:
      on_xfer_complete(e);
      break;
    case EventType::kProbe:
      break;  // phase control polls state between events
    case EventType::kControl: {
      const auto it = controls_.find(e.aux);
      assert(it != controls_.end() && "control callback fired twice");
      auto fn = std::move(it->second);
      controls_.erase(it);  // erase first: fn may call_at again
      fn();
      break;
    }
    case EventType::kCreditRelease:
      on_credit_release(e);
      break;
  }
}

void Simulator::call_at(iba::Cycle t, std::function<void()> fn) {
  const auto id = next_control_id_++;
  controls_.emplace(id, std::move(fn));
  Event e;
  e.time = std::max(t, now_);
  e.type = EventType::kControl;
  e.aux = id;
  push_event(std::move(e));
}

std::uint64_t Simulator::inject_external(std::uint32_t flow_index,
                                         std::uint32_t payload_bytes,
                                         std::uint32_t sequence,
                                         std::uint8_t rc_op, bool rc_last) {
  FlowState& f = flows_.at(flow_index);
  if (!f.spec.external)
    throw std::invalid_argument("inject_external needs an external flow");
  const FlowSpec& spec = f.spec;

  iba::Packet p;
  p.id = next_packet_id_++;
  p.connection = flow_index;
  p.sl = spec.sl;
  p.source = lid_of(spec.src_host);
  p.destination = lid_of(spec.dst_host);
  p.payload_bytes = payload_bytes;
  p.sequence = sequence;
  p.injected_at = now_;
  p.management = spec.management;
  p.rc_op = rc_op;
  p.rc_last = rc_last;
  p.deadline = metrics_.connections[flow_index].deadline;
  const auto id = p.id;

  metrics_.record_injection(flow_index, p);

  HostState& host = hosts_[index_[spec.src_host]];
  const iba::VirtualLane vl =
      spec.management ? iba::kManagementVl : host.out.sl_map.map(spec.sl);
  record_trace(now_, TraceEvent::kInject, spec.src_host, 0, vl, p);
  host.out.queues.push(vl, pool_at(spec.src_host).park(p), p.wire_bytes());
  try_transmit(spec.src_host, 0);
  return id;
}

void Simulator::kick_port(iba::NodeId node, iba::PortIndex port) {
  checked_output_port("kick_port", node, port);
  try_transmit(node, port);
}

std::uint64_t Simulator::flush_output_queue(iba::NodeId node,
                                            iba::PortIndex port) {
  OutputPort& op = checked_output_port("flush_output_queue", node, port);
  PacketPool& pool = pool_at(node);
  std::uint64_t flushed = 0;
  // Queued packets never consumed this port's credits (that happens when
  // serialization starts), so discarding them is pure local state.
  while (!op.queues.all_empty()) {
    const auto vl = static_cast<iba::VirtualLane>(
        std::countr_zero(op.queues.occupancy()));
    const PacketHandle h = op.queues.pop(vl);
    record_trace(now_, TraceEvent::kDrop, node, port, vl, pool[h]);
    metrics_.record_drop(pool[h].connection);
    pool.release(h);
    ++flushed;
  }
  return flushed;
}

std::uint64_t Simulator::purge_flow_from_output(iba::NodeId node,
                                                iba::PortIndex port,
                                                std::uint32_t flow) {
  OutputPort& op = checked_output_port("purge_flow_from_output", node, port);
  PacketPool& pool = pool_at(node);
  std::uint64_t purged = 0;
  // Like flushed packets, queued packets hold no credits yet: removal is
  // pure local state.
  for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v) {
    const auto vl = static_cast<iba::VirtualLane>(v);
    for (const PacketHandle h : op.queues.extract_connection(vl, flow, pool)) {
      record_trace(now_, TraceEvent::kDrop, node, port, vl, pool[h]);
      metrics_.record_drop(pool[h].connection);
      pool.release(h);
      ++purged;
    }
  }
  // Arm the barrier: anything still in flight towards this port (crossbar
  // transfer or link traversal) lands after the purge and is dropped on
  // enqueue, until clear_flow_purge re-admits the flow here.
  purged_flows_.insert({op.flat_id, flow});
  return purged;
}

void Simulator::clear_flow_purge(iba::NodeId node, iba::PortIndex port,
                                 std::uint32_t flow) {
  purged_flows_.erase(
      {checked_output_port("clear_flow_purge", node, port).flat_id, flow});
}

void Simulator::run_until(iba::Cycle t) {
  if (parallel_ready()) {
    engine_->run_until(t);
    return;
  }
  while (!queue_.empty() && queue_.top().time <= t) {
    // Pending-event census at fixed marks (the queue.peak_size gauge): the
    // first event at or past a mark triggers a sample *before* it pops, so
    // the count covers everything still scheduled from the mark onwards —
    // the same census the parallel engine takes at its window barriers.
    if (queue_.top().time >= next_pending_mark_)
      sample_pending(queue_.size() - serial_pending_releases_,
                     queue_.top().time);
    // A series boundary B samples the state after every event with time
    // <= B, so commit pending boundaries before popping the first event
    // that crosses one — the pop itself belongs to the next window. This
    // is the same commit point the parallel orchestrator uses between
    // windows, which keeps sampled queue counters byte-identical.
    if (series_ && queue_.top().time > series_->next_due()) {
      obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kSeries);
      series_->advance_to(queue_.top().time);
    }
    const Event e = queue_.pop();
    assert(e.time >= now_ && "time must not run backwards");
    // A credit release handed back by ShardEngine::surrender: engine
    // bookkeeping with no sequential counterpart, excluded from the pop and
    // event counters exactly like the shard workers exclude theirs.
    if (e.type == EventType::kCreditRelease) {
      ++serial_release_pops_;
      --serial_pending_releases_;
    }
    now_ = e.time;
    if (e.type != EventType::kCreditRelease) ++events_;
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kDispatch);
    handle(e);
  }
  if (now_ < t) now_ = t;
  if (t >= next_pending_mark_)
    sample_pending(queue_.size() - serial_pending_releases_, t);
  // All events <= t are handled, so every boundary <= t is complete — flush
  // them even if no later event arrives to cross the boundary (idempotent;
  // run_paper_phases calls run_until in probe steps).
  if (series_ && t + 1 > series_->next_due()) {
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kSeries);
    series_->advance_to(t + 1);
  }
}

RunSummary Simulator::run_paper_phases(iba::Cycle warmup,
                                       std::uint64_t min_rx_packets,
                                       iba::Cycle hard_limit) {
  RunSummary summary;
  run_until(warmup);
  summary.warmup_end = now_;

  metrics_.start_window(now_);
  const iba::Cycle window_start = now_;
  const iba::Cycle probe_step = 65536;
  iba::Cycle next_probe = now_ + probe_step;
  while (true) {
    run_until(next_probe);
    next_probe = now_ + probe_step;
    if (metrics_.min_qos_rx() >= min_rx_packets) break;
    if (now_ - window_start >= hard_limit) {
      summary.hit_hard_limit = true;
      break;
    }
  }
  metrics_.stop_window(now_);
  summary.window_cycles = now_ - window_start;
  summary.events = events_;
  return summary;
}

std::uint64_t Simulator::packets_in_network() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) {
    for (const auto& ip : sw.in) n += ip.buffers.total_packets();
    for (const auto& op : sw.out) n += op.queues.total_packets();
  }
  for (const auto& h : hosts_) n += h.out.queues.total_packets();
  return n;
}

}  // namespace ibarb::sim
