#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ibarb::sim {

namespace {

/// LID convention used across the library: host LID = node id + 1 (LID 0 is
/// reserved/invalid in IBA). The subnet manager mirrors this assignment.
iba::Lid lid_of(iba::NodeId host) { return static_cast<iba::Lid>(host + 1); }
iba::NodeId node_of(iba::Lid lid) { return static_cast<iba::NodeId>(lid) - 1; }

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
/// call; WrrCrossbar is a template over it, so every query is a direct
/// call.
class XbarView {
 public:
  XbarView(Simulator& sim, std::uint32_t switch_index)
      : sim_(sim), sw_(sim.switches_[switch_index]),
        pool_(sim.pool_) {}

  unsigned port_count() const { return static_cast<unsigned>(sw_.in.size()); }

  bool input_ready(iba::PortIndex in) const {
    [[maybe_unused]] const InputPort& ip = sw_.in[in];
    assert(sw_.input_ready(in) ==
           (ip.wired && !ip.xbar_tx_busy && !ip.buffers.all_empty()));
    return sw_.input_ready(in);
  }

  std::uint16_t input_occupancy(iba::PortIndex in) const {
    return sw_.in[in].buffers.occupancy();
  }

  iba::PortIndex head_output(iba::PortIndex in, iba::VirtualLane vl) const {
    return sim_.route_port(sw_, head(in, vl).destination);
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
    return op.queues.can_accept(out_vl, sw_.in[in].buffers.front_bytes(vl));
  }

  void grant(iba::PortIndex in, iba::VirtualLane vl, iba::PortIndex out) {
    InputPort& ip = sw_.in[in];
    OutputPort& op = sw_.out[out];

    ip.xbar_tx_busy = true;
    sw_.clear_input_ready(in);
    op.xbar_rx_busy = true;

    const std::uint32_t wire = ip.buffers.front_bytes(vl);
    const auto link_cycles = iba::serialization_cycles(wire, op.link.rate);
    const auto xfer_cycles = std::max<iba::Cycle>(
        1, static_cast<iba::Cycle>(static_cast<double>(link_cycles) /
                                   iba::kCrossbarSpeedup));
    Event done;
    done.time = sim_.now_ + iba::kCrossbarDelay + xfer_cycles;
    done.type = EventType::kXferComplete;
    done.node = sw_.node;
    done.port = out;
    done.vl = vl;
    done.aux = in;
    sim_.queue_.push(done);
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
  if (cfg_.shards != 1)
    throw std::invalid_argument(
        "Simulator: SimConfig::shards is " + std::to_string(cfg_.shards) +
        "; runs are sequential, so it must be 1");
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
      xbar_.emplace_back(ports);
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
    const EventQueue::Stats& qs = queue_.stats();
    snap.add_counter("queue.pushes", qs.pushes);
    snap.add_counter("queue.pops", qs.pops);
    snap.add_counter("queue.overflow_pushes", qs.overflow_pushes);
    // Pending-event census sampled at fixed kPendingSampleEvery marks, not
    // the per-push peak in qs: the goldens and perfbench read this value.
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

    sched::WrrCrossbar::Stats xs;
    for (const sched::WrrCrossbar& x : xbar_) {
      const sched::WrrCrossbar::Stats& s = x.stats();
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

  if (cfg_.profile) {
    profiler_ = std::make_unique<obs::PhaseProfiler>();
    // profile.* is the quarantined family: published only when profiling is
    // opted into, never sampled into the series, never part of a
    // determinism byte-compare.
    telemetry_.add_probe([this](obs::Snapshot& snap) {
      for (int i = 0; i < obs::PhaseProfiler::kPhaseCount; ++i) {
        const auto p = static_cast<obs::PhaseProfiler::Phase>(i);
        const std::string base =
            std::string("profile.") + obs::PhaseProfiler::name(p);
        snap.merge_gauge(base + "_ms", profiler_->total_ms(p),
                         obs::MergePolicy::kSum);
        snap.add_counter(base + "_calls", profiler_->calls(p));
      }
    });
  }
}

void Simulator::sample_pending(std::uint64_t pending, iba::Cycle through) {
  if (pending > pending_peak_) pending_peak_ = pending;
  next_pending_mark_ =
      (through / kPendingSampleEvery + 1) * kPendingSampleEvery;
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
  fs.next_nominal = std::max(spec.start_offset, now_);
  fs.interval = spec.interval;
  fs.payload_bytes = spec.payload_bytes;
  fs.src = lid_of(spec.src_host);
  fs.dst = lid_of(spec.dst_host);
  fs.sl = spec.sl;
  fs.kind = spec.kind;
  fs.scheduled = !spec.external;
  fs.management = spec.management;
  fs.external = spec.external;
  flows_.push_back(fs);
  FlowCold cold;
  cold.rng = util::Xoshiro256(cfg_.seed ^ (0x9e3779b97f4a7c15ull * (idx + 1)) ^
                              spec.seed);
  cold.interval = spec.interval;
  cold.burst_mean_packets = spec.burst_mean_packets;
  cold.on_fraction = spec.on_fraction;
  flow_cold_.push_back(cold);

  ConnectionMetrics cm;
  cm.sl = spec.sl;
  cm.deadline = spec.deadline;
  cm.nominal_iat = spec.interval;
  cm.qos = spec.qos;
  metrics_.connections.push_back(cm);
  if (series_) series_->note_connection(idx, spec.sl, spec.qos, spec.deadline);

  if (!spec.external) {
    Event e;
    e.time = std::max(spec.start_offset, now_);
    e.type = EventType::kGenerate;
    e.aux = idx;
    queue_.push(std::move(e));
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
  if (f.external || f.scheduled) return;
  // The generator chain died while stopped: restart it from the present
  // (the CBR nominal clock must not try to catch up on the outage).
  f.next_nominal = now_;
  f.scheduled = true;
  Event e;
  e.time = now_;
  e.type = EventType::kGenerate;
  e.aux = flow_index;
  queue_.push(std::move(e));
}

void Simulator::set_flow_overdrive(std::uint32_t flow_index, double factor) {
  // Written so that NaN fails too. A tiny factor would overflow the cast
  // below.
  if (!(factor >= 1.0))
    throw std::invalid_argument("overdrive factor must be at least 1");
  // Misbehaving-source overdrive compresses the generator interval. Factor
  // 1.0 restores the spec's interval in exact integer arithmetic.
  const iba::Cycle nominal = flow_cold_.at(flow_index).interval;
  flows_[flow_index].interval =
      factor == 1.0 ? nominal
                    : std::max<iba::Cycle>(
                          1, static_cast<iba::Cycle>(
                                 static_cast<double>(nominal) / factor));
}

void Simulator::schedule_flow(std::uint32_t flow_index) {
  FlowState& f = flows_[flow_index];
  const auto interval = static_cast<double>(f.interval);
  Event e;
  switch (f.kind) {
    case GeneratorKind::kCbr:
      // Drift-free: advance the nominal clock, never the actual send time.
      f.next_nominal += f.interval;
      e.time = f.next_nominal;
      break;
    case GeneratorKind::kPoisson:
      e.time = now_ +
               static_cast<iba::Cycle>(
                   flow_cold_[flow_index].rng.exponential(interval) + 1.0);
      break;
    case GeneratorKind::kOnOffVbr: {
      FlowCold& c = flow_cold_[flow_index];
      if (c.burst_left > 0) {
        --c.burst_left;
        e.time = now_ +
                 static_cast<iba::Cycle>(interval * c.on_fraction + 1.0);
      } else {
        // Draw a new burst; the silence restores the long-run mean rate.
        const double burst =
            1.0 + c.rng.exponential(c.burst_mean_packets - 1.0);
        c.burst_left = static_cast<std::uint32_t>(burst);
        const double off_mean = interval * burst * (1.0 - c.on_fraction);
        e.time = now_ +
                 static_cast<iba::Cycle>(c.rng.exponential(off_mean) + 1.0);
      }
      break;
    }
  }
  f.scheduled = true;
  e.type = EventType::kGenerate;
  e.aux = flow_index;
  queue_.push(std::move(e));
}

void Simulator::on_generate(std::uint32_t flow_index) {
  FlowState& f = flows_[flow_index];
  f.scheduled = false;
  if (f.stopped) return;  // torn down: neither generate nor reschedule

  iba::Packet p;
  p.payload_bytes = f.payload_bytes;
  p.sequence = f.next_sequence++;
  // Generated packets derive their id from (flow, sequence), never from a
  // shared counter, so a packet's id depends only on its own flow. External
  // injections (inject_external) keep the monotone counter; those ids stay
  // below 2^32, so the domains never collide.
  p.id = ((static_cast<std::uint64_t>(flow_index) + 1) << 32) |
         (p.sequence + 1);
  inject(flow_index, p);

  schedule_flow(flow_index);
}

void Simulator::inject(std::uint32_t flow_index, iba::Packet& p) {
  const FlowState& f = flows_[flow_index];
  p.connection = flow_index;
  p.sl = f.sl;
  p.destination = f.dst;
  p.injected_at = now_;
  p.management = f.management;
  p.deadline = metrics_.connections[flow_index].deadline;

  metrics_.record_injection(flow_index, p);

  const iba::NodeId src = node_of(f.src);
  HostState& host = hosts_[index_[src]];
  const iba::VirtualLane vl =
      f.management ? iba::kManagementVl : host.out.sl_map.map(f.sl);
  trace_.record(now_, TraceEvent::kInject, src, 0, vl, p);
  host.out.queues.push(vl, pool_.park(p), p.wire_bytes());
  try_transmit(src, 0);
}

void Simulator::try_transmit(iba::NodeId node, iba::PortIndex port) {
  OutputPort& op = output_port(node, port);
  if (!op.wired || op.tx_busy || op.queues.all_empty()) return;
  // Downed or stuck transmitter: hold everything; the fault layer calls
  // kick_port when the condition clears.
  if (hooks_ && !hooks_->may_transmit(node, port)) return;

  const auto ready = op.ready_bytes();
  const auto decision = [&] {
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kArbitration);
    return op.arbiter.arbitrate(ready);
  }();
  if (!decision) return;

  const auto wire = op.queues.front_bytes(decision->vl);
  const PacketHandle h = op.queues.pop(decision->vl);
  op.credits.consume(decision->vl, wire);
  op.tx_busy = true;
  const iba::Cycle now = now_;
  trace_.record(now, TraceEvent::kLinkTx, node, port, decision->vl, pool_[h]);

  auto ser = iba::serialization_cycles(wire, op.link.rate);
  if (hooks_) ser = hooks_->stretch_serialization(node, port, ser);
  metrics_.record_tx(op.flat_id, wire, ser);

  Event done;
  done.time = now + ser;
  done.type = EventType::kTxComplete;
  done.node = node;
  done.port = port;
  queue_.push(std::move(done));

  Event arrive;
  arrive.time = now + ser + op.link.propagation_delay;
  arrive.type = EventType::kLinkDeliver;
  arrive.node = op.peer.node;
  arrive.port = op.peer.port;
  arrive.vl = decision->vl;
  arrive.pkt = h;
  queue_.push(arrive);
}

void Simulator::on_tx_complete(iba::NodeId node, iba::PortIndex port) {
  output_port(node, port).tx_busy = false;
  try_transmit(node, port);
}

void Simulator::on_link_deliver(const Event& e) {
  const iba::Cycle now = now_;
  const iba::Packet& p = pool_[e.pkt];
  const std::uint32_t wire = p.wire_bytes();
  auto verdict = FaultHooks::RxVerdict::kDeliver;
  if (hooks_ && !p.management) {
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kFaultHooks);
    verdict = hooks_->on_link_rx(e.node, e.port, p);
  }
  if (verdict == FaultHooks::RxVerdict::kDrop) {
    // Discarded on arrival (corrupted past the CRC, or a drop-fault window).
    // The receiver still frees the notional buffer, so upstream credits are
    // returned — a lost packet must not wedge the sender.
    trace_.record(now, TraceEvent::kDrop, e.node, e.port, e.vl, p);
    metrics_.record_drop(p.connection);
    pool_.release(e.pkt);
    const auto up = graph_.peer(e.node, e.port);
    assert(up.has_value());
    OutputPort& upstream = output_port(up->node, up->port);
    upstream.credits.release(e.vl, wire);
    try_transmit(up->node, up->port);
    return;
  }
  if (graph_.is_switch(e.node)) {
    SwitchState& sw = switches_[index_[e.node]];
    InputPort& ip = sw.in[e.port];
    ip.buffers.push(e.vl, e.pkt, wire);
    if (!ip.xbar_tx_busy) sw.set_input_ready(e.port);
    schedule_crossbar(index_[e.node], static_cast<int>(e.port));
    return;
  }
  // Host sink: record, then return credits to the upstream switch port
  // immediately (hosts drain their receive buffers at line rate).
  trace_.record(now, TraceEvent::kDeliver, e.node, e.port, e.vl, p);
  {
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kMetrics);
    metrics_.record_delivery(p.connection, p, now);
  }
  if (delivery_listener_) {
    // The listener may inject (and so park) packets: hand it a copy, since
    // a park can move the pool's storage.
    const iba::Packet delivered = pool_.take(e.pkt);
    delivery_listener_(delivered, now);
  } else {
    pool_.release(e.pkt);
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

  // Input buffer space freed: return credits to whoever feeds this port.
  const auto up = graph_.peer(e.node, in_port);
  assert(up.has_value());
  OutputPort& upstream = output_port(up->node, up->port);
  upstream.credits.release(e.vl, wire);
  try_transmit(up->node, up->port);

  // Enqueue at the output on the VL this port's SLtoVL table dictates —
  // unless recovery abandoned this connection on this port (the packet was
  // in flight when the purge ran; queuing it now would strand it on a VL
  // whose arbitration weight left with the reservation).
  const iba::Packet& p = pool_[h];
  const iba::VirtualLane out_vl =
      p.management ? iba::kManagementVl : op.sl_map.map(p.sl);
  if (!p.management && !purged_flows_.empty() &&
      purged_flows_.count({op.flat_id, p.connection}) > 0) {
    trace_.record(now_, TraceEvent::kDrop, e.node, e.port, out_vl, p);
    metrics_.record_drop(p.connection);
    pool_.release(h);
    ++purged_late_;
  } else {
    trace_.record(now_, TraceEvent::kXbar, e.node, e.port, out_vl, p);
    op.queues.push(out_vl, h, wire);
  }

  ip.xbar_tx_busy = false;
  if (!ip.buffers.all_empty()) sw.set_input_ready(in_port);
  op.xbar_rx_busy = false;

  try_transmit(e.node, e.port);
  schedule_crossbar(index_[e.node], /*only_input=*/-1);
}

void Simulator::schedule_crossbar(std::uint32_t switch_index, int only_input) {
  XbarView view(*this, switch_index);
  xbar_[switch_index].schedule(view, only_input);
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
    case EventType::kControl: {
      const auto it = controls_.find(e.aux);
      assert(it != controls_.end() && "control callback fired twice");
      auto fn = std::move(it->second);
      controls_.erase(it);  // erase first: fn may call_at again
      fn();
      break;
    }
  }
}

void Simulator::call_at(iba::Cycle t, std::function<void()> fn) {
  const auto id = next_control_id_++;
  controls_.emplace(id, std::move(fn));
  Event e;
  e.time = std::max(t, now_);
  e.type = EventType::kControl;
  e.aux = id;
  queue_.push(std::move(e));
}

std::uint64_t Simulator::inject_external(std::uint32_t flow_index,
                                         std::uint32_t payload_bytes,
                                         std::uint32_t sequence,
                                         std::uint8_t rc_op, bool rc_last) {
  const FlowState& f = flows_.at(flow_index);
  if (!f.external)
    throw std::invalid_argument("inject_external needs an external flow");

  iba::Packet p;
  p.id = next_packet_id_++;
  p.payload_bytes = payload_bytes;
  p.sequence = sequence;
  p.rc_op = rc_op;
  p.rc_last = rc_last;
  inject(flow_index, p);
  return p.id;
}

void Simulator::kick_port(iba::NodeId node, iba::PortIndex port) {
  checked_output_port("kick_port", node, port);
  try_transmit(node, port);
}

std::uint64_t Simulator::flush_output_queue(iba::NodeId node,
                                            iba::PortIndex port) {
  OutputPort& op = checked_output_port("flush_output_queue", node, port);
  std::uint64_t flushed = 0;
  // Queued packets never consumed this port's credits (that happens when
  // serialization starts), so discarding them is pure local state.
  while (!op.queues.all_empty()) {
    const auto vl = static_cast<iba::VirtualLane>(
        std::countr_zero(op.queues.occupancy()));
    const PacketHandle h = op.queues.pop(vl);
    trace_.record(now_, TraceEvent::kDrop, node, port, vl, pool_[h]);
    metrics_.record_drop(pool_[h].connection);
    pool_.release(h);
    ++flushed;
  }
  return flushed;
}

std::uint64_t Simulator::purge_flow_from_output(iba::NodeId node,
                                                iba::PortIndex port,
                                                std::uint32_t flow) {
  OutputPort& op = checked_output_port("purge_flow_from_output", node, port);
  std::uint64_t purged = 0;
  // Like flushed packets, queued packets hold no credits yet: removal is
  // pure local state.
  for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v) {
    const auto vl = static_cast<iba::VirtualLane>(v);
    for (const PacketHandle h : op.queues.extract_connection(vl, flow, pool_)) {
      trace_.record(now_, TraceEvent::kDrop, node, port, vl, pool_[h]);
      metrics_.record_drop(pool_[h].connection);
      pool_.release(h);
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
  while (!queue_.empty() && queue_.top_time() <= t) {
    // Pending-event census at fixed marks (the queue.peak_size gauge): the
    // first event at or past a mark triggers a sample *before* it pops, so
    // the count covers everything still scheduled from the mark onwards.
    if (queue_.top_time() >= next_pending_mark_)
      sample_pending(queue_.size(), queue_.top_time());
    // A series boundary B samples the state after every event with time
    // <= B, so commit pending boundaries before popping the first event
    // that crosses one — the pop itself belongs to the next window.
    if (series_ && queue_.top_time() > series_->next_due()) {
      obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kSeries);
      series_->advance_to(queue_.top_time());
    }
    const Event e = queue_.pop();
    assert(e.time >= now_ && "time must not run backwards");
    now_ = e.time;
    ++events_;
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kDispatch);
    handle(e);
  }
  if (now_ < t) now_ = t;
  if (t >= next_pending_mark_) sample_pending(queue_.size(), t);
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
