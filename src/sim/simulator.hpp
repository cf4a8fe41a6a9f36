// The network simulator: wires SwitchState/HostState over a FabricGraph,
// executes the event loop, and drives the paper's two-phase measurement
// protocol (transient warm-up, then a steady-state window that lasts until
// the slowest QoS connection has received a target number of packets).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "iba/vl_arbitration.hpp"
#include "network/graph.hpp"
#include "network/routing.hpp"
#include "obs/profile.hpp"
#include "obs/series.hpp"
#include "obs/telemetry.hpp"
#include "sched/crossbar.hpp"
#include "sim/event_queue.hpp"
#include "sim/host.hpp"
#include "sim/metrics.hpp"
#include "sim/packet_pool.hpp"
#include "sim/switch.hpp"
#include "sim/trace.hpp"

namespace ibarb::sim {

struct SimConfig {
  /// Per-VL buffer depth in whole packets of the largest wire size in use
  /// (paper: "each VL is large enough to store four whole packets").
  unsigned buffer_packets = 4;
  std::uint32_t max_payload_bytes = 4096;  ///< Sizes buffers and credits.
  /// Ring-buffer size of the packet trace; 0 disables tracing entirely.
  std::size_t trace_capacity = 0;
  /// Time-series sampling cadence in cycles (--sample-every); 0 disables the
  /// SeriesRecorder entirely — the hot paths then pay one null check.
  std::uint64_t sample_every = 0;
  /// Enables the wall-clock self-profiler (obs::PhaseProfiler). Its
  /// profile.* telemetry is nondeterministic by nature and therefore
  /// excluded from series sampling and from every byte-compare in CI.
  bool profile = false;
  std::uint64_t seed = 1;
  /// Event-queue implementation. The timing wheel is the only one; the
  /// field remains because the benchmark sources (perfbench/) set it.
  EventQueueImpl queue_impl = EventQueueImpl::kWheel;
  /// Crossbar matching policy, built by sched::Crossbar(impl, ports) (flag
  /// --crossbar). kWrr reproduces the pre-refactor
  /// grant sequence — and so the whole event order — bit-for-bit.
  sched::CrossbarImpl crossbar_impl = sched::CrossbarImpl::kWrr;
  /// Must be 1: runs are sequential, and the constructor throws
  /// std::invalid_argument for any other value. The field remains only
  /// because the benchmark sources (perfbench/) set it, like queue_impl.
  unsigned shards = 1;
};

struct RunSummary {
  iba::Cycle warmup_end = 0;
  iba::Cycle window_cycles = 0;
  bool hit_hard_limit = false;
  std::uint64_t events = 0;
};

/// Fault-layer interception points on the simulator's data path. The
/// simulator calls these inline (single-threaded, deterministic event
/// order), so an implementation may keep its own RNG and still reproduce
/// bit-identically. All hooks default to "healthy hardware".
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  /// False blocks (node, port) from starting a new serialization — a downed
  /// link or a stuck transmitter. The port is NOT polled; when the fault
  /// clears, the fault layer must call Simulator::kick_port.
  virtual bool may_transmit(iba::NodeId, iba::PortIndex) { return true; }

  /// Slow-port faults: return the (possibly stretched) serialization time.
  virtual iba::Cycle stretch_serialization(iba::NodeId, iba::PortIndex,
                                           iba::Cycle cycles) {
    return cycles;
  }

  enum class RxVerdict : std::uint8_t { kDeliver, kDrop };

  /// Called for every non-management packet completing link traversal into
  /// (node, port). kDrop discards it (upstream credits are still released,
  /// as real hardware frees the buffer after the CRC check fails).
  virtual RxVerdict on_link_rx(iba::NodeId, iba::PortIndex,
                               const iba::Packet&) {
    return RxVerdict::kDeliver;
  }
};

class Simulator {
  friend class XbarView;  ///< sched::CrossbarPorts view (simulator.cpp).

 public:
  /// `routes` seeds every switch's linear forwarding table and is not kept:
  /// from then on the switches forward by their own tables, which
  /// set_forwarding() overwrites. Throws std::invalid_argument unless
  /// cfg.shards is 1.
  Simulator(const network::FabricGraph& graph, const network::Routes& routes,
            SimConfig cfg);

  /// The telemetry probe registered at construction captures `this`.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- Configuration (the subnet-management plane) -----------------------

  /// Programs the VLArbitrationTable of one output port. For hosts, `port`
  /// must be 0 (the injection interface). Throws std::invalid_argument,
  /// naming the node, the port and the slot, when an active entry is on a
  /// VL other than data VLs 0..14. This and every other per-port entry
  /// point (the setters below, flat_port_id, kick_port, flush_output_queue,
  /// purge_flow_from_output, clear_flow_purge) throw std::invalid_argument
  /// naming the node and the port when the node does not exist or has no
  /// such port (a host has only port 0).
  void set_output_arbitration(iba::NodeId node, iba::PortIndex port,
                              const iba::VlArbitrationTable& table);

  /// Programs one port's SLtoVL table (applied to packets entering that
  /// port's link).
  void set_sl_to_vl(iba::NodeId node, iba::PortIndex port,
                    const iba::SlToVlMappingTable& map);

  /// Same SLtoVL everywhere — the common case in the paper's setup.
  void set_sl_to_vl_all(const iba::SlToVlMappingTable& map);

  /// Annotates a port's reserved bandwidth for Table-2 style reporting.
  void set_port_reserved_mbps(iba::NodeId node, iba::PortIndex port,
                              double mbps);

  /// Installs a switch's linear forwarding table (indexed by LID, LID =
  /// node id + 1), as the subnet manager programs it. Throws
  /// std::invalid_argument, naming the switch and the LID, unless the table
  /// has node_count() + 1 entries and maps every host LID to a wired port
  /// of the switch. Entries for other LIDs are never read.
  void set_forwarding(iba::NodeId sw, std::vector<iba::PortIndex> lft);

  /// Registers a traffic flow; returns its connection index (also its index
  /// in metrics().connections). May be called at any time; generation
  /// starts at max(now, start_offset).
  std::uint32_t add_flow(const FlowSpec& spec);

  /// Stops a flow's generator (already-queued packets still drain). Used by
  /// the dynamic scenario driver when a connection is torn down.
  void stop_flow(std::uint32_t flow_index);

  /// Restarts a stopped (non-external) flow's generator at the current time.
  /// No-op if the flow was never stopped.
  void resume_flow(std::uint32_t flow_index);

  /// Misbehaving-source dial: the flow generates at `factor` times its
  /// nominal rate until reset to 1.0. Takes effect from the next packet.
  void set_flow_overdrive(std::uint32_t flow_index, double factor);

  // --- Fault injection & transport plumbing -------------------------------

  /// Installs (or clears, with nullptr) the fault interception hooks. The
  /// hooks object must outlive the simulator or be detached first.
  void attach_fault_hooks(FaultHooks* hooks) { hooks_ = hooks; }

  /// Schedules `fn` to run at max(t, now) through the event queue — same
  /// deterministic (time, insertion) order as every other event. One-shot.
  void call_at(iba::Cycle t, std::function<void()> fn);

  /// Observer for every host-side packet delivery (called after metrics).
  /// Used by transports (faults/rc_session) to terminate their packets.
  void set_delivery_listener(
      std::function<void(const iba::Packet&, iba::Cycle)> fn) {
    delivery_listener_ = std::move(fn);
  }

  /// Injects one packet on an `external` flow as if its generator fired at
  /// the current time. Returns the packet id.
  std::uint64_t inject_external(std::uint32_t flow_index,
                                std::uint32_t payload_bytes,
                                std::uint32_t sequence, std::uint8_t rc_op,
                                bool rc_last);

  /// Re-polls a port whose fault (down/stuck) cleared.
  void kick_port(iba::NodeId node, iba::PortIndex port);

  /// Discards everything queued at (node, port)'s output — the hardware
  /// flush when a link goes down or its routes move away. Dropped packets
  /// are recorded per connection. Returns the number of packets discarded.
  std::uint64_t flush_output_queue(iba::NodeId node, iba::PortIndex port);

  /// Discards `flow`'s packets queued at (node, port)'s output — recovery
  /// abandons in-flight packets on a rerouted connection's old path, where
  /// the VL's arbitration weight left with the reservation and anything
  /// still queued would starve until an unrelated reprogram revived it.
  /// Dropped packets are recorded per connection; returns the count.
  std::uint64_t purge_flow_from_output(iba::NodeId node, iba::PortIndex port,
                                       std::uint32_t flow);

  /// Lifts a purge_flow_from_output barrier: `flow`'s packets may enqueue at
  /// (node, port) again. Recovery calls this for every switch hop of a
  /// re-admitted path, since a later re-route may legitimately reuse a port
  /// that an earlier one abandoned.
  void clear_flow_purge(iba::NodeId node, iba::PortIndex port,
                        std::uint32_t flow);

  /// Packets dropped by a purge barrier after the purge itself — they were
  /// in flight (crossbar or link) at the purge instant and landed on the
  /// abandoned port afterwards.
  std::uint64_t purged_in_flight_late() const noexcept { return purged_late_; }

  // --- Execution ----------------------------------------------------------

  /// Runs all events with time <= t.
  void run_until(iba::Cycle t);

  /// Paper protocol: warm up (stats off), then measure until every QoS
  /// connection has received `min_rx_packets` in the window, or until
  /// `hard_limit` cycles of window. Returns what happened.
  RunSummary run_paper_phases(iba::Cycle warmup, std::uint64_t min_rx_packets,
                              iba::Cycle hard_limit);

  iba::Cycle now() const noexcept { return now_; }
  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }

  /// Flat metrics index of an output port.
  std::uint32_t flat_port_id(iba::NodeId node, iba::PortIndex port) const;

  std::uint64_t events_processed() const noexcept { return events_; }

  /// Total packets currently queued anywhere (tests: conservation checks).
  std::uint64_t packets_in_network() const;

  const PacketTrace& trace() const noexcept { return trace_; }

  /// This run's instrument registry. Components attached to the simulator
  /// (fault layer, transports) register their probes here at construction;
  /// the simulator's own probe publishes event-queue, arbiter, buffer and
  /// credit telemetry. One registry per simulator — never shared across
  /// runs — so --jobs parallelism stays race-free (see docs/OBSERVABILITY.md).
  obs::TelemetryRegistry& telemetry() noexcept { return telemetry_; }

  /// Runs all probes and returns the deterministic instrument snapshot.
  obs::Snapshot telemetry_snapshot() { return telemetry_.snapshot(); }

  /// The time-series recorder, or null when SimConfig::sample_every == 0.
  /// The fault/recovery layer stamps state transitions through this; benches
  /// call finalize() on it after their last run_until.
  obs::SeriesRecorder* series() noexcept { return series_.get(); }

 private:
  void handle(const Event& e);
  void on_generate(std::uint32_t flow_index);
  /// The one injection path (on_generate, inject_external): fills the flow's
  /// fields into `p`, records it, queues it on the source host's VL and
  /// tries to transmit.
  void inject(std::uint32_t flow_index, iba::Packet& p);
  void on_link_deliver(const Event& e);
  void on_tx_complete(iba::NodeId node, iba::PortIndex port);
  void on_xfer_complete(const Event& e);

  /// Records a pending-event census (the queue.peak_size gauge) and advances
  /// the mark past `through`.
  void sample_pending(std::uint64_t pending, iba::Cycle through);

  void try_transmit(iba::NodeId node, iba::PortIndex port);
  /// Runs the switch's crossbar scheduler (sched::CrossbarScheduler) over an
  /// XbarView of the ports. `only_input` >= 0 is the cheap single-arrival
  /// trigger hint.
  void schedule_crossbar(std::uint32_t switch_index, int only_input);

  /// The per-packet lookup: no range checks (the public entry points
  /// validate through checked_output_port first).
  OutputPort& output_port(iba::NodeId node, iba::PortIndex port) {
    return port_base_[node][port];
  }
  /// Validates (node, port) for a public entry point named `where`.
  OutputPort& checked_output_port(const char* where, iba::NodeId node,
                                  iba::PortIndex port);
  iba::PortIndex route_port(const SwitchState& sw, iba::Lid dst) const;
  /// Pushes the flow's next kGenerate event.
  void schedule_flow(std::uint32_t flow_index);

  const network::FabricGraph& graph_;
  SimConfig cfg_;
  std::uint32_t buffer_capacity_bytes_ = 0;

  EventQueue queue_;
  iba::Cycle now_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t next_packet_id_ = 1;

  /// Pending-event census for the queue.peak_size gauge, sampled at fixed
  /// cycle marks rather than at every push. The goldens and perfbench read
  /// this value, so it must keep this definition.
  static constexpr iba::Cycle kPendingSampleEvery = 4096;
  std::uint64_t pending_peak_ = 0;
  iba::Cycle next_pending_mark_ = kPendingSampleEvery;

  FaultHooks* hooks_ = nullptr;
  /// Active purge barriers: (flat output port, connection). A packet of a
  /// purged connection arriving at that output is dropped on enqueue, so the
  /// crossbar/link in-flight race cannot strand it on an abandoned VL.
  std::set<std::pair<std::uint32_t, std::uint32_t>> purged_flows_;
  std::uint64_t purged_late_ = 0;
  std::function<void(const iba::Packet&, iba::Cycle)> delivery_listener_;
  /// Pending call_at callbacks, keyed by the id carried in Event::aux. An
  /// ordered map keeps destruction order deterministic.
  std::map<std::uint32_t, std::function<void()>> controls_;
  std::uint32_t next_control_id_ = 0;

  // Dense state. index_[node] is the position within switches_ or hosts_.
  std::vector<std::uint32_t> index_;
  std::vector<SwitchState> switches_;
  /// One crossbar scheduler per switch (same index as switches_); owns all
  /// matching state — pointers, priority matrices, rate counters.
  std::vector<sched::Crossbar> xbar_;
  std::vector<HostState> hosts_;
  /// port_base_[node] points at the node's output port 0 (a switch's out
  /// vector, or a host's injection port): output_port in one load.
  std::vector<OutputPort*> port_base_;
  /// Every packet in the fabric (sim/packet_pool.hpp).
  PacketPool pool_;
  std::vector<FlowState> flows_;
  std::vector<FlowCold> flow_cold_;  ///< Same index as flows_.
  Metrics metrics_;
  PacketTrace trace_;
  obs::TelemetryRegistry telemetry_;
  std::unique_ptr<obs::SeriesRecorder> series_;
  std::unique_ptr<obs::PhaseProfiler> profiler_;
};

}  // namespace ibarb::sim
