#include "subnet/subnet_manager.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ibarb::subnet {

namespace {

/// Directed-route depth limit: an SMP's initial path holds at most 63 hops,
/// so the sweep expands only nodes within 62 hops of the SM.
constexpr unsigned kMaxDrHops = 64;

}  // namespace

DiscoveryReport SubnetManager::discover(const network::FabricGraph& topology,
                                        std::vector<iba::NodeId>& order) {
  DiscoveryReport report;
  order.clear();
  if (topology.node_count() == 0) {
    report.complete = true;
    return report;
  }

  // Breadth-first from node 0, where the SM runs, counting the directed-route
  // Get(NodeInfo) probes a real sweep sends: one for the origin, then one per
  // port of every node it expands, in port order. The probe of port p of a
  // node at depth d walks d hops to the node and one more if p is wired; a
  // probe of an unwired port (or, on a re-sweep, of a port behind a dead
  // link) times out. `order` doubles as the BFS queue.
  constexpr unsigned kUnseen = ~0u;
  std::vector<unsigned> depth(topology.node_count(), kUnseen);
  depth[0] = 0;
  order.push_back(0);
  report.smps_sent = 1;
  for (std::size_t next = 0; next < order.size(); ++next) {
    const auto at = order[next];
    if (topology.is_switch(at)) {
      ++report.switches;
    } else {
      ++report.hosts;
    }
    if (depth[at] + 1 >= kMaxDrHops) continue;  // DR depth limit
    const unsigned ports = topology.port_count(at);
    report.smps_sent += ports;
    report.sweep_hops += depth[at] * ports;
    for (unsigned p = 0; p < ports; ++p) {
      const auto peer = topology.peer(at, static_cast<iba::PortIndex>(p));
      if (!peer) continue;  // unwired port: probe timed out
      ++report.sweep_hops;
      ++report.links;  // counted once per direction; halved below
      if (depth[peer->node] == kUnseen) {
        depth[peer->node] = depth[at] + 1;
        order.push_back(peer->node);
      }
    }
  }
  report.links /= 2;  // every cable was probed from both ends
  report.complete = order.size() == topology.node_count();
  return report;
}

SubnetManager::SubnetManager(const network::FabricGraph& graph,
                             std::string routing_engine)
    : graph_(graph), engine_(std::move(routing_engine)) {
  report_ = discover(graph_, sweep_order_);
  if (graph_.node_count() == 0) return;
  routes_ = network::compute_routes(graph_, engine_);
}

ResweepReport SubnetManager::resweep(
    sim::Simulator& sim, const std::vector<network::PortRef>& down_ports) {
  ResweepReport out;

  // Rebuild the fabric as the traps describe it: same nodes in the same
  // order (so node ids and LIDs are stable), minus every link with a downed
  // endpoint. The copy must outlive the Routes computed on it.
  auto degraded = std::make_unique<network::FabricGraph>();
  for (iba::NodeId id = 0; id < graph_.node_count(); ++id) {
    if (graph_.is_switch(id)) {
      degraded->add_switch(graph_.port_count(id));
    } else {
      degraded->add_host();
    }
  }
  const auto is_down = [&](iba::NodeId n, iba::PortIndex p) {
    return std::find(down_ports.begin(), down_ports.end(),
                     network::PortRef{n, p}) != down_ports.end();
  };
  for (iba::NodeId id = 0; id < graph_.node_count(); ++id) {
    for (unsigned p = 0; p < graph_.port_count(id); ++p) {
      const auto port = static_cast<iba::PortIndex>(p);
      const auto peer = graph_.peer(id, port);
      if (!peer) continue;
      // Each cable once (canonical end).
      if (peer->node < id || (peer->node == id && peer->port <= port))
        continue;
      if (is_down(id, port) || is_down(peer->node, peer->port)) continue;
      degraded->connect(id, port, peer->node, peer->port,
                        graph_.link(id, port));
    }
  }

  // Re-sweep over the degraded topology.
  std::vector<iba::NodeId> order;
  const auto report = discover(*degraded, order);
  out.smps_sent = report.smps_sent;
  out.complete = report.complete;
  if (!out.complete) return out;  // partitioned: fail-static

  // The degraded copy deliberately carries no topology hint: a torus with a
  // dead ring link is not a torus, and a structure-aware engine routing it
  // as one would blackhole traffic. Such engines throw; fall back to the
  // always-applicable up*/down* pass before giving up (fail-static).
  network::Routes routes;
  std::string engine = engine_;
  bool routed = false;
  try {
    routes = network::compute_routes(*degraded, engine);
    routed = true;
  } catch (const std::runtime_error&) {
  }
  if (!routed && engine != "updown") {
    engine = "updown";
    try {
      routes = network::compute_routes(*degraded, engine);
      routed = true;
    } catch (const std::runtime_error&) {
    }
  }
  if (!routed) return out;  // no legal assignment at all: keep old routes

  engine_ = std::move(engine);
  report_ = report;
  sweep_order_ = std::move(order);
  routes_ = std::move(routes);
  filtered_ = std::move(degraded);  // routes_ points into this graph
  program_forwarding(sim);
  out.routes_changed = true;
  return out;
}

void SubnetManager::configure_fabric(
    sim::Simulator& sim, const qos::AdmissionControl& admission) const {
  sim.set_sl_to_vl_all(iba::SlToVlMappingTable::identity(iba::kManagementVl));
  admission.program(sim);
  program_forwarding(sim);
}

void SubnetManager::program_forwarding(sim::Simulator& sim) const {
  // One LID-indexed linear forwarding table per switch; LIDs that name no
  // host stay 0xFF. set_forwarding checks every host entry.
  const auto hosts = graph_.hosts();
  const std::size_t lids = graph_.node_count() + 1;  // LID = node id + 1
  for (const auto sw : graph_.switches()) {
    std::vector<iba::PortIndex> lft(lids, 0xFF);
    for (const auto h : hosts) lft[lid(h)] = routes_.out_port(sw, h);
    sim.set_forwarding(sw, std::move(lft));
  }
}

std::string SubnetManager::describe() const {
  std::ostringstream os;
  os << "subnet: " << report_.switches << " switches, " << report_.hosts
     << " hosts, " << report_.links << " links; discovery "
     << (report_.complete ? "complete" : "INCOMPLETE") << " with "
     << report_.smps_sent << " directed-route SMPs (" << report_.sweep_hops
     << " hops walked)\n";
  if (engine_ == "updown") {
    os << "up*/down* root: switch " << routes_.root() << "\n";
  } else {
    os << "routing engine: " << engine_ << " ("
       << routes_.vl_layers() << " VL layer"
       << (routes_.vl_layers() == 1 ? "" : "s") << ", "
       << routes_.table_bytes() << " table bytes)\n";
  }
  os << "host LIDs: ";
  bool first = true;
  for (const auto h : graph_.hosts()) {
    if (!first) os << ", ";
    first = false;
    os << h << "->" << lid(h);
  }
  os << "\n";
  return os.str();
}

}  // namespace ibarb::subnet
