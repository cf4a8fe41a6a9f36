// Subnet manager: the configuration plane of the paper's "global frame".
//
// A real IBA subnet manager sweeps the fabric with directed-route SMPs,
// assigns LIDs, and programs forwarding tables, SLtoVL maps and the
// VLArbitrationTables of every port. This class performs those steps
// against the model: discovery is a breadth-first sweep that counts the
// directed-route Get(NodeInfo) probes and hops a real SM would spend, LIDs
// are assigned (host LID = node id + 1, the convention the simulator's data
// path uses), routes are computed, and configure_fabric() programs a
// simulator in one call. The tables are installed directly; the model does
// not encode management datagrams.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "iba/sl_to_vl.hpp"
#include "network/graph.hpp"
#include "network/routing.hpp"
#include "qos/admission.hpp"
#include "sim/simulator.hpp"

namespace ibarb::subnet {

struct DiscoveryReport {
  unsigned switches = 0;
  unsigned hosts = 0;
  unsigned links = 0;          ///< Undirected wired links found.
  unsigned smps_sent = 0;      ///< Directed-route probes issued.
  unsigned sweep_hops = 0;     ///< Total hops those probes walked.
  bool complete = false;       ///< Every node of the fabric was reached.
};

/// Outcome of a fault-triggered re-sweep (see SubnetManager::resweep).
struct ResweepReport {
  unsigned smps_sent = 0;       ///< Directed-route probes of this sweep.
  bool complete = false;        ///< Sweep still reached every node.
  /// New up*/down* routes were computed and the LFTs reprogrammed. False
  /// when the degraded fabric is partitioned or unroutable — the old
  /// forwarding state is then left untouched (fail-static).
  bool routes_changed = false;
};

class SubnetManager {
 public:
  /// Sweeps and routes the fabric. `routing_engine` names the registered
  /// engine (network/routing_engine.hpp) used to fill the forwarding
  /// tables; the default is the paper's up*/down* pass.
  explicit SubnetManager(const network::FabricGraph& graph,
                         std::string routing_engine = "updown");

  const DiscoveryReport& discovery() const noexcept { return report_; }
  const network::Routes& routes() const noexcept { return routes_; }

  /// The engine currently routing the fabric. May differ from the
  /// constructor argument after a fault re-sweep: structure-aware engines
  /// refuse degraded topologies (a holey torus has no safe dimension
  /// order), and the manager then falls back to `updown`.
  const std::string& routing_engine() const noexcept { return engine_; }

  iba::Lid lid(iba::NodeId node) const {
    return static_cast<iba::Lid>(node + 1);
  }

  /// Nodes in the order the discovery sweep reached them.
  const std::vector<iba::NodeId>& sweep_order() const noexcept {
    return sweep_order_;
  }

  /// Programs SLtoVL maps on every port (identity over the data VLs) and
  /// the arbitration tables + reservation annotations held by `admission`.
  void configure_fabric(sim::Simulator& sim,
                        const qos::AdmissionControl& admission) const;

  /// Reaction to a link-state trap: re-sweeps the fabric with the given
  /// ports (and their link partners) masked out, recomputes routes on the
  /// degraded topology (falling back to `updown` when the configured
  /// structure-aware engine refuses the now-irregular wiring), and
  /// reprograms every switch LFT. With an empty mask this restores the
  /// full-fabric routes (repair path). On partition/unroutability the
  /// previous routes stay installed and routes_changed is false.
  ResweepReport resweep(sim::Simulator& sim,
                        const std::vector<network::PortRef>& down_ports);

  /// Human-readable fabric summary (example binaries print it).
  std::string describe() const;

 private:
  static DiscoveryReport discover(const network::FabricGraph& topology,
                                  std::vector<iba::NodeId>& order);
  void program_forwarding(sim::Simulator& sim) const;

  const network::FabricGraph& graph_;
  std::string engine_;
  DiscoveryReport report_;
  std::vector<iba::NodeId> sweep_order_;
  network::Routes routes_;
  /// The degraded-topology copy the current routes_ were computed on (the
  /// Routes object keeps a pointer into its source graph). Null while the
  /// routes are the pristine full-fabric ones.
  std::unique_ptr<network::FabricGraph> filtered_;
};

}  // namespace ibarb::subnet
