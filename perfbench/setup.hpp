// Fabric set-up, timed call by call from outside the library: topology
// build, subnet manager (discovery + routing), admission control, simulator
// construction, the Table-1 workload (every admission) and fabric
// configuration. Every choice the bench harness would read from IBARB_*
// environment variables is pinned here explicitly.
#pragma once

#include <memory>
#include <string>

#include "common.hpp"
#include "iba/packet.hpp"
#include "network/graph.hpp"
#include "qos/admission.hpp"
#include "sim/simulator.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/workload.hpp"

namespace perfbench {

/// The 16-switch irregular fabric the fig4 bench simulates by default. The
/// workload seed varies the traffic on it, not the wiring.
inline constexpr const char* kPaperFabric = "irregular:switches=16,seed=21";

struct FabricConfig {
  std::string topo;     ///< Topology spec, network/registry.hpp grammar.
  std::string routing;  ///< Routing engine name.
  ibarb::iba::Mtu mtu = ibarb::iba::Mtu::kMtu256;
  double besteffort_load = 0.10;
  std::uint64_t seed = 1;  ///< Workload seed; sub-seeds derive from it.
};

/// One configured fabric with the workload admitted. Members reference each
/// other, so it is heap-pinned. The simulator is declared after the
/// admission control so the tm.* probe registry dies first.
struct Fabric {
  ibarb::network::FabricGraph graph;
  std::unique_ptr<ibarb::subnet::SubnetManager> sm;
  std::unique_ptr<ibarb::qos::AdmissionControl> admission;
  std::unique_ptr<ibarb::sim::Simulator> sim;
  ibarb::traffic::Workload workload;
};

struct SetupTimes {
  double network_build_ms = 0.0;
  double subnet_route_ms = 0.0;
  double admission_ctor_ms = 0.0;
  double sim_ctor_ms = 0.0;
  double traffic_build_ms = 0.0;
  double subnet_configure_ms = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<Fabric> build_fabric(const FabricConfig& cfg,
                                     SetupTimes& times, Tracer* tracer);

}  // namespace perfbench
