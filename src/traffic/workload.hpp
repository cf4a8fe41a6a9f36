// The paper's evaluation workload (§4.2): CBR connections drawn from the
// Table-1 SL catalogue are offered between random host pairs, SL by SL,
// until no more fit; accepted connections become simulator flows. Optional
// Poisson best-effort background exercises the low-priority table.
#pragma once

#include <cstdint>
#include <vector>

#include "iba/packet.hpp"
#include "network/graph.hpp"
#include "network/routing.hpp"
#include "qos/admission.hpp"
#include "sim/simulator.hpp"

namespace ibarb::traffic {

struct WorkloadConfig {
  iba::Mtu mtu = iba::Mtu::kMtu256;  ///< "Small" packets; kMtu4096 = large.
  std::uint64_t seed = 7;
  /// Per-host Poisson best-effort load, as a fraction of the 1x link, split
  /// across the PBE/BE/CH SLs (0 disables background traffic).
  double besteffort_load = 0.10;
  /// Sources that send `oversend_factor` times their reservation. Applied
  /// to connections whose SL bit is set in `oversend_sl_mask`
  /// (misbehaving-source experiments). 0 = everybody compliant.
  double oversend_factor = 1.0;
  std::uint16_t oversend_sl_mask = 0;
  /// When true, QoS connections generate on/off VBR traffic instead of CBR
  /// (same mean rate; peak = mean / vbr_on_fraction, bursts of
  /// make_vbr_flow's default mean length) — the scenario of the authors'
  /// companion VBR evaluation (CCECE'02).
  bool vbr = false;
  double vbr_on_fraction = 0.25;
};

struct EstablishedConnection {
  qos::ConnectionId id = 0;
  std::uint32_t flow = 0;  ///< Simulator flow / metrics index.
  iba::ServiceLevel sl = 0;
  double payload_mbps = 0.0;
  double wire_mbps = 0.0;
  iba::Cycle deadline = 0;
  unsigned stages = 0;     ///< Arbitration stages (path port count).
};

struct Workload {
  std::vector<EstablishedConnection> connections;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  double reserved_wire_mbps = 0.0;  ///< Sum over accepted connections.
};

/// Establishes connections through `admission` and registers the matching
/// flows in `sim`. Call admission.program(sim) afterwards (the caller may
/// first want to adjust tables further).
Workload build_paper_workload(const network::FabricGraph& graph,
                              const network::Routes& routes,
                              qos::AdmissionControl& admission,
                              sim::Simulator& sim,
                              const WorkloadConfig& cfg);

}  // namespace ibarb::traffic
