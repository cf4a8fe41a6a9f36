// VBR (on/off) flow construction — the extension evaluated in the authors'
// companion work (Alfaro et al., CCECE'02): bursty sources whose long-run
// mean matches the reservation but whose instantaneous rate peaks at
// mean / on_fraction.
#pragma once

#include <cstdint>

#include "iba/types.hpp"
#include "sim/host.hpp"

namespace ibarb::traffic {

/// Simulator::add_flow rejects on_fraction outside (0, 1] and
/// burst_mean_packets below 1.
sim::FlowSpec make_vbr_flow(iba::NodeId src_host, iba::NodeId dst_host,
                            iba::ServiceLevel sl, std::uint32_t payload_bytes,
                            double wire_mbps, iba::Cycle deadline,
                            std::uint64_t seed, double on_fraction = 0.25,
                            double burst_mean_packets = 16.0);

}  // namespace ibarb::traffic
