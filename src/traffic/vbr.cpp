#include "traffic/vbr.hpp"

#include "traffic/cbr.hpp"

namespace ibarb::traffic {

sim::FlowSpec make_vbr_flow(iba::NodeId src_host, iba::NodeId dst_host,
                            iba::ServiceLevel sl, std::uint32_t payload_bytes,
                            double wire_mbps, iba::Cycle deadline,
                            std::uint64_t seed, double on_fraction,
                            double burst_mean_packets) {
  sim::FlowSpec spec =
      make_cbr_flow(src_host, dst_host, sl, payload_bytes, wire_mbps,
                    deadline, seed);
  spec.kind = sim::GeneratorKind::kOnOffVbr;
  spec.on_fraction = on_fraction;
  spec.burst_mean_packets = burst_mean_packets;
  return spec;
}

}  // namespace ibarb::traffic
