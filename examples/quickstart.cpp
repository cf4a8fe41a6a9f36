// Quickstart: the library's public API end to end on a toy fabric.
//
//   1. Build a fabric (one 8-port switch, four hosts).
//   2. Let the SubnetManager discover it and compute up*/down* routes.
//   3. Ask AdmissionControl for a guaranteed connection (bandwidth +
//      deadline): this fills the IBA VLArbitrationTables along the path
//      with the paper's bit-reversal algorithm.
//   4. Program the simulator and send CBR traffic over the connection.
//   5. Check the guarantee: every packet arrived before its deadline.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
// With --json, the same run is emitted as an obs::Report (the machine
// format every bench shares) including the simulator's telemetry snapshot.
#include <cstdio>

#include <iostream>
#include <stdexcept>

#include "network/topology.hpp"
#include "obs/report.hpp"
#include "qos/admission.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/cbr.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

using namespace ibarb;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const bool json = cli.get_bool("json", false);
  // 1. Fabric.
  const auto fabric = network::gen::single_switch(/*hosts=*/4);

  // 2. Subnet management plane.
  subnet::SubnetManager sm(fabric);
  if (!json) std::printf("%s\n", sm.describe().c_str());

  // 3. A connection with QoS: 20 Mbps (wire) and a deadline tight enough to
  //    need entries every 8 slots of the arbitration table.
  qos::AdmissionControl admission(fabric, sm.routes(), qos::paper_catalogue(),
                                  {});
  const auto hosts = fabric.hosts();
  qos::ConnectionRequest request;
  request.src_host = hosts[0];
  request.dst_host = hosts[2];
  request.sl = 2;            // Table-1 class: distance 8, 1-8 Mbps
  request.max_distance = 8;
  request.wire_mbps = 8.0;
  const auto conn = admission.request(request);
  if (!conn) {
    std::printf("connection rejected?!\n");
    return 1;
  }
  if (!json)
    std::printf("connection %u admitted, end-to-end deadline %.1f us\n", *conn,
                double(admission.connection(*conn).deadline) *
                    iba::kNsPerCycle / 1000.0);

  // 4. Simulate CBR traffic on it.
  sim::Simulator simulator(fabric, sm.routes(), {});
  sm.configure_fabric(simulator, admission);
  const auto flow = simulator.add_flow(traffic::make_cbr_flow(
      hosts[0], hosts[2], request.sl, /*payload=*/256, request.wire_mbps,
      admission.connection(*conn).deadline, /*seed=*/1));
  simulator.run_paper_phases(/*warmup=*/100000, /*min_rx=*/200,
                             /*hard_limit=*/1u << 30);

  // 5. Verify the guarantee.
  const auto& stats = simulator.metrics().connections[flow];
  if (json) {
    obs::Report report("quickstart");
    report.config("sl", static_cast<std::uint64_t>(request.sl));
    report.config("wire_mbps", request.wire_mbps);
    report.telemetry(simulator.telemetry_snapshot());
    report.figure("connection", [&](util::JsonWriter& w) {
      w.begin_object();
      w.kv("rx_packets", stats.rx_packets);
      w.kv("mean_delay_us", stats.mean_delay() * iba::kNsPerCycle / 1000.0);
      w.kv("worst_delay_us", stats.delay_max * iba::kNsPerCycle / 1000.0);
      w.kv("deadline_misses", stats.deadline_misses);
      w.kv("guarantee_held", stats.deadline_misses == 0);
      w.end_object();
    });
    report.write(std::cout);
  } else {
    std::printf("delivered %llu packets, mean delay %.1f us, worst %.1f us, "
                "deadline misses: %llu\n",
                static_cast<unsigned long long>(stats.rx_packets),
                stats.mean_delay() * iba::kNsPerCycle / 1000.0,
                stats.delay_max * iba::kNsPerCycle / 1000.0,
                static_cast<unsigned long long>(stats.deadline_misses));
    std::printf("%s\n", stats.deadline_misses == 0 ? "QoS guarantee held."
                                                   : "QoS guarantee VIOLATED");
  }
  return stats.deadline_misses == 0 ? 0 : 1;
} catch (const std::invalid_argument& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
