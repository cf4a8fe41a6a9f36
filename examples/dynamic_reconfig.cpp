// Scenario: a day in the life of the management plane — connections arrive
// and leave while traffic flows, the arbitration tables are reprogrammed in
// place (the arbiters keep their round-robin position), the defragmenter
// re-coalesces entries behind departures, and the packet trace records one
// packet's journey through the reconfigured fabric.
#include <cstdio>
#include <sstream>

#include "network/topology.hpp"
#include "qos/dynamic.hpp"
#include "subnet/subnet_manager.hpp"

using namespace ibarb;

int main() {
  // A 2-level fat tree: 2 spines, 4 leaves, 4 hosts per leaf.
  const auto fabric = network::gen::fat_tree2(2, 4, 4);
  subnet::SubnetManager sm(fabric);
  std::printf("%s\n", sm.describe().c_str());

  qos::AdmissionControl admission(fabric, sm.routes(), qos::paper_catalogue(),
                                  {});
  sim::SimConfig sc;
  sc.trace_capacity = 1 << 16;
  sim::Simulator simulator(fabric, sm.routes(), sc);
  sm.configure_fabric(simulator, admission);

  qos::DynamicScenario scenario(simulator, admission);
  const auto hosts = fabric.hosts();

  // Phase 1 (t=0): a morning shift of eight video-ish streams.
  for (int k = 0; k < 8; ++k) {
    qos::ScheduledConnection sc1;
    sc1.arrive = 1000 + 100 * k;
    sc1.depart = 5'000'000;  // they all log off at "noon"
    sc1.request.src_host = hosts[k % 4];
    sc1.request.dst_host = hosts[4 + k % 8];
    sc1.request.sl = 5;
    sc1.request.max_distance = 32;
    sc1.request.wire_mbps = 25.0;
    sc1.payload_bytes = 1024;
    scenario.add(sc1);
  }
  // Phase 2 (mid-run): latency-critical control traffic arrives while the
  // streams are still up.
  qos::ScheduledConnection ctrl;
  ctrl.arrive = 2'000'000;
  ctrl.depart = iba::kNeverCycle;
  ctrl.request.src_host = hosts[0];
  ctrl.request.dst_host = hosts[15];
  ctrl.request.sl = 0;
  ctrl.request.max_distance = 2;
  ctrl.request.wire_mbps = 2.0;
  const auto ctrl_idx = scenario.add(ctrl);
  // Phase 3 (afternoon): a second wave after the morning streams depart.
  qos::ScheduledConnection wave;
  wave.arrive = 6'000'000;
  wave.depart = iba::kNeverCycle;
  wave.request.src_host = hosts[1];
  wave.request.dst_host = hosts[14];
  wave.request.sl = 2;
  wave.request.max_distance = 8;
  wave.request.wire_mbps = 8.0;
  const auto wave_idx = scenario.add(wave);

  simulator.metrics().start_window(0);
  scenario.run_until(10'000'000);  // 40 ms of fabric time

  std::printf("script outcome: %llu admitted, %llu rejected, %llu released\n",
              (unsigned long long)scenario.admitted(),
              (unsigned long long)scenario.rejected(),
              (unsigned long long)scenario.released());

  const auto report = [&](const char* name, std::size_t idx) {
    const auto& e = scenario.entry(idx);
    if (!e.flow) {
      std::printf("%s: not admitted\n", name);
      return;
    }
    const auto& c = simulator.metrics().connections[*e.flow];
    std::printf("%s: %llu packets, worst delay %.1f us, misses %llu\n", name,
                (unsigned long long)c.rx_packets,
                c.delay_max * iba::kNsPerCycle / 1000.0,
                (unsigned long long)c.deadline_misses);
  };
  report("control connection (SL0, d=2)", ctrl_idx);
  report("afternoon connection (SL2, d=8)", wave_idx);

  // Pull one packet's journey out of the trace.
  const auto recent = simulator.trace().chronological();
  std::uint64_t last_delivered = 0;
  for (const auto& r : recent)
    if (r.event == sim::TraceEvent::kDeliver) last_delivered = r.packet;
  std::printf("\njourney of packet %llu:\n",
              (unsigned long long)last_delivered);
  for (const auto& r : simulator.trace().journey(last_delivered))
    std::printf("  cycle %8llu  %-8s node %2u port %u vl %u\n",
                (unsigned long long)r.time, sim::to_string(r.event), r.node,
                r.port, r.vl);

  // Defragmentation activity across the fabric.
  std::uint64_t moves = 0;
  for (const auto h : hosts) {
    const auto& m = admission.port_manager(h, 0);
    moves += m.stats().defrag_moves;
  }
  std::printf("\ndefragmenter moves on host interfaces: %llu\n",
              (unsigned long long)moves);
  return 0;
}
