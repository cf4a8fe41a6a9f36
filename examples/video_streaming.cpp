// Scenario: a video-on-demand pod — the kind of server I/O workload the
// paper's introduction motivates. A rack of 8 switches connects 32 hosts;
// four of them act as video servers streaming VBR video (bursty, but with a
// reserved mean rate and a latency bound) to clients, while every host also
// exchanges best-effort background traffic (web/mail) served from the
// low-priority table.
//
// The example shows the full lifecycle: admission of the streams, steady
// state with guarantees held despite the bursts, then stream teardown —
// releasing entries triggers the defragmentation algorithm, and a new,
// stricter stream that would not have fitted in the fragmented table is
// admitted afterwards.
#include <cstdio>
#include <vector>

#include "network/topology.hpp"
#include "qos/admission.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/besteffort.hpp"
#include "traffic/vbr.hpp"
#include "util/rng.hpp"

using namespace ibarb;

int main() {
  network::IrregularSpec spec;
  spec.switches = 8;
  spec.seed = 2024;
  const auto fabric = network::gen::irregular(spec);
  subnet::SubnetManager sm(fabric);
  std::printf("%s\n", sm.describe().c_str());

  qos::AdmissionControl admission(fabric, sm.routes(), qos::paper_catalogue(),
                                  {});
  sim::Simulator simulator(fabric, sm.routes(), {});
  util::Xoshiro256 rng(7);

  const auto hosts = fabric.hosts();
  const std::vector<iba::NodeId> servers(hosts.begin(), hosts.begin() + 4);

  // --- Admit 24 video streams: SL5 (distance 32, 16-32 Mbps). -------------
  struct Stream {
    qos::ConnectionId conn;
    std::uint32_t flow;
  };
  std::vector<Stream> streams;
  for (int i = 0; i < 24; ++i) {
    const auto server = servers[i % servers.size()];
    auto client = hosts[rng.below(hosts.size())];
    while (client == server) client = hosts[rng.below(hosts.size())];
    qos::ConnectionRequest req;
    req.src_host = server;
    req.dst_host = client;
    req.sl = 5;
    req.max_distance = 32;
    req.wire_mbps = rng.uniform(16.0, 24.0);
    const auto id = admission.request(req);
    if (!id) continue;
    const auto& conn = admission.connection(*id);
    // VBR: 4 Mbps..24 Mbps mean, bursting at 4x the mean rate.
    const auto flow = simulator.add_flow(traffic::make_vbr_flow(
        server, client, req.sl, /*payload=*/1024, req.wire_mbps,
        conn.deadline, rng.next(), /*on_fraction=*/0.25,
        /*burst_mean_packets=*/24.0));
    streams.push_back(Stream{*id, flow});
  }
  std::printf("admitted %zu video streams\n", streams.size());

  // --- Background best-effort traffic on the low-priority table. ----------
  for (const auto h : hosts) {
    auto dst = hosts[rng.below(hosts.size())];
    while (dst == h) dst = hosts[rng.below(hosts.size())];
    simulator.add_flow(traffic::make_besteffort_flow(
        h, dst, /*sl=*/11, /*payload=*/1024, /*wire_mbps=*/120.0, rng.next()));
  }

  sm.configure_fabric(simulator, admission);
  simulator.run_paper_phases(/*warmup=*/500000, /*min_rx=*/100,
                             /*hard_limit=*/1u << 31);

  std::uint64_t rx = 0, misses = 0;
  double worst_us = 0.0;
  for (const auto& s : streams) {
    const auto& c = simulator.metrics().connections[s.flow];
    rx += c.rx_packets;
    misses += c.deadline_misses;
    worst_us =
        std::max(worst_us, c.delay_max * iba::kNsPerCycle / 1000.0);
  }
  std::uint64_t be_rx = 0;
  for (const auto& c : simulator.metrics().connections)
    if (!c.qos) be_rx += c.rx_packets;
  std::printf("steady state: %llu video packets delivered, %llu deadline "
              "misses, worst latency %.1f us\n",
              static_cast<unsigned long long>(rx),
              static_cast<unsigned long long>(misses), worst_us);
  std::printf("best-effort packets delivered alongside: %llu\n",
              static_cast<unsigned long long>(be_rx));

  // --- Teardown half the streams; defragmentation makes room. -------------
  const auto probe_port = fabric.host_uplink(hosts[0]);
  const auto& manager =
      admission.port_manager(probe_port.node, probe_port.port);
  const auto moves_before = manager.stats().defrag_moves;
  for (std::size_t i = 0; i < streams.size(); i += 2)
    admission.release(streams[i].conn);
  std::printf("released %zu streams; defragmenter relocated %llu sequences "
              "on host0's uplink alone\n",
              (streams.size() + 1) / 2,
              static_cast<unsigned long long>(manager.stats().defrag_moves -
                                              moves_before));

  // A tight distance-2 connection now fits where the fragmented table might
  // have refused it.
  qos::ConnectionRequest tight;
  tight.src_host = hosts[0];
  tight.dst_host = hosts[hosts.size() - 1];
  tight.sl = 0;
  tight.max_distance = 2;
  tight.wire_mbps = 2.0;
  const auto strict = admission.request(tight);
  std::printf("strict distance-2 connection after teardown: %s\n",
              strict ? "admitted" : "rejected");
  return misses == 0 && strict ? 0 : 1;
}
