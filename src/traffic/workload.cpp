#include "traffic/workload.hpp"

#include <algorithm>
#include <cassert>

#include "traffic/besteffort.hpp"
#include "traffic/cbr.hpp"
#include "traffic/vbr.hpp"
#include "util/rng.hpp"

namespace ibarb::traffic {

/// An SL stops being offered after this many consecutive rejections.
/// Attempts are cheap (table bookkeeping only), so many random host pairs
/// are probed before an SL is declared saturated — this is what pushes the
/// network into the paper's quasi-fully-loaded regime.
constexpr unsigned kGiveUpAfter = 250;

/// Safety cap on the connections one workload establishes.
constexpr std::size_t kMaxConnections = std::size_t{1} << 20;

Workload build_paper_workload(const network::FabricGraph& graph,
                              const network::Routes& routes,
                              qos::AdmissionControl& admission,
                              sim::Simulator& sim,
                              const WorkloadConfig& cfg) {
  (void)routes;  // kept in the API: future workloads may be path-aware
  util::Xoshiro256 rng(cfg.seed);
  const auto hosts = graph.hosts();
  assert(hosts.size() >= 2);
  const auto payload = iba::mtu_bytes(cfg.mtu);

  // QoS SLs offered round-robin until each has failed kGiveUpAfter times
  // in a row ("we have already made many attempts for each SL", §4.3).
  std::vector<const qos::SlProfile*> qos_sls;
  for (const auto& p : admission.catalogue())
    if (p.max_distance != 0) qos_sls.push_back(&p);

  Workload result;
  std::vector<unsigned> streak(qos_sls.size(), 0);
  unsigned exhausted = 0;
  std::size_t turn = 0;
  while (exhausted < qos_sls.size() &&
         result.connections.size() < kMaxConnections) {
    const std::size_t k = turn++ % qos_sls.size();
    if (streak[k] >= kGiveUpAfter) continue;
    const qos::SlProfile& profile = *qos_sls[k];

    const auto src = hosts[rng.below(hosts.size())];
    auto dst = hosts[rng.below(hosts.size())];
    while (dst == src) dst = hosts[rng.below(hosts.size())];

    const double payload_mbps =
        rng.uniform(profile.min_mbps, profile.max_mbps);
    const double wire_mbps =
        wire_rate_for_payload_rate(payload_mbps, payload);

    qos::ConnectionRequest req;
    req.src_host = src;
    req.dst_host = dst;
    req.sl = profile.sl;
    req.max_distance = profile.max_distance;
    req.wire_mbps = wire_mbps;

    ++result.offered;
    const auto id = admission.request(req);
    if (!id) {
      if (++streak[k] >= kGiveUpAfter) ++exhausted;
      continue;
    }
    streak[k] = 0;

    const auto& conn = admission.connection(*id);
    const double oversend =
        (cfg.oversend_sl_mask >> profile.sl) & 1 ? cfg.oversend_factor : 1.0;
    auto spec =
        cfg.vbr ? make_vbr_flow(src, dst, profile.sl, payload, wire_mbps,
                                conn.deadline, rng.next(),
                                cfg.vbr_on_fraction)
                : make_cbr_flow(src, dst, profile.sl, payload, wire_mbps,
                                conn.deadline, rng.next(), oversend);
    // Sources start at a random offset within one interval (desynchronizes
    // the CBR clocks as independent applications would be).
    spec.start_offset = rng.below(spec.interval);
    const auto flow = sim.add_flow(spec);

    EstablishedConnection ec;
    ec.id = *id;
    ec.flow = flow;
    ec.sl = profile.sl;
    ec.payload_mbps = payload_mbps;
    ec.wire_mbps = wire_mbps;
    ec.deadline = conn.deadline;
    ec.stages = static_cast<unsigned>(conn.hops.size());
    result.connections.push_back(ec);
    ++result.accepted;
    result.reserved_wire_mbps += wire_mbps;
  }

  // Best-effort background: one Poisson flow per host and BE-family SL,
  // splitting the configured load PBE:BE:CH = 2:2:1.
  if (cfg.besteffort_load > 0.0) {
    struct BeShare {
      qos::TrafficCategory category;
      double share;
    };
    const BeShare shares[] = {{qos::TrafficCategory::kPbe, 0.4},
                              {qos::TrafficCategory::kBe, 0.4},
                              {qos::TrafficCategory::kCh, 0.2}};
    for (const auto host : hosts) {
      for (const auto& [category, share] : shares) {
        const qos::SlProfile* profile = nullptr;
        for (const auto& p : admission.catalogue())
          if (p.category == category) profile = &p;
        if (profile == nullptr) continue;
        auto dst = hosts[rng.below(hosts.size())];
        while (dst == host) dst = hosts[rng.below(hosts.size())];
        const double mbps = cfg.besteffort_load * share * iba::kBaseLinkMbps;
        auto spec = make_besteffort_flow(host, dst, profile->sl, payload,
                                         mbps, rng.next());
        spec.start_offset = rng.below(spec.interval);
        sim.add_flow(spec);
      }
    }
  }
  return result;
}

}  // namespace ibarb::traffic
