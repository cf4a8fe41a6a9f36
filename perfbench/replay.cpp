// Isolated replays of two datapath layers through their public APIs. Each
// replay is sized by the workload run it explains (queue depth and gap
// distribution; programmed arbitration tables), and its per-operation cost
// times that run's operation count estimates the layer's share of run time.
#include <algorithm>
#include <bit>
#include <stdexcept>

#include "iba/arbiter.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr unsigned kReplayReps = 5;  // median of five timings

}  // namespace

double replay_queue_ns_per_event(std::size_t depth,
                                 const std::vector<std::uint64_t>& residency,
                                 std::uint64_t seed) {
  using namespace ibarb;
  // Gaps drawn from the run's residency histogram (bin b holds distances
  // of bit width b), pre-drawn into a ring so the timed loop measures the
  // queue rather than the generator.
  std::vector<double> cdf;
  double total = 0.0;
  for (const auto c : residency) cdf.push_back(total += static_cast<double>(c));
  constexpr std::size_t kRing = 1u << 16;
  std::vector<iba::Cycle> gaps(kRing, 1);
  util::Xoshiro256 rng(seed);
  if (total > 0.0) {
    for (auto& g : gaps) {
      const double u = rng.uniform() * total;
      const auto bin = static_cast<unsigned>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const unsigned b = std::min<unsigned>(bin, 40);
      g = b == 0 ? 0
                 : (iba::Cycle{1} << (b - 1)) +
                       rng.below(iba::Cycle{1} << (b - 1));
    }
  }

  const std::uint64_t events = std::max<std::uint64_t>(400'000, depth * 4);
  std::vector<double> ns;
  std::uint64_t checksum = 0;
  for (unsigned rep = 0; rep < kReplayReps; ++rep) {
    sim::EventQueue q(sim::EventQueueImpl::kWheel);
    std::size_t ring = 0;
    iba::Cycle now = 0;
    auto push = [&](iba::Cycle t) {
      sim::Event e;
      e.time = t;
      e.type = sim::EventType::kLinkDeliver;
      q.push(std::move(e));
    };
    for (std::size_t i = 0; i < depth; ++i)
      push(now + gaps[ring++ & (kRing - 1)]);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < events; ++i) {
      const sim::Event e = q.pop();
      now = e.time;
      checksum += e.seq;
      push(now + gaps[ring++ & (kRing - 1)]);
    }
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(events));
  }
  const volatile std::uint64_t keep = checksum;  // keep the loop observable
  (void)keep;
  return median(ns);
}

double replay_arbiter_ns_per_decision(const Fabric& fabric,
                                      std::uint32_t head_bytes,
                                      std::uint64_t seed) {
  using namespace ibarb;
  // Every output port that admission control programmed.
  struct Port {
    iba::VlArbiter arbiter;
    std::uint32_t vl_mask;  ///< VLs with an active entry.
    std::uint32_t first_vl;
  };
  std::vector<Port> ports;
  const auto& g = fabric.graph;
  for (iba::NodeId n = 0; n < g.node_count(); ++n) {
    for (unsigned p = 0; p < g.port_count(n); ++p) {
      const auto port = static_cast<iba::PortIndex>(p);
      if (!g.peer(n, port)) continue;
      const arbtable::TableManager* tm = nullptr;
      try {
        tm = &fabric.admission->port_manager(n, port);
      } catch (const std::out_of_range&) {
        continue;  // no reservation ever landed on this port
      }
      std::uint32_t mask = 0;
      for (const auto* t : {&tm->table().high(), &tm->table().low()})
        for (const auto& e : *t)
          if (e.active()) mask |= 1u << e.vl;
      if (mask != 0)
        ports.push_back({iba::VlArbiter(tm->table()), mask,
                         static_cast<std::uint32_t>(std::countr_zero(mask))});
    }
  }
  if (ports.empty()) return 0.0;

  // Seeded ready patterns from one small shared pool: each of a port's VLs
  // has a head packet with probability 1/2, and at least one does. The
  // pool is too long for the branch predictor to learn and small enough to
  // stay in cache, so the replay times the arbiter, not the pattern store.
  util::Xoshiro256 rng(seed);
  constexpr std::size_t kPatterns = 4096;
  std::vector<std::uint32_t> masks(kPatterns);
  for (auto& m : masks) m = static_cast<std::uint32_t>(rng.next());

  constexpr unsigned kBurst = 64;  // decisions per port visit
  const std::uint64_t decisions = 1'000'000;
  std::vector<double> ns;
  std::uint64_t sink = 0;
  for (unsigned rep = 0; rep < kReplayReps; ++rep) {
    std::uint64_t done = 0;
    std::size_t pattern = 0;
    iba::ReadyBytes ready{};
    const auto t0 = Clock::now();
    while (done < decisions) {
      for (auto& port : ports) {
        for (unsigned k = 0; k < kBurst; ++k) {
          const std::uint32_t m = (masks[pattern++ & (kPatterns - 1)] &
                                   port.vl_mask) |
                                  (1u << port.first_vl);
          for (unsigned vl = 0; vl < ready.size(); ++vl)
            ready[vl] = (m >> vl & 1u) != 0 ? head_bytes : 0;
          const auto d = port.arbiter.arbitrate(ready);
          sink += d ? d->vl : 0;
        }
        done += kBurst;
        if (done >= decisions) break;
      }
    }
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(done));
  }
  const volatile std::uint64_t keep = sink;
  (void)keep;
  return median(ns);
}

}  // namespace perfbench
