// The crossbar scheduler (src/sched/): differential, property and invariant
// tests.
//
//  * Differential: WrrCrossbar against a verbatim transliteration of the
//    pre-refactor Simulator loop, over randomized arrival/release schedules
//    — the grant sequence must match exactly (the simulator-level half of
//    this is the golden-file comparison, the Golden.* ctests).
//  * VlRoundRobin: the rotated-mask walk against the modulo loop, for every
//    start and occupancy mask.
//  * Probes: work conservation after every full matching round,
//    grant-eligibility at commit time (asserted inside the mock),
//    deterministic replay, exact stats, and Theorem 1 (zero deadline misses
//    end-to-end).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "paper_runner.hpp"
#include "sched/ports.hpp"
#include "sched/wrr_crossbar.hpp"
#include "util/rng.hpp"

namespace ibarb::sched {
namespace {

struct MockPacket {
  iba::PortIndex out = 0;
};

struct Grant {
  unsigned in = 0;
  iba::VirtualLane vl = 0;
  unsigned out = 0;

  bool operator==(const Grant&) const = default;
};

/// A one-switch fabric stub: the test-side CrossbarPorts view. grant()
/// enforces the commit-time contract (input ready, output free, space
/// downstream) with test assertions, so every scheduler test doubles as an
/// eligibility-invariant probe. Copyable on purpose: the differential test
/// replays one arrival schedule against two engines.
class MockFabric {
 public:
  explicit MockFabric(unsigned ports)
      : ports_(ports), q_(ports), in_busy_(ports, false),
        out_busy_(ports, false), out_full_(ports, false) {}

  // --- test controls ------------------------------------------------------
  void push(unsigned in, iba::VirtualLane vl, MockPacket p) {
    q_[in][vl].push_back(p);
  }
  void set_output_full(unsigned out, bool full) { out_full_[out] = full; }
  /// Cell boundary: every in-flight transfer completes.
  void release_all() {
    std::fill(in_busy_.begin(), in_busy_.end(), false);
    std::fill(out_busy_.begin(), out_busy_.end(), false);
  }
  const std::vector<Grant>& grants() const { return grants_; }
  std::uint64_t queued() const {
    std::uint64_t n = 0;
    for (const auto& input : q_)
      for (const auto& vl : input) n += vl.size();
    return n;
  }

  /// True when some transfer could still start — i.e. the previous
  /// schedule() was NOT work-conserving.
  bool has_eligible_pair() const {
    for (unsigned i = 0; i < ports_; ++i) {
      if (!input_ready(i)) continue;
      for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v) {
        const auto vl = static_cast<iba::VirtualLane>(v);
        if (q_[i][v].empty()) continue;
        const auto out = head_output(i, vl);
        if (output_free(out) && output_accepts(i, vl, out)) return true;
      }
    }
    return false;
  }

  // --- the CrossbarPorts view ---------------------------------------------
  unsigned port_count() const { return ports_; }
  bool input_ready(iba::PortIndex in) const {
    return !in_busy_[in] && input_occupancy(in) != 0;
  }
  std::uint16_t input_occupancy(iba::PortIndex in) const {
    std::uint16_t occ = 0;
    for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v)
      if (!q_[in][v].empty()) occ |= static_cast<std::uint16_t>(1u << v);
    return occ;
  }
  iba::PortIndex head_output(iba::PortIndex in,
                             iba::VirtualLane vl) const {
    return q_[in][vl].front().out;
  }
  bool output_free(iba::PortIndex out) const {
    return !out_busy_[out];
  }
  bool output_accepts(iba::PortIndex, iba::VirtualLane,
                      iba::PortIndex out) const {
    return !out_full_[out];
  }
  void grant(iba::PortIndex in, iba::VirtualLane vl,
             iba::PortIndex out) {
    // Commit-time contract: every grant must be eligible right now. A
    // double grant within one match trips the busy checks.
    EXPECT_TRUE(input_ready(in)) << "grant from busy/empty input " << in;
    EXPECT_FALSE(q_[in][vl].empty()) << "grant from empty (in,vl)";
    EXPECT_EQ(q_[in][vl].front().out, out) << "grant to wrong output";
    EXPECT_TRUE(output_free(out)) << "grant to busy output " << out;
    EXPECT_TRUE(output_accepts(in, vl, out)) << "grant past a full output";
    q_[in][vl].pop_front();
    in_busy_[in] = true;
    out_busy_[out] = true;
    grants_.push_back({in, vl, static_cast<unsigned>(out)});
  }

 private:
  unsigned ports_;
  std::vector<std::array<std::deque<MockPacket>, iba::kMaxVirtualLanes>> q_;
  std::vector<bool> in_busy_;
  std::vector<bool> out_busy_;
  std::vector<bool> out_full_;
  std::vector<Grant> grants_;
};
static_assert(CrossbarPorts<MockFabric>);

// ---------------------------------------------------------------------------
// Differential: WrrCrossbar vs the pre-refactor Simulator loop, verbatim.
// ---------------------------------------------------------------------------

/// Transliteration of the pre-refactor Simulator::try_start_transfer /
/// schedule_crossbar pair (see git history of src/sim/simulator.cpp),
/// with the port-state accesses routed through the view. Kept deliberately
/// close to the original text so a divergence in WrrCrossbar is a bug in
/// the extraction, not in this reference.
struct ReferenceWrr {
  unsigned rr_input = 0;
  std::vector<iba::VirtualLane> rr_vl;

  explicit ReferenceWrr(unsigned ports) : rr_vl(ports, 0) {}

  bool try_start_transfer(MockFabric& f, iba::PortIndex in_port) {
    if (!f.input_ready(in_port)) return false;
    const std::uint16_t occ = f.input_occupancy(in_port);
    for (unsigned k = 0; k < iba::kMaxVirtualLanes; ++k) {
      const auto vl = static_cast<iba::VirtualLane>(
          (rr_vl[in_port] + k) % iba::kMaxVirtualLanes);
      if (!(occ & (1u << vl))) continue;
      const auto out_port = f.head_output(in_port, vl);
      if (!f.output_free(out_port)) continue;
      if (!f.output_accepts(in_port, vl, out_port)) continue;
      rr_vl[in_port] =
          static_cast<iba::VirtualLane>((vl + 1) % iba::kMaxVirtualLanes);
      f.grant(in_port, vl, out_port);
      return true;
    }
    return false;
  }

  void schedule(MockFabric& f, int only_input) {
    if (only_input >= 0) {
      try_start_transfer(f, static_cast<iba::PortIndex>(only_input));
      return;
    }
    const unsigned ports = f.port_count();
    bool progress = true;
    while (progress) {
      progress = false;
      for (unsigned k = 0; k < ports; ++k) {
        const auto p = static_cast<iba::PortIndex>((rr_input + k) % ports);
        if (try_start_transfer(f, p)) {
          rr_input = (p + 1) % ports;
          progress = true;
        }
      }
    }
  }
};

TEST(WrrDifferential, MatchesPreRefactorReferenceOnRandomSchedules) {
  constexpr unsigned kPorts = 8;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Xoshiro256 rng(seed);
    MockFabric fa(kPorts);
    MockFabric fb(kPorts);
    WrrCrossbar impl(kPorts);
    ReferenceWrr ref(kPorts);

    for (unsigned step = 0; step < 400; ++step) {
      const double r = rng.uniform();
      if (r < 0.55) {
        // Arrival at a random (input, VL) — the single-arrival trigger.
        const auto in = static_cast<unsigned>(rng.uniform(0, kPorts));
        const auto vl = static_cast<iba::VirtualLane>(
            rng.uniform(0, iba::kMaxVirtualLanes));
        MockPacket p;
        p.out = static_cast<iba::PortIndex>(rng.uniform(0, kPorts));
        fa.push(in, vl, p);
        fb.push(in, vl, p);
        impl.schedule(fa, static_cast<int>(in));
        ref.schedule(fb, static_cast<int>(in));
      } else if (r < 0.8) {
        // Transfer completions: full rescan.
        fa.release_all();
        fb.release_all();
        impl.schedule(fa, -1);
        ref.schedule(fb, -1);
      } else {
        // Downstream congestion flips.
        const auto out = static_cast<unsigned>(rng.uniform(0, kPorts));
        const bool full = rng.chance(0.5);
        fa.set_output_full(out, full);
        fb.set_output_full(out, full);
        impl.schedule(fa, -1);
        ref.schedule(fb, -1);
      }
      ASSERT_EQ(fa.grants().size(), fb.grants().size())
          << "seed " << seed << " step " << step;
    }
    // The whole grant sequence — order included — must be identical.
    ASSERT_EQ(fa.grants(), fb.grants()) << "seed " << seed;
    EXPECT_GT(fa.grants().size(), 100u) << "scenario too idle to be probative";
  }
}

TEST(VlRoundRobin, VisitsOccupiedVlsInModuloLoopOrderForEveryStartAndMask) {
  // Exhaustive: every round-robin position and every occupancy mask. The
  // rotated-mask walk must visit exactly the VLs the pre-refactor modulo
  // loop visited, in the same order.
  std::vector<iba::VirtualLane> expected;
  std::vector<iba::VirtualLane> walked;
  for (unsigned start = 0; start < iba::kMaxVirtualLanes; ++start) {
    for (std::uint32_t m = 0; m < (1u << iba::kMaxVirtualLanes); ++m) {
      const auto occ = static_cast<std::uint16_t>(m);
      expected.clear();
      for (unsigned k = 0; k < iba::kMaxVirtualLanes; ++k) {
        const auto vl = static_cast<iba::VirtualLane>(
            (start + k) % iba::kMaxVirtualLanes);
        if (occ & (1u << vl)) expected.push_back(vl);
      }
      walked.clear();
      for (VlRoundRobin vls(occ, start); vls;) walked.push_back(vls.next());
      ASSERT_EQ(walked, expected) << "start " << start << " mask " << m;
    }
  }
}

// ---------------------------------------------------------------------------
// Invariant probes.
// ---------------------------------------------------------------------------

/// Randomized arrival/release/congestion schedule against one scheduler;
/// returns the fabric for post-hoc assertions.
MockFabric drive_random(WrrCrossbar& sched, unsigned ports,
                        std::uint64_t seed, unsigned steps) {
  util::Xoshiro256 rng(seed);
  MockFabric f(ports);
  for (unsigned step = 0; step < steps; ++step) {
    const double r = rng.uniform();
    if (r < 0.5) {
      const auto in = static_cast<unsigned>(rng.uniform(0, ports));
      const auto vl = static_cast<iba::VirtualLane>(
          rng.uniform(0, iba::kMaxVirtualLanes));
      MockPacket p;
      p.out = static_cast<iba::PortIndex>(rng.uniform(0, ports));
      f.push(in, vl, p);
      sched.schedule(f, static_cast<int>(in));
    } else if (r < 0.8) {
      f.release_all();
      sched.schedule(f, -1);
    } else {
      f.set_output_full(static_cast<unsigned>(rng.uniform(0, ports)),
                        rng.chance(0.4));
      sched.schedule(f, -1);
    }
  }
  // Finish with a full rescan so work conservation is assessable.
  f.release_all();
  sched.schedule(f, -1);
  return f;
}

TEST(WrrCrossbar, WorkConservingAfterFullRescan) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    WrrCrossbar sched(8);
    const MockFabric f = drive_random(sched, 8, seed, 300);
    // After schedule(-1) returns, no startable transfer may remain.
    // (Eligibility at commit time was asserted by the mock on every grant
    // along the way.)
    EXPECT_FALSE(f.has_eligible_pair()) << "seed " << seed;
    EXPECT_GT(f.grants().size(), 50u) << "scenario too idle to be probative";
  }
}

TEST(WrrCrossbar, DeterministicReplay) {
  WrrCrossbar a(8);
  WrrCrossbar b(8);
  const MockFabric fa = drive_random(a, 8, 42, 400);
  const MockFabric fb = drive_random(b, 8, 42, 400);
  // Same schedule, same decisions, bit for bit — the scheduler may keep no
  // hidden nondeterministic state (this is what --jobs reproducibility
  // rests on).
  EXPECT_EQ(fa.grants(), fb.grants());
  EXPECT_EQ(a.stats().grants, b.stats().grants);
  EXPECT_EQ(a.stats().iterations, b.stats().iterations);
}

TEST(WrrCrossbar, StatsCountGrantsExactly) {
  WrrCrossbar sched(8);
  const MockFabric f = drive_random(sched, 8, 7, 300);
  EXPECT_EQ(sched.stats().grants, f.grants().size());
  EXPECT_GT(sched.stats().rounds, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: Theorem 1 holds behind the crossbar.
// ---------------------------------------------------------------------------

TEST(WrrCrossbar, TheoremOneNoDeadlineMissEndToEnd) {
  // The paper's no-miss guarantee stems from the VL arbitration tables at
  // the OUTPUT ports; the crossbar policy upstream of them must not be able
  // to break it on an admitted workload.
  bench::PaperRunConfig cfg;
  cfg.switches = 4;
  cfg.min_rx_packets = 8;
  cfg.warmup = 200'000;
  const auto run = bench::run_paper_experiment(cfg);
  ASSERT_FALSE(run->summary.hit_hard_limit);
  ASSERT_GT(run->workload.accepted, 0u);
  for (const auto& ec : run->workload.connections) {
    const auto& c = run->sim->metrics().connections[ec.flow];
    ASSERT_GT(c.rx_packets, 0u) << "SL " << int(ec.sl);
    EXPECT_EQ(c.deadline_misses, 0u) << "SL " << int(ec.sl);
    EXPECT_DOUBLE_EQ(c.fraction_within(sim::kDelayThresholds - 1), 1.0);
  }
}

}  // namespace
}  // namespace ibarb::sched
