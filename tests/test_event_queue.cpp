#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <vector>

#include "util/rng.hpp"

namespace ibarb::sim {
namespace {

Event at(iba::Cycle t) {
  Event e;
  e.time = t;
  return e;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(at(30));
  q.push(at(10));
  q.push(at(20));
  EXPECT_EQ(q.pop().time, 10u);
  EXPECT_EQ(q.pop().time, 20u);
  EXPECT_EQ(q.pop().time, 30u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesAreFifo) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) {
    Event e = at(5);
    e.aux = i;
    q.push(e);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto e = q.pop();
    EXPECT_EQ(e.time, 5u);
    EXPECT_EQ(e.aux, i) << "same-cycle events must keep insertion order";
  }
}

TEST(EventQueue, MixedTimesAndTies) {
  EventQueue q;
  Event a = at(7);
  a.aux = 1;
  Event b = at(3);
  b.aux = 2;
  Event c = at(7);
  c.aux = 3;
  q.push(a);
  q.push(b);
  q.push(c);
  EXPECT_EQ(q.pop().aux, 2u);
  EXPECT_EQ(q.pop().aux, 1u);
  EXPECT_EQ(q.pop().aux, 3u);
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(at(1));
  q.push(at(2));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, TopDoesNotPop) {
  EventQueue q;
  q.push(at(9));
  EXPECT_EQ(q.top().time, 9u);
  EXPECT_EQ(q.size(), 1u);
}

// The head is memoized with its time: after top() and after every pop().
// These pin what a push does to that memo. Each case runs once with the
// head in the fine wheel and once with it on the overflow heap (2^32
// cycles and more ahead).

constexpr iba::Cycle kHeapBase = iba::Cycle{1} << 33;

TEST(EventQueue, LaterPushKeepsTheMemoizedHead) {
  for (const iba::Cycle base : {iba::Cycle{0}, kHeapBase}) {
    EventQueue q;
    Event head = at(base + 10);
    head.aux = 1;
    q.push(head);
    ASSERT_EQ(q.top_time(), base + 10);
    for (const iba::Cycle later :
         {base + 11, base + 70'000, base + (iba::Cycle{1} << 32)}) {
      Event e = at(later);
      e.aux = 2;
      q.push(e);
      EXPECT_EQ(q.top_time(), base + 10);
      EXPECT_EQ(q.top().aux, 1u);
    }
    // And after a pop, which memoizes the next head itself.
    q.push(at(base + 20));
    EXPECT_EQ(q.pop().time, base + 10);
    q.push(at(base + 21));
    EXPECT_EQ(q.top_time(), base + 11);
    EXPECT_EQ(q.pop().time, base + 11);
    EXPECT_EQ(q.pop().time, base + 20);
    EXPECT_EQ(q.pop().time, base + 21);
  }
}

TEST(EventQueue, SameTimePushStaysBehindTheMemoizedHead) {
  for (const iba::Cycle base : {iba::Cycle{0}, kHeapBase}) {
    EventQueue q;
    Event head = at(base + 5);
    head.aux = 1;
    q.push(head);
    q.push(at(base + 9));
    ASSERT_EQ(q.top().aux, 1u);
    // A push at the head's time carries a larger seq, so it orders after.
    Event tie = at(base + 5);
    tie.aux = 2;
    q.push(tie);
    EXPECT_EQ(q.top_time(), base + 5);
    EXPECT_EQ(q.top().aux, 1u);
    EXPECT_EQ(q.pop().aux, 1u);
    // After the pop the memo holds the tie; another one queues behind it.
    Event tie2 = at(base + 5);
    tie2.aux = 3;
    q.push(tie2);
    EXPECT_EQ(q.top().aux, 2u);
    for (const std::uint32_t want : {2u, 3u}) {
      const Event e = q.pop();
      EXPECT_EQ(e.time, base + 5);
      EXPECT_EQ(e.aux, want);
    }
    EXPECT_EQ(q.pop().time, base + 9);
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, EarlierPushOvertakesTheMemoizedHead) {
  for (const iba::Cycle base : {iba::Cycle{0}, kHeapBase}) {
    EventQueue q;
    q.push(at(base + 100));
    q.push(at(base + 300));
    ASSERT_EQ(q.top_time(), base + 100);
    q.push(at(base + 50));
    EXPECT_EQ(q.top_time(), base + 50);
    EXPECT_EQ(q.top().time, base + 50);
    EXPECT_EQ(q.pop().time, base + 50);
    EXPECT_EQ(q.pop().time, base + 100);
    // The pop memoized 300; earlier pushes overtake it.
    q.push(at(base + 200));
    EXPECT_EQ(q.top_time(), base + 200);
    EXPECT_EQ(q.pop().time, base + 200);
    q.push(at(base + 150));
    EXPECT_EQ(q.pop().time, base + 150);
    EXPECT_EQ(q.pop().time, base + 300);
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, PacketHandleRoundTrips) {
  // Events carry a 4-byte handle into a PacketPool, never the packet: the
  // handle survives the queue (wheel, coarse wheel and heap alike) and
  // still names the parked packet when the event pops.
  static_assert(sizeof(Event) <= 32);
  PacketPool pool;
  EventQueue q;
  std::vector<PacketHandle> handles;
  const iba::Cycle times[] = {4, 70'000, iba::Cycle{1} << 40};
  for (std::uint64_t i = 0; i < std::size(times); ++i) {
    iba::Packet p;
    p.id = 1234 + i;
    p.payload_bytes = 256;
    Event e = at(times[i]);
    e.type = EventType::kLinkDeliver;
    e.pkt = pool.park(p);
    handles.push_back(e.pkt);
    q.push(e);
  }
  for (std::uint64_t i = 0; i < std::size(times); ++i) {
    const auto out = q.pop();
    EXPECT_EQ(out.time, times[i]);
    EXPECT_EQ(out.type, EventType::kLinkDeliver);
    ASSERT_EQ(out.pkt, handles[i]);
    EXPECT_EQ(pool[out.pkt].id, 1234 + i);
    EXPECT_EQ(pool[out.pkt].payload_bytes, 256u);
    pool.release(out.pkt);
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(Event{}.pkt, kNoPacket) << "events without a packet carry none";
}

TEST(EventQueue, StatsArePinnedForAFixedScript) {
  // Residency and overflow are defined by the distance from the last
  // popped time, whatever level stores the event. These figures are what
  // the single-level wheel recorded for the same script.
  EventQueue q;
  q.push(at(0));                        // distance 0      -> bin 0
  q.push(at(1));                        // distance 1      -> bin 1
  q.push(at(1'000));                    // bit_width 10    -> bin 10
  q.push(at(65'535));                   // bit_width 16    -> bin 16
  q.push(at(65'536));                   // 2^16 ahead      -> overflow
  q.push(at(iba::Cycle{1} << 33));      // far future      -> overflow
  EXPECT_EQ(q.pop().time, 0u);
  EXPECT_EQ(q.pop().time, 1u);          // last pop = 1
  q.push(at(0));                        // behind it       -> overflow
  q.push(at(1));                        // distance 0      -> bin 0
  q.push(at(1 + (1u << 17)));           // 2^17 ahead      -> overflow
  q.push(at(65'536));                   // bit_width 16    -> bin 16
  std::vector<iba::Cycle> popped;
  while (!q.empty()) popped.push_back(q.pop().time);
  const std::vector<iba::Cycle> order{0,      1,      1'000,  65'535,
                                      65'536, 65'536, 131'073,
                                      iba::Cycle{1} << 33};
  EXPECT_EQ(popped, order);

  const auto& st = q.stats();
  EXPECT_EQ(st.pushes, 10u);
  EXPECT_EQ(st.pops, 10u);
  EXPECT_EQ(st.overflow_pushes, 4u);
  EXPECT_EQ(st.peak_size, 8u);
  std::array<std::uint64_t, EventQueue::kResidencyBins> bins{};
  bins[0] = 2;
  bins[1] = 1;
  bins[10] = 1;
  bins[16] = 2;
  bins[17] = 4;
  EXPECT_EQ(st.residency_log2, bins);
}

// --- Differential suite: the queue vs a sorted reference model -------------
//
// The queue must produce the exact (time, insertion-order) event sequence of
// a totally ordered queue under any interleaving of pushes and pops, and
// stamp each event's `seq` with its push index — the order every simulation
// result depends on.

/// Runs an operation script against the queue and a sorted reference, then
/// checks they agree on every popped (time, aux) pair and that each popped
/// `seq` is the reference's push stamp. A script step with `pop == false`
/// pushes an event at `time`; `pop == true` pops (skipped when empty).
struct Step {
  bool pop = false;
  iba::Cycle time = 0;
};

void run_differential(const std::vector<Step>& script) {
  EventQueue queue;
  std::vector<std::pair<iba::Cycle, std::uint32_t>> reference;  // unpopped
  std::uint32_t stamp = 0;
  std::size_t checked = 0;

  for (const Step& s : script) {
    if (!s.pop) {
      Event e = at(s.time);
      e.aux = stamp++;
      queue.push(e);
      reference.emplace_back(s.time, e.aux);
      continue;
    }
    if (reference.empty()) {
      EXPECT_TRUE(queue.empty());
      continue;
    }
    // Reference order: earliest time, ties by insertion stamp. aux stamps
    // increase monotonically, so min over (time, aux) is exactly that.
    const auto it = std::min_element(reference.begin(), reference.end());
    const Event e = queue.pop();
    ASSERT_EQ(e.time, it->first) << "time diverged at pop " << checked;
    ASSERT_EQ(e.aux, it->second) << "order diverged at pop " << checked;
    ASSERT_EQ(e.seq, it->second) << "sequence stamp wrong at pop " << checked;
    reference.erase(it);
    ++checked;
  }
  while (!reference.empty()) {
    const auto it = std::min_element(reference.begin(), reference.end());
    const Event e = queue.pop();
    ASSERT_EQ(e.time, it->first);
    ASSERT_EQ(e.aux, it->second);
    ASSERT_EQ(e.seq, it->second);
    reference.erase(it);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueDifferential, RandomizedPushPop) {
  util::Xoshiro256 rng(404);
  std::vector<Step> script;
  iba::Cycle now = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.chance(0.45)) {
      script.push_back(Step{true, 0});
      now += static_cast<iba::Cycle>(rng.below(40));
    } else {
      // Mostly near-future times; `now` only advances so some pushes land
      // behind the wheel's sliding window (the defensive overflow path).
      script.push_back(
          Step{false, now + static_cast<iba::Cycle>(rng.below(5'000))});
    }
  }
  run_differential(script);
}

TEST(EventQueueDifferential, SameCycleTieStorm) {
  // Bursts of dozens of events on one cycle, interleaved with pops — the
  // crossbar-completion pattern where FIFO-within-cycle is load-bearing.
  util::Xoshiro256 rng(405);
  std::vector<Step> script;
  for (iba::Cycle t = 100; t < 2'000; t += 100) {
    const auto burst = 20 + rng.below(40);
    for (std::uint64_t i = 0; i < burst; ++i) script.push_back(Step{false, t});
    for (std::uint64_t i = 0; i < burst / 2; ++i)
      script.push_back(Step{true, 0});
  }
  run_differential(script);
}

TEST(EventQueueDifferential, FarFutureOverflow) {
  // Events beyond the 2^16-cycle wheel horizon must overflow to the heap yet
  // merge back into the global order once the window reaches them.
  util::Xoshiro256 rng(406);
  std::vector<Step> script;
  for (int i = 0; i < 3'000; ++i) {
    const auto r = rng.uniform();
    iba::Cycle t;
    if (r < 0.5) {
      t = rng.below(1u << 16);                       // in-window
    } else if (r < 0.8) {
      t = (1u << 16) + rng.below(1u << 18);          // beyond horizon
    } else {
      t = (1u << 20) + rng.below(1u << 22);          // far future
    }
    script.push_back(Step{false, t});
    if (rng.chance(0.4)) script.push_back(Step{true, 0});
  }
  run_differential(script);
}

TEST(EventQueueDifferential, DrainAndRefillCrossesTheHorizon) {
  // Repeated full drains force the wheel's base to slide far, so refills
  // exercise bucket reuse after wrap-around.
  util::Xoshiro256 rng(407);
  std::vector<Step> script;
  iba::Cycle base = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 500; ++i)
      script.push_back(
          Step{false, base + static_cast<iba::Cycle>(rng.below(90'000))});
    for (int i = 0; i < 500; ++i) script.push_back(Step{true, 0});
    base += 70'000;  // next round starts past most of the previous window
  }
  run_differential(script);
}

TEST(EventQueueDifferential, PushesStraddleEpochBoundaries) {
  // Every round pushes around the next 2^16-cycle epoch edge (just before,
  // on, and just after it) and half-drains, so the fine wheel keeps
  // emptying into cascades while same-cycle ties sit on both sides.
  util::Xoshiro256 rng(409);
  std::vector<Step> script;
  for (iba::Cycle edge = 1u << 16; edge <= 12u << 16; edge += 1u << 16) {
    for (int i = 0; i < 60; ++i) {
      const auto off = static_cast<iba::Cycle>(rng.below(64));
      script.push_back(Step{false, rng.chance(0.5) ? edge - 1 - off
                                                   : edge + off});
      if (rng.chance(0.1)) script.push_back(Step{false, edge});
    }
    for (int i = 0; i < 50; ++i) script.push_back(Step{true, 0});
  }
  run_differential(script);
}

TEST(EventQueueDifferential, PushesBehindTheWindowAfterACascade) {
  // Events far enough ahead to sit in the coarse wheel, then a pop that
  // cascades them in; later pushes land behind the cascaded epoch (at the
  // last popped time and just after it), which only the heap can hold.
  util::Xoshiro256 rng(410);
  std::vector<Step> script;
  iba::Cycle now = 0;
  for (int round = 0; round < 30; ++round) {
    // An epoch-aligned cluster two to five epochs ahead: coarse wheel.
    const iba::Cycle far = ((now >> 16) + 2 + rng.below(4)) << 16;
    for (int i = 0; i < 20; ++i)
      script.push_back(Step{false, far + rng.below(2'000)});
    script.push_back(Step{false, now + 5});
    script.push_back(Step{true, 0});  // pops now + 5; the fine wheel empties
    // The next pop cascades the cluster's epoch in; these pushes land in
    // the epoch before it, behind the window, yet after the last pop.
    for (int i = 0; i < 10; ++i)
      script.push_back(Step{false, far - 1 - rng.below(900)});
    for (int i = 0; i < 25; ++i) script.push_back(Step{true, 0});
    now = far + 2'000;
  }
  run_differential(script);
}

TEST(EventQueueDifferential, EventsBeyondTheCoarseHorizon) {
  // 2^32 cycles and more ahead of the current epoch: the heap holds them
  // and they merge back in (time, seq) order, ties included, while nearer
  // traffic keeps flowing through both wheels.
  util::Xoshiro256 rng(411);
  std::vector<Step> script;
  const iba::Cycle horizon = iba::Cycle{1} << 32;
  for (int i = 0; i < 4'000; ++i) {
    const auto r = rng.uniform();
    iba::Cycle t;
    if (r < 0.4) {
      t = rng.below(1u << 20);                          // both wheels
    } else if (r < 0.7) {
      t = horizon + rng.below(1u << 20);                // just past it
    } else if (r < 0.8) {
      t = horizon - 1 - rng.below(1u << 16);            // last coarse epoch
    } else {
      t = 3 * horizon + 17;                             // one tie storm
    }
    script.push_back(Step{false, t});
    if (rng.chance(0.45)) script.push_back(Step{true, 0});
  }
  run_differential(script);
}

TEST(EventQueueDifferential, CascadeKeepsSameCycleTiesInPushOrder) {
  // Bursts of ties on a few cycles of later epochs sit in the coarse wheel
  // in push order; a cascade must keep that order in each one-cycle bucket,
  // including buckets that receive further same-cycle pushes after it.
  util::Xoshiro256 rng(412);
  std::vector<Step> script;
  iba::Cycle base = 100;
  for (int round = 0; round < 60; ++round) {
    const iba::Cycle cycles[] = {base + rng.below(50),
                                 base + (2u << 16) + rng.below(4),
                                 base + (5u << 16) + rng.below(4)};
    const auto burst = 20 + rng.below(30);
    for (std::uint64_t i = 0; i < burst; ++i)
      script.push_back(Step{false, cycles[rng.below(std::size(cycles))]});
    for (std::uint64_t i = 0; i < burst / 2 + 1; ++i)
      script.push_back(Step{true, 0});
    // More ties on the coarse cycles, pushed after some of them cascaded.
    for (int i = 0; i < 6; ++i)
      script.push_back(Step{false, cycles[1 + rng.below(2)]});
    base += 3u << 16;
  }
  run_differential(script);
}

TEST(EventQueueDifferential, PushesSweepTheStatsHorizon) {
  // Residency is measured from the last pop: a push at last pop + 2^16 - 1
  // is near (bin 16), one at + 2^16 or + 2^16 + 1 is an overflow push.
  // Every round pushes at those three distances, and pops advance the last
  // pop by varying steps, so the edge sweeps across cycles already queued
  // and across epoch boundaries while order must stay exact.
  util::Xoshiro256 rng(413);
  EventQueue queue;
  std::vector<std::pair<iba::Cycle, std::uint32_t>> reference;  // unpopped
  std::uint32_t stamp = 0;
  iba::Cycle last_pop = 0;
  constexpr iba::Cycle kHorizon = iba::Cycle{1} << 16;
  std::uint64_t beyond = 0;
  std::array<std::uint64_t, EventQueue::kResidencyBins> bins{};
  const auto push = [&](iba::Cycle t) {
    const iba::Cycle dist = t - last_pop;  // never behind the last pop here
    if (dist >= kHorizon) {
      ++beyond;
      ++bins.back();
    } else {
      ++bins[static_cast<std::size_t>(std::bit_width(dist))];
    }
    Event e = at(t);
    e.aux = stamp++;
    queue.push(e);
    reference.emplace_back(t, e.aux);
  };
  const auto pop_checked = [&]() -> ::testing::AssertionResult {
    const auto it = std::min_element(reference.begin(), reference.end());
    const auto want = *it;
    reference.erase(it);
    const Event e = queue.pop();
    last_pop = e.time;
    if (e.time == want.first && e.aux == want.second && e.seq == want.second)
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "popped (" << e.time << ", " << e.aux << "), expected ("
           << want.first << ", " << want.second << ")";
  };

  for (int round = 0; round < 3'000; ++round) {
    push(last_pop + kHorizon - 1);
    push(last_pop + kHorizon);
    push(last_pop + kHorizon + 1);
    // Near traffic: mostly zero to three cycles ahead, so consecutive
    // rounds' edges overlap, sometimes far enough to jump ahead.
    for (int i = 0; i < 2; ++i)
      push(last_pop + (rng.chance(0.8) ? rng.below(4) : rng.below(40'000)));
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(pop_checked());
  }
  while (!reference.empty()) ASSERT_TRUE(pop_checked());
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.stats().overflow_pushes, beyond);
  EXPECT_EQ(queue.stats().residency_log2, bins);
}

}  // namespace
}  // namespace ibarb::sim
