#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(EventQueue, PacketPayloadSurvives) {
  EventQueue q;
  Event e = at(4);
  e.type = EventType::kLinkDeliver;
  e.packet.id = 1234;
  e.packet.payload_bytes = 256;
  q.push(e);
  const auto out = q.pop();
  EXPECT_EQ(out.packet.id, 1234u);
  EXPECT_EQ(out.packet.payload_bytes, 256u);
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

}  // namespace
}  // namespace ibarb::sim
