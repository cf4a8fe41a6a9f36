// util::parallel_for — the substrate of the parallel sweep engine. The tests
// pin down the contracts the sweeps rely on: every index covered exactly
// once for empty / single / larger-than-lane ranges, work spread over
// several threads when jobs > 1, and deterministic error selection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace ibarb::util {
namespace {

TEST(ParallelFor, DefaultJobsIsAtLeastOne) { EXPECT_GE(default_jobs(), 1u); }

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  std::atomic<int> calls{0};
  parallel_for(1u, 0, [&](std::size_t) { calls.fetch_add(1); });
  parallel_for(4u, 0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleItemRuns) {
  std::vector<int> hits(1, 0);
  parallel_for(4u, 1, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, MoreItemsThanThreadsCoverEveryIndexOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(4u, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, JobsOneRunsInlineOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  parallel_for(1u, seen.size(),
               [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, JobsFourRunsBodiesOnSeveralThreads) {
  // Each body waits (bounded) until every body has started, so no lane can
  // finish its index and take another before the other lanes have begun.
  constexpr std::size_t kN = 4;
  std::atomic<std::size_t> started{0};
  std::vector<std::thread::id> seen(kN);
  parallel_for(4u, kN, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < kN && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  const std::set<std::thread::id> ids(seen.begin(), seen.end());
  EXPECT_GT(ids.size(), 1u);
}

TEST(ParallelFor, ResultsAreIndependentOfJobCount) {
  // The determinism contract in miniature: body(i) depends only on i.
  auto compute = [](unsigned jobs) {
    std::vector<std::uint64_t> out(64);
    parallel_for(jobs, out.size(),
                 [&](std::size_t i) { out[i] = i * 2654435761u; });
    return out;
  };
  const auto seq = compute(1);
  EXPECT_EQ(seq, compute(2));
  EXPECT_EQ(seq, compute(8));
}

TEST(ParallelFor, RethrowsLowestIndexExceptionAfterDraining) {
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  try {
    parallel_for(5u, kN, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i % 7 == 3) throw std::runtime_error("idx " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Deterministic selection: index 3 is the lowest thrower.
    EXPECT_STREQ(e.what(), "idx 3");
  }
  // Every index was still attempted despite the failures.
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, InlinePathPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(1u, 4, [](std::size_t i) {
        if (i == 2) throw std::logic_error("inline");
      }),
      std::logic_error);
}

}  // namespace
}  // namespace ibarb::util
