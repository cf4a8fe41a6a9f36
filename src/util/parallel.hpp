// parallel_for over an index range, built on util::ThreadPool.
//
// Scheduling is dynamic (shared atomic counter) and therefore
// nondeterministic; determinism is the CALLER's contract: body(i) must
// depend only on i and write only to slot i of its output. Every
// experiment-sweep in bench/ is written that way, which is what makes
// `--jobs N` bit-identical for every N.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace ibarb::util {

/// Runs body(i) for every i in [0, n) on the pool's workers; the calling
/// thread participates too, so a pool of size J gives J+1 lanes. If bodies
/// throw, every index still gets attempted and then the exception of the
/// LOWEST throwing index is rethrown — a deterministic choice no matter how
/// the indices were scheduled.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, Body&& body) {
  if (n == 0) return;
  // Locals captured by reference: every lane has returned once the f.get()
  // loop below ends, so none outlives them, and the exceptions are freed on
  // this thread only.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  auto lane = [&next, &errors, n, &body]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(pool.size());
  for (unsigned w = 0; w < pool.size(); ++w) futures.push_back(pool.submit(lane));
  lane();
  for (auto& f : futures) f.get();

  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Convenience overload: `jobs <= 1` runs everything inline on the calling
/// thread (no pool, no threads — exactly the pre-parallel code path);
/// otherwise a transient pool of jobs-1 workers plus the caller is used.
template <typename Body>
void parallel_for(unsigned jobs, std::size_t n, Body&& body) {
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(jobs - 1);
  parallel_for(pool, n, std::forward<Body>(body));
}

}  // namespace ibarb::util
