// parallel_for over an index range, and the --jobs default.
//
// The simulator itself stays single-threaded; parallelism lives one level
// up, at the granularity of whole seeded experiments, which share no mutable
// state. Scheduling is dynamic (shared atomic counter) and therefore
// nondeterministic; determinism is the CALLER's contract: body(i) must
// depend only on i and write only to slot i of its output. Every
// experiment-sweep in bench/ is written that way, which is what makes
// `--jobs N` bit-identical for every N.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace ibarb::util {

/// --jobs default: hardware_concurrency, with the standard-permitted 0
/// answer clamped to 1.
inline unsigned default_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs body(i) for every i in [0, n). `jobs <= 1` (or a single index) runs
/// inline on the calling thread; otherwise up to jobs-1 threads plus the
/// caller take indices from one shared counter. If bodies throw, every index
/// still gets attempted and then the exception of the LOWEST throwing index
/// is rethrown — a deterministic choice no matter how the indices were
/// scheduled.
template <typename Body>
void parallel_for(unsigned jobs, std::size_t n, Body&& body) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Locals captured by reference: every lane has joined when `threads`
  // goes out of scope, so none outlives them, and the exceptions are freed
  // on this thread only.
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
  {
    const std::size_t extra = std::min<std::size_t>(jobs, n) - 1;
    std::vector<std::jthread> threads;
    threads.reserve(extra);
    for (std::size_t t = 0; t < extra; ++t) threads.emplace_back(lane);
    lane();
  }

  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace ibarb::util
