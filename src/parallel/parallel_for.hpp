// Deterministic data-parallel front-ends over the engine pool.
//
// parallel_for(n, fn) runs fn(0) .. fn(n-1), each exactly once, in
// unspecified order and on unspecified threads. parallel_map collects
// fn(i) into slot i of a pre-sized vector, so the *result* is always in
// index order no matter which thread finished first -- this is what makes
// the exploration sweeps bit-identical at any --jobs value.
//
// A region of width w = min(jobs, n) queues w - 1 runners on the
// process-wide pool, one locked queue whose worker set only grows, and
// the caller runs one runner itself; runners claim indices from a shared
// counter, so at most w calls of fn run at once. The first exception
// thrown by any fn(i) is rethrown on the calling thread after every
// index has finished.
//
// Both fall back to a plain sequential loop when the resolved worker count
// is 1, when there is at most one item, or when already inside a region
// (nested parallelism runs inline rather than oversubscribing).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/config.hpp"

namespace rchls::parallel {

/// Runs fn(i) for i in [0, n). `jobs` = 0 uses the global configuration.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t jobs = 0);

/// Ordered map: out[i] = fn(i). The element type must be
/// default-constructible (slots are pre-allocated and filled in place).
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t jobs = 0)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, jobs);
  return out;
}

}  // namespace rchls::parallel
