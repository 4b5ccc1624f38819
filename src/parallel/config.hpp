// Process-wide parallelism configuration and pool observability.
//
// Every parallel front-end (parallel_for, parallel_map, and through them the
// exploration sweeps and injection campaigns) resolves its worker count here
// unless the caller passes an explicit count. The CLI's --jobs flag and the
// benchmarks write this once at startup; the default is the hardware
// concurrency of the host.
//
// Parallelism never changes results: work is partitioned the same way at
// every worker count (see partitioner.hpp), so `jobs` is purely a
// wall-clock knob.
//
// PoolStats is the matching observability surface: relaxed-atomic
// counters of the one engine pool behind parallel_for
// (parallel_for.cpp), cumulative for the process. The serve daemon
// prints them on shutdown; perfbench and bench/perf_pool take deltas.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rchls::parallel {

struct Config {
  /// Worker threads used by parallel regions. 0 = hardware concurrency.
  std::size_t jobs = 0;
};

/// max(1, std::thread::hardware_concurrency()).
std::size_t hardware_jobs();

/// Maps the 0-means-default convention to a concrete positive count.
std::size_t resolve_jobs(std::size_t requested);

/// Mutable process-wide configuration (not synchronized: set it during
/// startup, before parallel regions run).
Config& global_config();

/// Convenience accessors for the global worker count.
void set_global_jobs(std::size_t jobs);
std::size_t global_jobs();

// ------------------------------------------------------ pool counters

/// Snapshot of the engine pool's counters. Both are cumulative since
/// process start and monotonic; each is sampled on its own, so a
/// snapshot taken under load is consistent per counter, not across
/// counters. Take deltas to measure a phase.
struct PoolStats {
  std::uint64_t tasks_executed = 0;  ///< indices of regions that used the pool
  std::uint64_t idle_wakeups = 0;    ///< worker wakeups from the idle wait
  /// Always 0: the pool has one shared queue, so nothing is stolen.
  /// Kept only because perfbench reports it as `parallel.steals`.
  std::uint64_t steals = 0;
};

/// Samples the counters (relaxed loads; safe from any thread).
PoolStats pool_stats();

}  // namespace rchls::parallel
