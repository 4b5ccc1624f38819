// api::Session -- the single execution boundary in front of every
// engine.
//
// Every front-end (scenario::Runner, the CLI in api/cli.cpp, the serve
// daemon in serve/server.hpp) and any embedding program executes engine
// work by building a typed request (request.hpp) and calling
// Session::run. The session stacks three layers in front of the
// engines:
//
//  1. the in-memory result cache: run() first looks the request's
//     canonical key (cache.hpp) up and short-circuits on a hit, so
//     re-running an edited scenario through one session recomputes only
//     the changed actions. It never evicts: results are small, and
//     eviction would make which runs were served from cache depend on
//     traffic order;
//  2. the optional persistent disk cache (disk_cache.hpp), consulted on
//     a memory miss: entries live under SessionOptions::cache_dir as
//     digest-named wire files, so a SEPARATE process that ran the same
//     request already paid for it -- warm CLI re-invocations execute
//     nothing (CI asserts zero executions on the second run);
//  3. the Executor (executor.hpp), which owns WHERE a miss actually
//     executes: LocalExecutor (default) dispatches in-process to the
//     engines; remote::RemoteExecutor (remote/executor.hpp) shards the
//     work across a fleet of `rchls serve` daemons.
//
// Thread safety: one Session may be shared by any number of threads
// (the serve daemon runs all its workers on one).
//
//  * Memory HITS are lock-cheap: the map sits under a std::shared_mutex,
//    so concurrent readers serve popular requests holding only a reader
//    lock (counters are relaxed atomics).
//  * Disk lookups and stores serialize on their own mutex (DiskCache
//    mutates its stats and the filesystem); a disk hit is promoted to
//    the memory layer under a brief writer lock.
//  * EXECUTIONS serialize on one mutex. The engines already parallelize
//    internally across the process-global pool, so two concurrent
//    engine requests would oversubscribe the host without speeding
//    anything up -- and serializing deduplicates in-flight work for
//    free: a thread that missed on a key another thread is computing
//    blocks on the mutex, re-checks the memory layer, and returns the
//    freshly stored result as a (late) memory hit.
//
// SessionOptions::jobs, when non-zero, is written to the process-wide
// parallel::Config at construction (the pool itself stays
// process-global; engines partition deterministically, so the worker
// count never changes results).
//
// Determinism guarantee: for a given request, run() returns a result
// that is byte-identical (through every report writer) whether it was
// computed cold, served from either cache layer, computed at a
// different --jobs value, or sharded across daemons. This is tested by
// tests/api_session_test.cpp, tests/remote_test.cpp and enforced in CI
// by `rchls run --verify-cache` plus the cross-process warm-cache job.
//
// Error behavior: infeasible synthesis bounds are results (solved ==
// false), not errors. Structural problems -- an unknown engine or
// component name, a library missing a resource class or version the
// request names -- throw rchls::Error; failed executions are never
// cached (in memory or on disk).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/cache.hpp"
#include "api/disk_cache.hpp"
#include "api/executor.hpp"
#include "api/request.hpp"
#include "api/result.hpp"
#include "parallel/config.hpp"

namespace rchls::api {

struct SessionOptions {
  /// Memoize results by content address. Off = every run() executes
  /// (and the disk cache, if any, is bypassed too).
  bool enable_cache = true;
  /// Worker count for parallel regions; 0 leaves the process-wide
  /// parallel::Config untouched (the CLI's --jobs default).
  std::size_t jobs = 0;
  /// Directory of the persistent result cache; empty = memory only.
  /// (The CLI wires --cache-dir / RCHLS_CACHE_DIR through here.)
  std::string cache_dir;
  /// Execution seam; null = a private LocalExecutor.
  std::shared_ptr<Executor> executor;
};

/// Where one run() call's answer came from (per-request provenance; the
/// serve daemon logs it and CI greps the warm pass for executed=0).
enum class RunSource { kMemoryCache, kDiskCache, kExecuted };

/// Memory-layer counters. Every cached lookup counts once: a hit when the
/// memory layer answered (a late hit after waiting out an in-flight
/// duplicate included), a miss otherwise -- so `hits + misses` is the
/// number of lookups since construction (clear_cache() resets all
/// three). A disk hit counts as a miss here and a hit in disk_stats().
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};

/// Every counter at once (each is sampled on its own, without a global
/// lock).
struct SessionStats {
  std::uint64_t hits = 0;        ///< memory-layer hits
  std::uint64_t misses = 0;      ///< memory-layer misses
  std::uint64_t disk_hits = 0;
  std::uint64_t executions = 0;  ///< requests that reached the executor
  std::uint64_t entries = 0;     ///< memory-layer population
};

class Session {
 public:
  explicit Session(SessionOptions options = {});

  /// Executes the request (or serves it from a cache layer). See the
  /// header comment for the determinism, error and threading contracts.
  FindDesignResult run(const FindDesignRequest& req);
  SweepResult run(const SweepRequest& req);
  GridResult run(const GridRequest& req);
  InjectResult run(const InjectRequest& req);
  RankGatesResult run(const RankGatesRequest& req);
  StaResult run(const StaRequest& req);

  /// Variant overload for wire-decoded requests (the serve daemon's
  /// entry point); same caching and error behavior. `source`, when
  /// given, receives the layer that answered.
  Result run(const Request& req, RunSource* source = nullptr);

  /// Runs a whole batch (a scenario's actions), results index-aligned
  /// with `reqs`. When the executor advertises supports_batching(),
  /// the cache layers are consulted once per item and every miss is
  /// dispatched in ONE executor run_batch call (a remote executor
  /// spreads them across its fleet); otherwise each item goes through
  /// the plain serial run() path, preserving its exact semantics and
  /// stats. Results are byte-identical either way (every request is a
  /// pure function). A failure is thrown as BatchItemError carrying
  /// the failing index in `reqs`; on the batched path the other items'
  /// work is discarded uncached, on the serial path items before the
  /// failure are already cached (the same partial-progress behavior a
  /// caller's own run() loop would leave).
  std::vector<Result> run_batch(const std::vector<Request>& reqs);

  /// Memory-layer counters -- the observable cache behavior tests and
  /// `rchls run --verify-cache` assert on.
  CacheStats cache_stats() const;

  /// Counters of the persistent layer (all zero when no cache_dir was
  /// configured).
  DiskCacheStats disk_stats() const;

  SessionStats stats() const;

  /// Number of requests that reached the executor (neither cache layer
  /// answered). The "zero engine executions" acceptance criterion for
  /// warm cross-process runs is asserted on this.
  std::uint64_t executions() const {
    return executions_.load(std::memory_order_relaxed);
  }

  /// Drops all in-memory cached results and zeroes the memory counters
  /// (the disk layer is unaffected; use `rchls cache clear` /
  /// DiskCache::clear).
  void clear_cache();

 private:
  template <typename ResultT, typename RequestT>
  ResultT cached(const RequestT& req, RunSource* source);
  /// Memory layer: copies a hit out under the reader lock and counts it
  /// (callers count misses, which depend on what answers next).
  template <typename ResultT>
  std::optional<ResultT> find_memory(const CacheKey& key);
  /// Disk layer: a hit is promoted to the memory layer.
  std::optional<Result> find_disk(const CacheKey& key);
  void store(const CacheKey& key, Result r);

  SessionOptions options_;
  std::shared_ptr<Executor> executor_;

  mutable std::shared_mutex cache_mu_;  ///< guards entries_
  std::unordered_map<std::string, Result> entries_;

  mutable std::mutex disk_mu_;  ///< guards disk_ (stats + filesystem)
  std::unique_ptr<DiskCache> disk_;

  std::mutex exec_mu_;  ///< serializes executor runs (see header)

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> executions_{0};
};

}  // namespace rchls::api
