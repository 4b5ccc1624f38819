// The execution seam behind api::Session: WHERE a request runs,
// separated from whether its result is cached.
//
// Session resolves caching (memory, then disk) and delegates every
// actual execution to an Executor. Two implementations ship:
//
//  * LocalExecutor -- the in-process path: dispatches each request kind
//    to the engine entry points (hls::find_design / nmr_baseline /
//    combined_design, the sweep and grid drivers, the ser campaigns),
//    including component-registry and library version-name resolution.
//    This is the default and the engine wiring every other executor
//    bottoms out in.
//
//  * remote::RemoteExecutor (remote/executor.hpp) -- shards Sweep/Grid
//    requests with api/sharding.hpp and dispatches the slices, and whole
//    scenario batches, across a fleet of `rchls serve` daemons.
//
// Contract: run() is a pure function of the request -- byte-identical
// results for equal requests, on every executor, at every worker count
// (tests assert merged shard slices and fleet runs render identically
// to LocalExecutor). Infeasible bounds are results (solved == false),
// structural problems throw rchls::Error; executors never cache (that
// is Session's job). Executors are single-caller: confine each instance
// to one thread (Session serializes its executor calls).
#pragma once

#include <cstddef>
#include <vector>

#include "api/request.hpp"
#include "api/result.hpp"
#include "util/error.hpp"

namespace rchls::api {

/// run_batch's error carrier: which item of the batch failed, so a
/// caller that built the batch from labeled work (scenario actions) can
/// attribute the failure to the right label. what() is the underlying
/// error's message unchanged.
class BatchItemError : public Error {
 public:
  BatchItemError(std::size_t index, const std::string& what)
      : Error(what), index_(index) {}
  /// Position in the `reqs` vector passed to run_batch.
  std::size_t index() const { return index_; }

 private:
  std::size_t index_;
};

class Executor {
 public:
  virtual ~Executor() = default;

  virtual FindDesignResult run(const FindDesignRequest& req) = 0;
  virtual SweepResult run(const SweepRequest& req) = 0;
  virtual GridResult run(const GridRequest& req) = 0;
  virtual InjectResult run(const InjectRequest& req) = 0;
  virtual RankGatesResult run(const RankGatesRequest& req) = 0;
  virtual StaResult run(const StaRequest& req) = 0;

  /// Variant dispatch over the typed overloads (the wire entry point).
  Result run(const Request& req);

  /// True when run_batch does better than a serial loop (a sharding
  /// executor dispatches the whole batch at once). Session only routes
  /// batches to executors that opt in, so the default serial semantics
  /// -- item i fully finishes before item i+1 starts -- are preserved
  /// everywhere else.
  virtual bool supports_batching() const { return false; }

  /// Runs every request, results index-aligned with `reqs`. The default
  /// is the serial loop (in order, stops at the first failure); a
  /// failure is rethrown as BatchItemError carrying the failing index.
  /// Overrides may execute items concurrently but must keep the
  /// index-aligned results and first-failing-index error contract.
  virtual std::vector<Result> run_batch(const std::vector<Request>& reqs);
};

/// The in-process engine wiring (the only executor that computes).
class LocalExecutor final : public Executor {
 public:
  FindDesignResult run(const FindDesignRequest& req) override;
  SweepResult run(const SweepRequest& req) override;
  GridResult run(const GridRequest& req) override;
  InjectResult run(const InjectRequest& req) override;
  RankGatesResult run(const RankGatesRequest& req) override;
  StaResult run(const StaRequest& req) override;
};

}  // namespace rchls::api
