// remote::RemoteExecutor -- the network rung of the execution seam:
// api::Executor over a remote::Fleet of `rchls serve` daemons.
//
// RemoteExecutor fans work out to RESIDENT daemons over the framed wire
// protocol -- paying a socket round-trip per slice and hitting each
// daemon's warm memory/disk caches. The slicing and merging come from
// api/sharding.hpp, which is what makes the results byte-identical to
// LocalExecutor's:
//
//  * Sweep/Grid requests shard into balanced contiguous slices
//    (RemoteOptions::slices, default 2 per endpoint so the fleet can
//    rebalance around a slow daemon), each slice dispatched as one
//    wire request through the fleet's least-outstanding routing;
//  * scenario batches (run_batch, reached via Session::run_batch)
//    dispatch every action concurrently across the fleet, results
//    index-aligned;
//  * merging concatenates slice results in slice order -- never
//    completion order -- so the output is the unsharded cell order.
//
// Failure ladder, per slice: the fleet already retried across healthy
// endpoints (remote/fleet.hpp); if it reports the whole fleet down
// (FleetDownError), the slice DEGRADES to an in-process LocalExecutor
// run (serialized -- the engines own the parallelism) so a sweep
// finishes correctly, just slower, with every daemon gone. Any other
// error aborts with the first failing slice's message.
//
// Single-caller like every Executor (confine an instance to one
// thread); the slice fan-out threads inside are an implementation
// detail, coordinated through the thread-safe Fleet.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "api/executor.hpp"
#include "remote/fleet.hpp"

namespace rchls::remote {

struct RemoteOptions {
  FleetOptions fleet;
  /// Slice count for Sweep/Grid sharding; 0 = 2 per endpoint (shard_*
  /// clamps to the cell count either way).
  std::size_t slices = 0;
  /// Concurrent in-flight dispatches; 0 = 4 per endpoint.
  std::size_t max_inflight = 0;
};

class RemoteExecutor final : public api::Executor {
 public:
  explicit RemoteExecutor(RemoteOptions options);

  api::FindDesignResult run(const api::FindDesignRequest& req) override;
  api::SweepResult run(const api::SweepRequest& req) override;
  api::GridResult run(const api::GridRequest& req) override;
  api::InjectResult run(const api::InjectRequest& req) override;
  api::RankGatesResult run(const api::RankGatesRequest& req) override;
  api::StaResult run(const api::StaRequest& req) override;

  bool supports_batching() const override { return true; }
  std::vector<api::Result> run_batch(
      const std::vector<api::Request>& reqs) override;

  Fleet& fleet() { return fleet_; }
  /// Slices that fell back to in-process execution because the whole
  /// fleet was down (0 on a healthy run; tests assert both ways).
  std::uint64_t local_fallbacks() const {
    return local_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  /// One request through the fleet, degrading to local when the fleet
  /// is down.
  api::Result dispatch(const api::Request& req);
  /// Concurrent index-aligned fan-out of `reqs`; throws BatchItemError
  /// with the first failing index.
  std::vector<api::Result> dispatch_all(const std::vector<api::Request>& reqs);

  RemoteOptions options_;
  Fleet fleet_;
  std::mutex local_mu_;  ///< serializes fallback runs (engines own the pool)
  api::LocalExecutor local_;
  std::atomic<std::uint64_t> local_fallbacks_{0};
};

}  // namespace rchls::remote
