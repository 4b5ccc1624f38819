#include "remote/executor.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "api/sharding.hpp"

namespace rchls::remote {

RemoteExecutor::RemoteExecutor(RemoteOptions options)
    : options_(std::move(options)), fleet_(options_.fleet) {
  if (options_.slices == 0) {
    options_.slices = 2 * fleet_.endpoint_count();
  }
  if (options_.max_inflight == 0) {
    options_.max_inflight = 4 * fleet_.endpoint_count();
  }
}

api::Result RemoteExecutor::dispatch(const api::Request& req) {
  try {
    return fleet_.call(req);
  } catch (const FleetDownError&) {
    // Graceful degradation: the whole fleet is gone, so this request
    // runs in-process. Serialized -- the engines parallelize internally
    // and results do not depend on where they run, so correctness (and
    // byte-identity) survive the daemons.
    local_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(local_mu_);
    // Through the base so the typed overloads do not hide the variant
    // dispatcher.
    api::Executor& local = local_;
    return local.run(req);
  }
}

std::vector<api::Result> RemoteExecutor::dispatch_all(
    const std::vector<api::Request>& reqs) {
  std::vector<api::Result> results(reqs.size());
  std::vector<std::string> errors(reqs.size());

  // Static index striding: slot t handles requests t, t+T, t+2T... and
  // results land BY INDEX, so the caller's merge order is the request
  // order, never completion order.
  auto drive = [&](std::size_t t, std::size_t stride) {
    for (std::size_t i = t; i < reqs.size(); i += stride) {
      try {
        results[i] = dispatch(reqs[i]);
      } catch (const Error& e) {
        errors[i] = e.what();
      }
    }
  };

  const std::size_t threads =
      std::min(options_.max_inflight, reqs.size());
  if (threads <= 1) {
    drive(0, 1);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back(drive, t, threads);
    }
    for (auto& th : pool) th.join();
  }

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!errors[i].empty()) throw api::BatchItemError(i, errors[i]);
  }
  return results;
}

api::FindDesignResult RemoteExecutor::run(const api::FindDesignRequest& req) {
  return std::get<api::FindDesignResult>(dispatch(api::Request(req)));
}

api::SweepResult RemoteExecutor::run(const api::SweepRequest& req) {
  std::vector<api::Request> chunks = api::shard_sweep(req, options_.slices);
  std::vector<api::Result> parts;
  try {
    parts = dispatch_all(chunks);
  } catch (const api::BatchItemError& e) {
    throw Error("slice " + std::to_string(e.index()) + " of " +
                std::to_string(chunks.size()) + " failed: " + e.what());
  }
  return api::merge_sweep(req, parts);
}

api::GridResult RemoteExecutor::run(const api::GridRequest& req) {
  std::vector<api::Request> chunks = api::shard_grid(req, options_.slices);
  std::vector<api::Result> parts;
  try {
    parts = dispatch_all(chunks);
  } catch (const api::BatchItemError& e) {
    throw Error("slice " + std::to_string(e.index()) + " of " +
                std::to_string(chunks.size()) + " failed: " + e.what());
  }
  return api::merge_grid(req, parts);
}

api::InjectResult RemoteExecutor::run(const api::InjectRequest& req) {
  return std::get<api::InjectResult>(dispatch(api::Request(req)));
}

api::RankGatesResult RemoteExecutor::run(const api::RankGatesRequest& req) {
  return std::get<api::RankGatesResult>(dispatch(api::Request(req)));
}

api::StaResult RemoteExecutor::run(const api::StaRequest& req) {
  return std::get<api::StaResult>(dispatch(api::Request(req)));
}

std::vector<api::Result> RemoteExecutor::run_batch(
    const std::vector<api::Request>& reqs) {
  return dispatch_all(reqs);
}

}  // namespace rchls::remote
