#include "api/session.hpp"

#include <type_traits>

namespace rchls::api {

namespace {

// A stored Result as the caller's type: the variant itself for the
// wire-level run(), the active alternative for the typed overloads.
template <typename ResultT>
const ResultT& as(const Result& r) {
  if constexpr (std::is_same_v<ResultT, Result>) {
    return r;
  } else {
    return std::get<ResultT>(r);
  }
}

template <typename ResultT>
ResultT&& as(Result&& r) {
  if constexpr (std::is_same_v<ResultT, Result>) {
    return std::move(r);
  } else {
    return std::get<ResultT>(std::move(r));
  }
}

void report(RunSource* source, RunSource s) {
  if (source) *source = s;
}

}  // namespace

Session::Session(SessionOptions options) : options_(std::move(options)) {
  if (options_.jobs != 0) parallel::set_global_jobs(options_.jobs);
  if (!options_.cache_dir.empty()) {
    disk_ = std::make_unique<DiskCache>(options_.cache_dir);
  }
  executor_ = options_.executor ? options_.executor
                                : std::make_shared<LocalExecutor>();
}

template <typename ResultT>
std::optional<ResultT> Session::find_memory(const CacheKey& key) {
  std::shared_lock<std::shared_mutex> lock(cache_mu_);
  auto it = entries_.find(key.canonical);
  if (it == entries_.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return std::make_optional<ResultT>(as<ResultT>(it->second));
}

std::optional<Result> Session::find_disk(const CacheKey& key) {
  if (!disk_) return std::nullopt;
  std::optional<Result> hit;
  {
    std::lock_guard<std::mutex> lock(disk_mu_);
    hit = disk_->find(key);
  }
  if (hit) {
    // Promote to the memory layer so repeated lookups stop touching the
    // filesystem.
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    entries_.emplace(key.canonical, *hit);
  }
  return hit;
}

// Disk first, so the one copy the caller hands over can then move into
// the memory map.
void Session::store(const CacheKey& key, Result r) {
  if (disk_) {
    std::lock_guard<std::mutex> lock(disk_mu_);
    disk_->store(key, r);
  }
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  entries_.emplace(key.canonical, std::move(r));
}

template <typename ResultT, typename RequestT>
ResultT Session::cached(const RequestT& req, RunSource* source) {
  if (!options_.enable_cache) {
    std::lock_guard<std::mutex> exec(exec_mu_);
    executions_.fetch_add(1, std::memory_order_relaxed);
    report(source, RunSource::kExecuted);
    return executor_->run(req);
  }

  CacheKey key = key_of(req);
  if (std::optional<ResultT> hit = find_memory<ResultT>(key)) {
    report(source, RunSource::kMemoryCache);
    return std::move(*hit);
  }
  if (std::optional<Result> hit = find_disk(key)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    report(source, RunSource::kDiskCache);
    return as<ResultT>(std::move(*hit));
  }

  // Once this thread holds the executor, re-check the memory layer: a
  // thread that raced it here may have stored the result already, which
  // makes this call a late memory hit instead of a second execution.
  std::lock_guard<std::mutex> exec(exec_mu_);
  if (std::optional<ResultT> hit = find_memory<ResultT>(key)) {
    report(source, RunSource::kMemoryCache);
    return std::move(*hit);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  executions_.fetch_add(1, std::memory_order_relaxed);
  ResultT r = executor_->run(req);
  store(key, r);
  report(source, RunSource::kExecuted);
  return r;
}

FindDesignResult Session::run(const FindDesignRequest& req) {
  return cached<FindDesignResult>(req, nullptr);
}

SweepResult Session::run(const SweepRequest& req) {
  return cached<SweepResult>(req, nullptr);
}

GridResult Session::run(const GridRequest& req) {
  return cached<GridResult>(req, nullptr);
}

InjectResult Session::run(const InjectRequest& req) {
  return cached<InjectResult>(req, nullptr);
}

RankGatesResult Session::run(const RankGatesRequest& req) {
  return cached<RankGatesResult>(req, nullptr);
}

StaResult Session::run(const StaRequest& req) {
  return cached<StaResult>(req, nullptr);
}

Result Session::run(const Request& req, RunSource* source) {
  return cached<Result>(req, source);
}

std::vector<Result> Session::run_batch(const std::vector<Request>& reqs) {
  std::vector<Result> out(reqs.size());
  if (!executor_->supports_batching()) {
    // Exactly the run() path, item by item: same caching, same stats
    // (one cache consult per item), same partial-progress behavior.
    // Duplicate requests hit the entry their first occurrence stored.
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      try {
        out[i] = run(reqs[i]);
      } catch (const Error& e) {
        throw BatchItemError(i, e.what());
      }
    }
    return out;
  }

  // Batching executor: consult the cache layers once per item, then
  // hand every miss to the executor in one call.
  std::vector<std::size_t> missed;  // original indices, in order
  std::vector<CacheKey> keys(reqs.size());
  if (options_.enable_cache) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      keys[i] = key_of(reqs[i]);
      if (std::optional<Result> hit = find_memory<Result>(keys[i])) {
        out[i] = std::move(*hit);
        continue;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (std::optional<Result> hit = find_disk(keys[i])) {
        out[i] = std::move(*hit);
        continue;
      }
      missed.push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < reqs.size(); ++i) missed.push_back(i);
  }
  if (missed.empty()) return out;

  std::vector<Request> pending;
  pending.reserve(missed.size());
  for (std::size_t i : missed) pending.push_back(reqs[i]);
  std::lock_guard<std::mutex> exec(exec_mu_);
  executions_.fetch_add(pending.size(), std::memory_order_relaxed);
  std::vector<Result> results;
  try {
    results = executor_->run_batch(pending);
  } catch (const BatchItemError& e) {
    // Re-map the executor's miss-relative index onto `reqs`.
    throw BatchItemError(missed[e.index()], e.what());
  } catch (const Error& e) {
    // A whole-batch failure has no better index than the first miss.
    throw BatchItemError(missed.front(), e.what());
  }
  for (std::size_t j = 0; j < missed.size(); ++j) {
    const std::size_t i = missed[j];
    if (options_.enable_cache) store(keys[i], results[j]);
    out[i] = std::move(results[j]);
  }
  return out;
}

CacheStats Session::cache_stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(cache_mu_);
  s.entries = entries_.size();
  return s;
}

DiskCacheStats Session::disk_stats() const {
  if (!disk_) return {};
  std::lock_guard<std::mutex> lock(disk_mu_);
  return disk_->stats();
}

SessionStats Session::stats() const {
  CacheStats c = cache_stats();
  SessionStats s;
  s.hits = c.hits;
  s.misses = c.misses;
  s.disk_hits = disk_stats().hits;
  s.executions = executions();
  s.entries = c.entries;
  return s;
}

void Session::clear_cache() {
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  entries_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace rchls::api
