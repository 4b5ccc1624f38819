#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rchls::parallel {

namespace {

/// One parallel region: the counter its runners claim indices from and
/// the latch its caller waits on. Runners hold it by shared_ptr, so a
/// runner that starts after the caller returned still finds it alive.
struct Region {
  Region(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n(n), fn(fn) {}

  const std::size_t n;
  /// Owned by the caller; only touched for a claimed index, and the
  /// caller waits for every claimed index to finish.
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};  ///< next unclaimed index
  std::mutex mutex;
  std::condition_variable done;
  std::size_t finished = 0;  ///< indices whose fn returned; guarded by mutex
  std::exception_ptr first_error;  ///< guarded by mutex
};

std::atomic<std::uint64_t> g_tasks_executed{0};
std::atomic<std::uint64_t> g_idle_wakeups{0};

/// True on pool workers, and on a caller while it runs its own share of
/// a region: a parallel_for from either runs inline.
thread_local bool t_in_region = false;

/// Runs claimed indices until none are left, then reports them.
void run(Region& r) {
  std::size_t ran = 0;
  for (std::size_t i = r.next++; i < r.n; i = r.next++, ++ran) {
    try {
      r.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(r.mutex);
      if (!r.first_error) r.first_error = std::current_exception();
    }
  }
  if (ran == 0) return;
  std::lock_guard<std::mutex> lock(r.mutex);
  r.finished += ran;
  if (r.finished == r.n) r.done.notify_all();
}

/// The engine pool: worker threads on one locked queue of runners. The
/// set of workers only grows; it is joined when the process exits.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  /// Queues `runners` runners of `region`, growing the pool to at least
  /// that many workers first.
  void submit(const std::shared_ptr<Region>& region, std::size_t runners) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (workers_.size() < runners) {
        workers_.emplace_back([this] { work(); });
      }
      queue_.insert(queue_.end(), runners, region);
    }
    for (std::size_t k = 0; k < runners; ++k) ready_.notify_one();
  }

 private:
  void work() {
    t_in_region = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (queue_.empty() && !stopping_) {
        ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        g_idle_wakeups.fetch_add(1, std::memory_order_relaxed);
      }
      // A runner left queued at exit is not needed: its caller runs
      // every index nobody claimed.
      if (stopping_) return;
      std::shared_ptr<Region> region = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      run(*region);
      region.reset();
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::shared_ptr<Region>> queue_;  ///< guarded by mutex_
  bool stopping_ = false;                      ///< guarded by mutex_
  std::vector<std::thread> workers_;  ///< guarded by mutex_; joined by ~Pool
};

Pool& pool() {
  static Pool pool;
  return pool;
}

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t jobs) {
  if (n == 0) return;
  std::size_t width = std::min(jobs == 0 ? global_jobs() : jobs, n);
  if (width <= 1 || t_in_region) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto region = std::make_shared<Region>(n, fn);
  pool().submit(region, width - 1);
  t_in_region = true;
  run(*region);
  t_in_region = false;
  std::unique_lock<std::mutex> lock(region->mutex);
  region->done.wait(lock, [&] { return region->finished == n; });
  g_tasks_executed.fetch_add(n, std::memory_order_relaxed);
  if (region->first_error) std::rethrow_exception(region->first_error);
}

PoolStats pool_stats() {
  PoolStats s;
  s.tasks_executed = g_tasks_executed.load(std::memory_order_relaxed);
  s.idle_wakeups = g_idle_wakeups.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rchls::parallel
