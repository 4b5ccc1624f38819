// Bounded MPMC handoff queue: the backpressure point between the serve
// daemon's connection readers (producers) and its worker pool
// (consumers).
//
// The shape follows the connection-to-worker handoff the ROADMAP cites
// from block-based-queue designs, simplified to what backpressure
// actually requires: a mutex/condvar ring with a hard capacity.
// Unlike the engine pool's queue (parallel/parallel_for.cpp), which
// grows with the runners it is given, this one is bounded: the payload
// here is a whole engine request (milliseconds to minutes), so queue
// overhead is noise, while the bounded-capacity contract is the
// feature: try_push never blocks and never allocates past the cap, so a
// flooded server refuses work in O(1) instead of buffering unboundedly
// and dying later (the refusal becomes an `error` envelope upstream).
//
// pop() blocks until an item or stop(); after stop() producers are
// rejected and consumers drain what remains, then get nullopt -- so no
// accepted request is silently dropped on shutdown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace rchls::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Non-blocking enqueue: false when full or stopped (the caller turns
  /// that into an overflow error envelope).
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocking dequeue: nullopt once stopped AND drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return stopped_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Rejects future pushes and wakes every blocked consumer.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool stopped_ = false;
};

}  // namespace rchls::serve
