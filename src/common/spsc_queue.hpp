// Bounded single-producer/single-consumer handoff queue, used on two
// serve-layer channels:
//
//   · engine → adaptation-trainer (DESIGN.md §9): the tick loop pushes
//     harvested windows and round markers, the trainer thread drains them;
//   · ingest pump → engine shard (DESIGN.md §10): the pump routes raw
//     frames by link hash, each shard thread drains its own queue.
//
// FIFO order per queue is what makes downstream state a pure function of
// the wire: the replay buffer's contents at a round marker, and a shard's
// per-link frame sequence, never depend on scheduling.
//
// Deliberately a mutex + condvar ring rather than a lock-free one: pushes
// happen once per harvested window or per wire frame, so the lock is
// nowhere near the kernels' critical chain, and the simple form is
// trivially ThreadSanitizer-clean. A full queue BLOCKS the producer
// (bounded memory, nothing is ever dropped — dropping would break the
// determinism contract of both subsystems); the Stats counters expose how
// often that backpressure actually bit so operators can size capacities.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace mlad {

template <typename T>
class SpscQueue {
 public:
  /// Backpressure / traffic counters, maintained under the queue mutex.
  struct Stats {
    std::uint64_t pushes = 0;           ///< items accepted (incl. try_push)
    std::uint64_t pops = 0;             ///< items handed to the consumer
    std::uint64_t producer_blocks = 0;  ///< pushes that found the queue full
    std::uint64_t rejected = 0;         ///< try_push calls that returned false
    std::uint64_t peak_depth = 0;       ///< high-water item count
  };

  explicit SpscQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("SpscQueue: capacity must be > 0");
    }
  }

  /// Enqueue, blocking while the queue is full. After close(), pushes are
  /// silently dropped (the consumer is gone; there is nothing to hand off).
  void push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && items_.size() >= capacity_) {
      ++stats_.producer_blocks;
      not_full_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_) return;
    enqueue_locked(std::move(value));
  }

  /// Enqueue only if there is room right now. Returns false (and counts a
  /// rejection) when the queue is full or closed — the caller keeps the
  /// value and decides what backpressure means for it.
  bool try_push(T value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) {
      ++stats_.rejected;
      return false;
    }
    enqueue_locked(std::move(value));
    return true;
  }

  /// Dequeue into `out`, blocking until an item arrives or the queue is
  /// closed AND drained. Returns false only in the closed-and-drained case.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++stats_.pops;
    not_full_.notify_one();
    return true;
  }

  /// Outcome of a timed pop.
  enum class PopResult { kItem, kTimeout, kClosed };

  /// Dequeue like pop(), but give up after `timeout_ms` without an item.
  /// kTimeout means "nothing yet, queue still open" — the consumer can run
  /// housekeeping (e.g. the serve shards' straggler clock, DESIGN.md §12)
  /// and come back. kClosed is pop()'s false: closed AND drained.
  PopResult pop_for(T& out, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!not_empty_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this] { return closed_ || !items_.empty(); })) {
      return PopResult::kTimeout;
    }
    if (items_.empty()) return PopResult::kClosed;
    out = std::move(items_.front());
    items_.pop_front();
    ++stats_.pops;
    not_full_.notify_one();
    return PopResult::kItem;
  }

  /// No more pushes; pending items stay poppable. Idempotent.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  void enqueue_locked(T value) {
    items_.push_back(std::move(value));
    ++stats_.pushes;
    if (items_.size() > stats_.peak_depth) stats_.peak_depth = items_.size();
    not_empty_.notify_one();
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  Stats stats_;
  bool closed_ = false;
};

}  // namespace mlad
