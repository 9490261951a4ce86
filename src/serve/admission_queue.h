#ifndef BIGCITY_SERVE_ADMISSION_QUEUE_H_
#define BIGCITY_SERVE_ADMISSION_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace bigcity::serve {

/// Bounded MPMC admission queue with explicit load shedding: TryPush never
/// blocks — a full queue rejects immediately so overload turns into fast
/// kResourceExhausted responses instead of unbounded latency growth. A
/// popped item keeps its admission slot until the consumer calls
/// Release(), so the bound covers every admitted item that has not been
/// handed on yet, including those a consumer holds back (the batcher's
/// pending groups). Header-only template so the item type (request +
/// promise + deadline bookkeeping) stays private to the server.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity)
      : capacity_(capacity), effective_capacity_(capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// False when the queue is full or closed. Takes an rvalue reference so
  /// a rejected item is NOT consumed — the caller still owns it and can
  /// resolve its promise with the shed status.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t bound = std::min(
          capacity_, effective_capacity_.load(std::memory_order_relaxed));
      if (closed_ || items_.size() + held_ >= bound) return false;
      items_.push_back(std::move(item));
    }
    ready_cv_.notify_one();
    return true;
  }

  /// Non-blocking pop; nullopt when the queue is currently empty. The
  /// batcher drains arrivals with this before deciding what to dispatch.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    return PopLocked();
  }

  /// Blocks up to `timeout_us` for the next item. Returns nullopt on
  /// timeout, on close-with-empty-queue, or after a Kick() — callers
  /// re-evaluate their own dispatch state and loop.
  std::optional<T> PopFor(double timeout_us) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t seen = kick_epoch_;
    ready_cv_.wait_for(lock,
                       std::chrono::duration<double, std::micro>(timeout_us),
                       [&] {
                         return closed_ || !items_.empty() ||
                                kick_epoch_ != seen;
                       });
    return PopLocked();
  }

  /// Frees the admission slots of `count` popped items.
  void Release(size_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    held_ -= std::min(held_, count);
  }

  /// Wakes every blocked PopFor() without delivering an item. The batcher
  /// kicks after dispatching a partial group so an idle worker takes over
  /// the leftover items' window timer instead of sleeping indefinitely.
  void Kick() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++kick_epoch_;
    }
    ready_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Stops admissions and wakes blocked PopFor() calls. Items already queued
  /// are still handed out (drain-then-stop shutdown).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_cv_.notify_all();
  }

  /// Items waiting to be popped (popped-but-unreleased ones excluded).
  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  /// Tightens (or restores) the admission bound without touching queued
  /// items; the constructor capacity stays the hard ceiling. The overload
  /// controller shrinks this under memory pressure so backlog stops
  /// growing before allocation failure.
  void SetEffectiveCapacity(size_t capacity) {
    effective_capacity_.store(std::max<size_t>(1, capacity),
                              std::memory_order_relaxed);
  }

  size_t effective_capacity() const {
    return std::min(capacity_,
                    effective_capacity_.load(std::memory_order_relaxed));
  }

 private:
  std::optional<T> PopLocked() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    ++held_;
    return item;
  }

  const size_t capacity_;
  std::atomic<size_t> effective_capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<T> items_;
  size_t held_ = 0;  // Popped but not yet released.
  uint64_t kick_epoch_ = 0;
  bool closed_ = false;
};

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_ADMISSION_QUEUE_H_
