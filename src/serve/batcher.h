#ifndef BIGCITY_SERVE_BATCHER_H_
#define BIGCITY_SERVE_BATCHER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "serve/admission_queue.h"

namespace bigcity::serve {

/// Continuous-batching stage between the admission queue and the workers
/// (DESIGN.md §4.14). Workers call NextBatch() instead of popping the
/// queue directly; the batcher drains arrivals into per-key pending
/// groups and hands out same-key batches. A pending item keeps its
/// admission-queue slot until it is dispatched, so the queue bound covers
/// the batcher's backlog too. A group dispatches when
///   - it reaches `batch_max` items,
///   - its oldest item has waited `window_us` since the batcher saw it,
///   - any member is urgent — remaining deadline within the caller's
///     margin — so a nearly-expired request never waits for batch fill, or
///   - the queue is closed (drain-then-stop shutdown).
/// Items with a negative key are never batched: they dispatch alone,
/// immediately. Thread-safe: any number of workers may call NextBatch()
/// concurrently; group selection is serialized under one mutex while the
/// blocking wait happens inside the queue, so a new arrival wakes exactly
/// one idle worker. Header-only template for the same reason as
/// AdmissionQueue — the item type stays private to the server.
template <typename T>
class Batcher {
 public:
  struct Options {
    int batch_max = 8;
    double window_us = 200.0;
  };

  /// `key_fn` maps an item to its batch group (< 0 = dispatch alone);
  /// `remaining_us_fn` returns the item's remaining deadline budget in
  /// microseconds (infinity when it carries no deadline); `margin_us_fn`
  /// is the urgency threshold, typically window + max(p95 forward,
  /// window) so an urgent item still fits one forward after dispatch.
  /// Optional `dispatch_fn` runs (under the batcher mutex) for every
  /// dispatched item with the microseconds it waited pending — the
  /// server stamps per-request batch-wait attribution from it. Optional
  /// `batch_max_fn` overrides Options::batch_max per dispatch decision;
  /// the overload controller shrinks batches under memory pressure
  /// through it without restarting the batcher.
  Batcher(AdmissionQueue<T>* queue, Options options,
          std::function<int(const T&)> key_fn,
          std::function<double(const T&)> remaining_us_fn,
          std::function<double()> margin_us_fn,
          std::function<void(T&, double)> dispatch_fn = nullptr,
          std::function<int()> batch_max_fn = nullptr)
      : queue_(queue),
        options_(options),
        key_fn_(std::move(key_fn)),
        remaining_us_fn_(std::move(remaining_us_fn)),
        margin_us_fn_(std::move(margin_us_fn)),
        dispatch_fn_(std::move(dispatch_fn)),
        batch_max_fn_(std::move(batch_max_fn)) {}

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Blocks for the next batch; an empty result means the queue is closed
  /// and every pending item has been handed out (worker shutdown).
  std::vector<T> NextBatch() {
    for (;;) {
      while (std::optional<T> item = queue_->TryPop()) Add(std::move(*item));
      double wait_us = kIdleWaitUs;
      {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<T> batch = ExtractLocked();
        if (!batch.empty()) {
          // Leftover pending items need a babysitter: wake an idle worker
          // so their window timer keeps running while this one forwards.
          if (!groups_.empty()) queue_->Kick();
          return batch;
        }
        if (groups_.empty()) {
          if (queue_->closed() && queue_->depth() == 0) return {};
        } else {
          wait_us = WaitHintLocked();
        }
      }
      if (std::optional<T> item = queue_->PopFor(wait_us)) {
        Add(std::move(*item));
      }
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingItem {
    T item;
    Clock::time_point arrived;
  };
  struct Group {
    int key = 0;
    std::vector<PendingItem> items;  // FIFO by arrival.
  };

  // Idle workers park this long in PopFor; Close() and Kick() both wake
  // them immediately, so the constant only bounds lock-free idling.
  static constexpr double kIdleWaitUs = 1e6;

  int CurrentBatchMax() const {
    return batch_max_fn_ ? batch_max_fn_() : options_.batch_max;
  }

  void Add(T&& item) {
    const int key = key_fn_(item);
    std::lock_guard<std::mutex> lock(mu_);
    const Clock::time_point now = Clock::now();
    for (Group& group : groups_) {
      if (group.key == key) {
        group.items.push_back(PendingItem{std::move(item), now});
        return;
      }
    }
    groups_.push_back(Group{key, {}});
    groups_.back().items.push_back(PendingItem{std::move(item), now});
  }

  bool DispatchableLocked(const Group& group, Clock::time_point now,
                          double margin_us) const {
    if (group.key < 0) return true;  // Unbatchable: alone, immediately.
    if (queue_->closed()) return true;
    if (static_cast<int>(group.items.size()) >= CurrentBatchMax()) {
      return true;
    }
    const double oldest_us = std::chrono::duration<double, std::micro>(
                                 now - group.items.front().arrived)
                                 .count();
    if (oldest_us >= options_.window_us) return true;
    for (const PendingItem& pending : group.items) {
      if (remaining_us_fn_(pending.item) <= margin_us) return true;
    }
    return false;
  }

  /// Removes and returns the dispatchable group with the oldest head
  /// (fairness across tasks); empty when nothing may dispatch yet.
  std::vector<T> ExtractLocked() {
    const Clock::time_point now = Clock::now();
    const double margin_us = margin_us_fn_();
    size_t best = groups_.size();
    for (size_t i = 0; i < groups_.size(); ++i) {
      if (groups_[i].items.empty()) continue;
      if (!DispatchableLocked(groups_[i], now, margin_us)) continue;
      if (best == groups_.size() ||
          groups_[i].items.front().arrived <
              groups_[best].items.front().arrived) {
        best = i;
      }
    }
    std::vector<T> batch;
    if (best == groups_.size()) return batch;
    Group& group = groups_[best];
    const size_t take =
        group.key < 0
            ? 1
            : std::min(group.items.size(),
                       static_cast<size_t>(std::max(1, CurrentBatchMax())));
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      if (dispatch_fn_) {
        dispatch_fn_(group.items[i].item,
                     std::chrono::duration<double, std::micro>(
                         now - group.items[i].arrived)
                         .count());
      }
      batch.push_back(std::move(group.items[i].item));
    }
    group.items.erase(group.items.begin(),
                      group.items.begin() + static_cast<ptrdiff_t>(take));
    queue_->Release(take);
    groups_.erase(
        std::remove_if(groups_.begin(), groups_.end(),
                       [](const Group& g) { return g.items.empty(); }),
        groups_.end());
    return batch;
  }

  /// Microseconds until the nearest dispatch trigger among pending items
  /// (window expiry or deadline urgency), floored so a wait is never a
  /// pure spin.
  double WaitHintLocked() const {
    const Clock::time_point now = Clock::now();
    const double margin_us = margin_us_fn_();
    double hint = options_.window_us;
    for (const Group& group : groups_) {
      if (group.items.empty() || group.key < 0) continue;
      const double oldest_us = std::chrono::duration<double, std::micro>(
                                   now - group.items.front().arrived)
                                   .count();
      hint = std::min(hint, options_.window_us - oldest_us);
      for (const PendingItem& pending : group.items) {
        const double remaining = remaining_us_fn_(pending.item);
        if (std::isfinite(remaining)) {
          hint = std::min(hint, remaining - margin_us);
        }
      }
    }
    return std::max(hint, 50.0);
  }

  AdmissionQueue<T>* queue_;
  const Options options_;
  const std::function<int(const T&)> key_fn_;
  const std::function<double(const T&)> remaining_us_fn_;
  const std::function<double()> margin_us_fn_;
  const std::function<void(T&, double)> dispatch_fn_;
  const std::function<int()> batch_max_fn_;

  std::mutex mu_;
  std::vector<Group> groups_;
};

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_BATCHER_H_
