#ifndef BIGCITY_SERVE_LATENCY_WINDOW_H_
#define BIGCITY_SERVE_LATENCY_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace bigcity::serve {

/// Thread-safe sliding window over the last kWindow latency samples, read
/// as a p95 at rank floor(0.95 n) of the n samples held. The server's
/// budget-degradation estimate and each rollout cohort's latency gate
/// both use it.
class LatencyWindow {
 public:
  static constexpr size_t kWindow = 128;

  /// Adds one sample, unless a slow-start discard from Reset is pending.
  void Record(double us) {
    std::lock_guard<std::mutex> lock(mu_);
    if (discard_ > 0) {
      --discard_;
      return;
    }
    if (samples_.size() < kWindow) {
      samples_.push_back(us);
    } else {
      samples_[next_] = us;
      next_ = (next_ + 1) % kWindow;
    }
    ++count_;
  }

  /// Pre-fills `copies` samples of `us` (all counted, at most kWindow
  /// held), so the estimate is usable before real samples exist.
  void Seed(double us, int copies) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < copies && samples_.size() < kWindow; ++i) {
      samples_.push_back(us);
    }
    count_ += static_cast<uint64_t>(std::max(0, copies));
  }

  /// Empties the window; the next `discard` samples are dropped unseen.
  void Reset(int discard = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.clear();
    next_ = 0;
    count_ = 0;
    discard_ = std::max(0, discard);
  }

  /// Samples recorded or seeded since the last Reset.
  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  /// p95 of the held samples; 0 while fewer than `min_samples` were
  /// recorded.
  double P95(int min_samples = 1) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.empty() ||
        count_ < static_cast<uint64_t>(std::max(0, min_samples))) {
      return 0;
    }
    std::vector<double> sorted = samples_;
    const size_t rank = std::min(
        sorted.size() - 1,
        static_cast<size_t>(0.95 * static_cast<double>(sorted.size())));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<ptrdiff_t>(rank),
                     sorted.end());
    return sorted[rank];
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;  // Ring once kWindow is reached.
  size_t next_ = 0;
  uint64_t count_ = 0;
  int discard_ = 0;
};

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_LATENCY_WINDOW_H_
