#ifndef BIGCITY_SERVE_ROLLOUT_H_
#define BIGCITY_SERVE_ROLLOUT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "serve/latency_window.h"

namespace bigcity::serve {

/// Lifecycle state of the model-version rollout machinery (DESIGN.md
/// §4.12):
///
///   IDLE ──publish──▶ STAGED ──load ok──▶ CANARY ──gate pass──▶ ROLLING
///     ▲                  │                   │                     │
///     │              load fail           gate fail             all swapped
///     │                  ▼                   ▼                     ▼
///     └── QUARANTINED ◀──┘              ROLLED_BACK             STABLE
///
/// QUARANTINED / ROLLED_BACK / STABLE are terminal per candidate; the
/// controller returns to IDLE and keeps polling. Numeric values are
/// stable (exported as the `serve.rollout.state` gauge).
enum class RolloutState {
  kIdle = 0,
  kStaged = 1,
  kCanary = 2,
  kRolling = 3,
  kStable = 4,
  kRolledBack = 5,
  kQuarantined = 6,
};

const char* RolloutStateName(RolloutState state);

/// Knobs of the canary health gate and version poller.
struct RolloutOptions {
  /// Model directory to watch (util/model_dir layout). Empty disables the
  /// whole lifecycle machinery.
  std::string model_dir;

  /// Version-poll cadence of the controller thread.
  double poll_interval_ms = 50;

  /// Requests the canary cohort must serve before the gate decides.
  int canary_min_requests = 8;

  /// Gate fails when canary error rate exceeds stable error rate by more
  /// than this margin (absolute, 0..1).
  double canary_error_margin = 0.05;

  /// Gate fails when the canary produced more than this many non-finite
  /// outputs (default: any NaN/Inf output fails the candidate).
  int canary_max_nonfinite = 0;

  /// Gate fails when canary p95 forward latency exceeds stable p95 by
  /// this factor (only once both cohorts have latency samples).
  double canary_latency_inflation = 3.0;

  /// Slow start: the canary cohort discards its first this-many latency
  /// samples before the latency criterion judges (a freshly staged
  /// replica's cold tokenizer/GAT caches make its earliest forwards look
  /// pathological under a diverse load mix). Requests/failures/non-finite
  /// counts are never discarded. Keep below canary_min_requests or the
  /// latency criterion may be skipped for lack of samples.
  int canary_slow_start_samples = 0;

  /// Wall-clock cap on the canary phase; a canary that cannot accumulate
  /// canary_min_requests in time is rolled back (starvation is treated as
  /// failure — never promote without evidence).
  double canary_timeout_ms = 10000;

  /// SLO burn-rate gate (DESIGN.md §4.15): the gate fails when the live
  /// max slo.*.burn_rate across tasks exceeds this during the canary
  /// window. 0 disables the criterion (error-budget math only means
  /// something once SLO objectives are configured for the deployment).
  double canary_max_burn_rate = 0;
};

/// Thread-safe per-cohort (stable vs canary) health accumulator: request
/// and failure counts, non-finite output count, and a sliding window of
/// forward latencies for percentile comparison.
class CohortStats {
 public:
  struct Snapshot {
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t nonfinite = 0;
    double p95_us = 0;       // 0 until at least one latency sample.
    uint64_t latency_samples = 0;

    double ErrorRate() const {
      return requests > 0
                 ? static_cast<double>(failures) / static_cast<double>(requests)
                 : 0.0;
    }
  };

  void RecordSuccess(double forward_us);
  void RecordFailure();
  void RecordNonFinite();
  Snapshot Get() const;
  /// Zeroes all counts; the next `discard_latency_samples` successful
  /// forwards contribute to `requests` but not to the latency window
  /// (canary slow start).
  void Reset(int discard_latency_samples = 0);

 private:
  mutable std::mutex mu_;
  uint64_t requests_ = 0;
  uint64_t failures_ = 0;
  uint64_t nonfinite_ = 0;
  LatencyWindow latency_;
};

enum class GateVerdict {
  kNotReady = 0,  // Canary has not served canary_min_requests yet.
  kPass,
  kFail,
};

/// Pure decision function of the canary health gate: compares the canary
/// cohort against the stable cohort over the current window. On kFail,
/// `reason` names the tripped criterion (quarantine bookkeeping).
/// `slo_burn_rate` is the serving fleet's current max SLO burn rate
/// (SloTracker::MaxBurnRate); judged against canary_max_burn_rate when
/// that knob is set, ignored otherwise.
GateVerdict EvaluateCanary(const CohortStats::Snapshot& stable,
                           const CohortStats::Snapshot& canary,
                           const RolloutOptions& options,
                           std::string* reason,
                           double slo_burn_rate = 0.0);

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_ROLLOUT_H_
