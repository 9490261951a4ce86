// Request generation for the benchmark workloads: the open-loop city_mix
// schedule (all eight tasks anchored at an advancing "now") and the
// direct-model reference call used by the output check.
#ifndef PERFBENCH_CITY_MIX_H_
#define PERFBENCH_CITY_MIX_H_

#include <cstdint>
#include <vector>

#include "core/bigcity_model.h"
#include "data/dataset.h"
#include "serve/request.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

/// One scheduled request: due `due_s` seconds after its phase starts,
/// generated while the simulated clock stood at slice `now_slice`.
struct Arrival {
  double due_s = 0;
  int now_slice = 0;
  bigcity::serve::Request request;
};

/// Open-loop city_mix generator. Arrivals are Poisson at a fixed rate;
/// tasks are drawn half trajectory (next hop, classification, TTE,
/// similarity, recovery) and half traffic state (one-step, multi-step,
/// imputation). Every request is anchored at a "now" slice that advances
/// at a fixed pace: traffic windows end at now, trajectories are shifted
/// to depart within now's slice. First-touch tokenizer work therefore
/// spreads evenly over a phase instead of piling up at its start.
///
/// Only valid requests are produced: trajectories go through the model's
/// ClipTrajectory, recovery keeps both endpoints and masks at least one
/// point, and windows stay inside the traffic series. The same seed gives
/// the same schedule.
class CityMixGenerator {
 public:
  /// `model` supplies ClipTrajectory and the task limits; both pointers
  /// must outlive the generator.
  CityMixGenerator(const bigcity::data::CityDataset* dataset,
                   const bigcity::core::BigCityModel* model, uint64_t seed);

  /// Arrivals for one phase of `seconds` at `rate_rps`, with now starting
  /// at `first_now` and advancing `slices_per_s`. The pace is lowered when
  /// the phase would run past the end of the series, so now is monotone
  /// (non-decreasing) within a phase.
  std::vector<Arrival> Schedule(double rate_rps, double seconds,
                                int first_now, double slices_per_s);

  /// Earliest now a phase may start at (a full traffic input window).
  int min_now() const;
  /// One past the latest now (the series length).
  int max_now() const;

 private:
  bigcity::serve::Request MakeRequest(int now_slice);
  bigcity::data::Trajectory TripDepartingAt(int now_slice, int min_len);

  const bigcity::data::CityDataset* dataset_;
  const bigcity::core::BigCityModel* model_;
  bigcity::util::Rng rng_;
};

/// The direct model call the server makes for `request` (same Try* entry
/// point and arguments), for the batched = single output check.
bigcity::util::Result<bigcity::nn::Tensor> RunReference(
    bigcity::core::BigCityModel* model,
    const bigcity::serve::Request& request);

}  // namespace perfbench

#endif  // PERFBENCH_CITY_MIX_H_
