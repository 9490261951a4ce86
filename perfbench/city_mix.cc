#include "city_mix.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace perfbench {

using bigcity::core::Task;
using bigcity::data::Trajectory;
using bigcity::serve::Request;

namespace {

/// Task draw: the five trajectory tasks share one half of the traffic,
/// the three traffic-state tasks the other.
constexpr Task kTasks[] = {
    Task::kNextHop,          Task::kTrajClassification,
    Task::kTravelTimeEstimation, Task::kMostSimilarSearch,
    Task::kTrajRecovery,     Task::kTrafficOneStep,
    Task::kTrafficMultiStep, Task::kTrafficImputation,
};
const std::vector<double>& TaskWeights() {
  static const std::vector<double> weights = {
      0.1, 0.1, 0.1, 0.1, 0.1, 1.0 / 6, 1.0 / 6, 1.0 / 6};
  return weights;
}

}  // namespace

CityMixGenerator::CityMixGenerator(const bigcity::data::CityDataset* dataset,
                                   const bigcity::core::BigCityModel* model,
                                   uint64_t seed)
    : dataset_(dataset), model_(model), rng_(seed) {
  BIGCITY_CHECK(dataset_ != nullptr && model_ != nullptr);
  BIGCITY_CHECK(!dataset_->test().empty());
  BIGCITY_CHECK_LT(min_now(), max_now());
}

int CityMixGenerator::min_now() const {
  return model_->config().traffic_input_steps;
}

int CityMixGenerator::max_now() const { return dataset_->num_slices(); }

std::vector<Arrival> CityMixGenerator::Schedule(double rate_rps,
                                                double seconds, int first_now,
                                                double slices_per_s) {
  BIGCITY_CHECK_GT(rate_rps, 0);
  BIGCITY_CHECK(first_now >= min_now() && first_now < max_now());
  // Keep now inside the series for the whole phase.
  const double room = static_cast<double>(max_now() - 1 - first_now);
  const double pace = std::min(slices_per_s, room / std::max(seconds, 1e-9));
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(rate_rps * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    // Exponential inter-arrival gap (Poisson process at rate_rps).
    t += -std::log(1.0 - rng_.Uniform()) / rate_rps;
    if (t >= seconds) break;
    Arrival arrival;
    arrival.due_s = t;
    arrival.now_slice = first_now + static_cast<int>(t * pace);
    arrival.request = MakeRequest(arrival.now_slice);
    arrivals.push_back(std::move(arrival));
  }
  return arrivals;
}

Trajectory CityMixGenerator::TripDepartingAt(int now_slice, int min_len) {
  const auto& pool = dataset_->test();
  for (;;) {
    const Trajectory& source =
        pool[static_cast<size_t>(rng_.UniformInt(
            0, static_cast<int>(pool.size()) - 1))];
    Trajectory trip = model_->ClipTrajectory(source);
    if (trip.length() < min_len) continue;
    const double depart =
        dataset_->traffic().SliceStart(now_slice) +
        rng_.Uniform(0, dataset_->traffic().slice_seconds());
    const double shift = depart - trip.points.front().timestamp;
    for (auto& point : trip.points) point.timestamp += shift;
    return trip;
  }
}

Request CityMixGenerator::MakeRequest(int now_slice) {
  const auto& config = model_->config();
  Request request;
  request.task = kTasks[rng_.Categorical(TaskWeights())];
  switch (request.task) {
    case Task::kNextHop: {
      request.trajectory = TripDepartingAt(now_slice, 2);
      const int keep = rng_.UniformInt(2, request.trajectory.length());
      request.trajectory.points.resize(static_cast<size_t>(keep));
      break;
    }
    case Task::kTrajClassification:
    case Task::kTravelTimeEstimation:
    case Task::kMostSimilarSearch:
      request.trajectory = TripDepartingAt(now_slice, 2);
      break;
    case Task::kTrajRecovery: {
      request.trajectory = TripDepartingAt(now_slice, 3);
      const int length = request.trajectory.length();
      // Endpoints always survive; interior points drop with p = 0.5, and
      // at least one interior point is masked.
      const int forced = rng_.UniformInt(1, length - 2);
      request.kept.push_back(0);
      for (int i = 1; i < length - 1; ++i) {
        if (i != forced && rng_.Bernoulli(0.5)) request.kept.push_back(i);
      }
      request.kept.push_back(length - 1);
      break;
    }
    case Task::kTrafficOneStep:
    case Task::kTrafficMultiStep:
      request.segment =
          rng_.UniformInt(0, dataset_->network().num_segments() - 1);
      request.start_slice = now_slice - config.traffic_input_steps;
      request.horizon = request.task == Task::kTrafficOneStep
                            ? 1
                            : config.traffic_horizon;
      break;
    case Task::kTrafficImputation: {
      request.segment =
          rng_.UniformInt(0, dataset_->network().num_segments() - 1);
      request.window = config.traffic_input_steps;
      request.start_slice = now_slice - request.window;
      for (int i = 0; i < request.window; ++i) {
        if (rng_.Bernoulli(0.25)) request.masked.push_back(i);
      }
      if (request.masked.empty()) {
        request.masked.push_back(rng_.UniformInt(0, request.window - 1));
      }
      break;
    }
  }
  return request;
}

bigcity::util::Result<bigcity::nn::Tensor> RunReference(
    bigcity::core::BigCityModel* model, const Request& request) {
  switch (request.task) {
    case Task::kNextHop:
      return model->TryNextHopLogits(request.trajectory);
    case Task::kTravelTimeEstimation:
      return model->TryTravelTimeDeltas(request.trajectory);
    case Task::kTrajClassification:
      return model->TryClassifyLogits(request.trajectory);
    case Task::kMostSimilarSearch:
      return model->TryEmbed(request.trajectory);
    case Task::kTrajRecovery:
      return model->TryRecoverLogits(request.trajectory, request.kept);
    case Task::kTrafficOneStep:
      return model->TryPredictTraffic(request.segment, request.start_slice,
                                      1);
    case Task::kTrafficMultiStep:
      return model->TryPredictTraffic(request.segment, request.start_slice,
                                      request.horizon);
    case Task::kTrafficImputation:
      return model->TryImputeTraffic(request.segment, request.start_slice,
                                     request.window, request.masked);
  }
  return bigcity::util::Status::InvalidArgument("unknown task");
}

}  // namespace perfbench
