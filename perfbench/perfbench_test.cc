// Unit tests for the benchmark's own helpers: the per-run order
// statistics in stats.h and the city_mix request generator (the run-set
// spread and comparison helpers are tested in test_compare.py). Built with
// -DPERFBENCH_TESTS=ON; `python3 perfbench/run.py --selftest` builds and
// runs them.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "city_mix.h"
#include "core/bigcity_model.h"
#include "data/dataset.h"
#include "nn/tensor.h"
#include "stats.h"

namespace perfbench {
namespace {

using bigcity::core::Task;

std::vector<double> OneToHundredShuffled() {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back((i * 37) % 100 + 1);
  return v;
}

TEST(StatsTest, PercentileIsNearestRank) {
  const auto v = OneToHundredShuffled();
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
}

TEST(StatsTest, PercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(StatsTest, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(StatsTest, MeanOfSamples) {
  EXPECT_EQ(Mean({1, 2, 3, 6}), 3);
  EXPECT_EQ(Mean({}), 0);
}

/// A small city and a tiny model, enough to validate generated requests
/// through the model's own Try* entry points.
class CityMixTest : public ::testing::Test {
 protected:
  static bigcity::data::CityDatasetConfig SmallCity() {
    auto config = bigcity::data::XianLikeConfig();
    config.city.grid_width = 5;
    config.city.grid_height = 5;
    config.generator.num_trajectories = 200;
    config.generator.horizon_days = 2.0;
    return config;
  }
  static bigcity::core::BigCityConfig TinyModel() {
    bigcity::core::BigCityConfig config;
    config.d_model = 16;
    config.num_heads = 2;
    config.num_layers = 1;
    config.spatial_dim = 8;
    config.gat_hidden = 8;
    config.threads = 1;
    return config;
  }

  bigcity::data::CityDataset dataset_{SmallCity()};
  bigcity::core::BigCityModel model_{&dataset_, TinyModel()};
};

TEST_F(CityMixTest, SameSeedGivesSameSchedule) {
  CityMixGenerator a(&dataset_, &model_, 42), b(&dataset_, &model_, 42);
  CityMixGenerator c(&dataset_, &model_, 43);
  const auto sa = a.Schedule(200, 2.0, a.min_now(), 10);
  const auto sb = b.Schedule(200, 2.0, b.min_now(), 10);
  const auto sc = c.Schedule(200, 2.0, c.min_now(), 10);
  ASSERT_EQ(sa.size(), sb.size());
  bool differs = sa.size() != sc.size();
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].due_s, sb[i].due_s);
    EXPECT_EQ(sa[i].now_slice, sb[i].now_slice);
    const auto& ra = sa[i].request;
    const auto& rb = sb[i].request;
    EXPECT_EQ(ra.task, rb.task);
    EXPECT_EQ(ra.segment, rb.segment);
    EXPECT_EQ(ra.start_slice, rb.start_slice);
    EXPECT_EQ(ra.kept, rb.kept);
    EXPECT_EQ(ra.masked, rb.masked);
    ASSERT_EQ(ra.trajectory.length(), rb.trajectory.length());
    for (int p = 0; p < ra.trajectory.length(); ++p) {
      EXPECT_EQ(ra.trajectory.points[p].segment,
                rb.trajectory.points[p].segment);
      EXPECT_EQ(ra.trajectory.points[p].timestamp,
                rb.trajectory.points[p].timestamp);
    }
    if (i < sc.size() && sc[i].due_s != sa[i].due_s) differs = true;
  }
  EXPECT_TRUE(differs) << "another seed should give another schedule";
}

TEST_F(CityMixTest, NowIsMonotoneAndDueTimesIncrease) {
  CityMixGenerator gen(&dataset_, &model_, 7);
  // 20 s at 10 slices/s would overrun the 96-slice series: the pace drops
  // so now stays inside it.
  const auto schedule = gen.Schedule(100, 20.0, gen.min_now(), 10);
  ASSERT_GT(schedule.size(), 1000u);
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].now_slice, schedule[i - 1].now_slice);
    EXPECT_GT(schedule[i].due_s, schedule[i - 1].due_s);
  }
  EXPECT_GE(schedule.front().now_slice, gen.min_now());
  EXPECT_LT(schedule.back().now_slice, gen.max_now());
  EXPECT_LT(schedule.back().due_s, 20.0);
}

TEST_F(CityMixTest, RequestsAreAnchoredAtNow) {
  CityMixGenerator gen(&dataset_, &model_, 9);
  const auto& traffic = dataset_.traffic();
  for (const Arrival& a : gen.Schedule(200, 2.0, 30, 10)) {
    const auto& r = a.request;
    if (r.trajectory.length() > 0) {
      EXPECT_EQ(traffic.SliceOf(r.trajectory.points[0].timestamp),
                a.now_slice);
    } else if (r.task == Task::kTrafficImputation) {
      EXPECT_EQ(r.start_slice + r.window, a.now_slice);
    } else {
      EXPECT_EQ(r.start_slice + model_.config().traffic_input_steps,
                a.now_slice);
    }
  }
}

TEST_F(CityMixTest, OnlyValidRequestsCoveringAllTasks) {
  CityMixGenerator gen(&dataset_, &model_, 11);
  const auto schedule = gen.Schedule(300, 1.0, gen.min_now(), 10);
  ASSERT_GT(schedule.size(), 200u);
  bigcity::nn::NoGradGuard no_grad;
  std::set<Task> tasks;
  int trajectory_tasks = 0;
  for (const Arrival& a : schedule) {
    tasks.insert(a.request.task);
    trajectory_tasks += a.request.trajectory.length() > 0 ? 1 : 0;
    auto result = RunReference(&model_, a.request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(tasks.size(), 8u);
  const double share =
      static_cast<double>(trajectory_tasks) / schedule.size();
  EXPECT_GT(share, 0.35);
  EXPECT_LT(share, 0.65);
}

}  // namespace
}  // namespace perfbench
