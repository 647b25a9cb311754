#include <gtest/gtest.h>

#include <cmath>

#include "analysis/aggregate.h"
#include "analysis/experiment.h"
#include "analysis/report.h"
#include "analysis/trajectory.h"
#include "common/check.h"
#include "surrogate/benchmarks.h"

namespace hypertune {
namespace {

TEST(Trajectory, StepFunctionSemantics) {
  Trajectory trajectory;
  EXPECT_TRUE(std::isnan(trajectory.At(1.0)));
  trajectory.Add(10, 0.5);
  trajectory.Add(20, 0.3);
  EXPECT_TRUE(std::isnan(trajectory.At(9.9)));
  EXPECT_DOUBLE_EQ(trajectory.At(10), 0.5);
  EXPECT_DOUBLE_EQ(trajectory.At(15), 0.5);
  EXPECT_DOUBLE_EQ(trajectory.At(20), 0.3);
  EXPECT_DOUBLE_EQ(trajectory.At(1e9), 0.3);
}

TEST(Trajectory, RejectsOutOfOrderTimes) {
  Trajectory trajectory;
  trajectory.Add(10, 0.5);
  EXPECT_THROW(trajectory.Add(5, 0.4), CheckError);
}

TEST(Trajectory, TimeToReach) {
  Trajectory trajectory;
  trajectory.Add(10, 0.5);
  trajectory.Add(20, 0.3);
  trajectory.Add(30, 0.1);
  EXPECT_DOUBLE_EQ(trajectory.TimeToReach(0.5), 10);
  EXPECT_DOUBLE_EQ(trajectory.TimeToReach(0.2), 30);
  EXPECT_TRUE(std::isnan(trajectory.TimeToReach(0.05)));
}

TEST(Aggregate, GridAndBands) {
  Trajectory a, b;
  a.Add(1, 0.4);
  a.Add(5, 0.2);
  b.Add(2, 0.6);
  const auto series = Aggregate({a, b}, {1, 3, 6});
  ASSERT_EQ(series.times.size(), 3u);
  // t=1: only a defined.
  EXPECT_EQ(series.count[0], 1u);
  EXPECT_DOUBLE_EQ(series.mean[0], 0.4);
  // t=3: a=0.4, b=0.6.
  EXPECT_EQ(series.count[1], 2u);
  EXPECT_DOUBLE_EQ(series.mean[1], 0.5);
  EXPECT_DOUBLE_EQ(series.min[1], 0.4);
  EXPECT_DOUBLE_EQ(series.max[1], 0.6);
  // t=6: a=0.2, b=0.6.
  EXPECT_DOUBLE_EQ(series.mean[2], 0.4);
}

TEST(Aggregate, AllUndefinedYieldsNaN) {
  Trajectory a;
  a.Add(100, 0.5);
  const auto series = Aggregate({a}, {1});
  EXPECT_EQ(series.count[0], 0u);
  EXPECT_TRUE(std::isnan(series.mean[0]));
}

TEST(Aggregate, UniformGridExcludesZero) {
  const auto grid = UniformGrid(100, 4);
  EXPECT_EQ(grid, (std::vector<double>{25, 50, 75, 100}));
  EXPECT_THROW(UniformGrid(0, 4), CheckError);
}

TEST(Aggregate, MeanTimeToReach) {
  Trajectory a, b;
  a.Add(10, 0.1);
  b.Add(30, 0.1);
  EXPECT_DOUBLE_EQ(MeanTimeToReach({a, b}, 0.1), 20.0);
  EXPECT_TRUE(std::isnan(MeanTimeToReach({a, b}, 0.01)));
}

TEST(Experiment, RunsAndAggregates) {
  ExperimentOptions options;
  options.num_trials = 3;
  options.num_workers = 2;
  options.time_limit = 2000;
  options.grid_points = 8;
  // r = R/256 = 1 on the unit-time task.
  const auto result = RunExperiment(
      "unit_time", {"ASHA", "asha", {.eta = 4, .r_divisor = 256}}, options);
  EXPECT_EQ(result.method, "ASHA");
  EXPECT_EQ(result.trajectories.size(), 3u);
  EXPECT_EQ(result.series.times.size(), 8u);
  EXPECT_GT(result.mean_trials_evaluated, 10);
  EXPECT_GT(result.mean_worker_utilization, 0.8);
  // Final mean metric must be defined and sane for the unit benchmark.
  EXPECT_LT(result.series.mean.back(), 0.7);
  EXPECT_GE(result.series.mean.back(), 0.0);
}

TEST(Experiment, DeterministicAcrossCalls) {
  ExperimentOptions options;
  options.num_trials = 2;
  options.time_limit = 500;
  auto run = [&] {
    return RunExperiment("unit_time", {"Random", "random", {}}, options);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.series.mean.size(), b.series.mean.size());
  for (std::size_t i = 0; i < a.series.mean.size(); ++i) {
    if (std::isnan(a.series.mean[i])) {
      EXPECT_TRUE(std::isnan(b.series.mean[i]));
    } else {
      EXPECT_DOUBLE_EQ(a.series.mean[i], b.series.mean[i]);
    }
  }
}

TEST(Report, TablesRender) {
  MethodResult method;
  method.method = "ASHA";
  Trajectory trajectory;
  trajectory.Add(1, 0.5);
  trajectory.Add(2, 0.25);
  method.trajectories.push_back(trajectory);
  method.series = Aggregate(method.trajectories, {1, 2});
  method.mean_trials_evaluated = 12;

  const auto series_table = SeriesTable({method}, "minutes", "test error");
  EXPECT_EQ(series_table.NumRows(), 2u);
  EXPECT_NE(series_table.ToMarkdown().find("ASHA"), std::string::npos);

  const auto summary = SummaryTable({method}, "test error");
  EXPECT_NE(summary.ToMarkdown().find("0.2500"), std::string::npos);
}

TEST(Report, FormatMetricNaN) {
  EXPECT_EQ(FormatMetric(std::nan(""), 2), "-");
  EXPECT_EQ(FormatMetric(1.5, 2), "1.50");
}

TEST(Trajectory, TestMetricMappingUsesRunningBest) {
  // Build a fake driver result with two recommendations where the second
  // has a worse *test* metric; the trajectory must not regress.
  auto bench = benchmarks::UnitTime(1);
  TrialBank bank;
  Rng rng(1);
  const auto c0 = bench->space().Sample(rng);
  const auto c1 = bench->space().Sample(rng);
  const TrialId t0 = bank.Create(c0, 0);
  const TrialId t1 = bank.Create(c1, 0);
  DriverResult result;
  result.recommendations.push_back({1.0, t0, 0.5, 256});
  result.recommendations.push_back({2.0, t1, 0.4, 256});
  const auto trajectory = TestMetricTrajectory(result, bank, *bench);
  ASSERT_EQ(trajectory.size(), 2u);
  EXPECT_LE(trajectory.points()[1].second, trajectory.points()[0].second);
}

}  // namespace
}  // namespace hypertune
