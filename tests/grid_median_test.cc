#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "baselines/median_rule.h"
#include "common/check.h"
#include "core/grid_search.h"
#include "core/sampler.h"
#include "sim/driver.h"

namespace hypertune {
namespace {

SearchSpace MixedSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0))
      .Add("n", Domain::Integer(1, 2))
      .Add("c", Domain::Choice({ParamValue{std::string{"a"}},
                                ParamValue{std::string{"b"}},
                                ParamValue{std::string{"c"}}}));
  return space;
}

TEST(GridSearch, GridSizeIsProductOfDims) {
  GridSearchOptions options;
  options.R = 10;
  options.resolution = 4;
  GridSearchScheduler grid(MixedSpace(), options);
  // 4 (continuous) * 2 (integer, cardinality-capped) * 3 (choices) = 24.
  EXPECT_EQ(grid.GridSize(), 24u);
}

TEST(GridSearch, EnumeratesDistinctPointsAndFinishes) {
  GridSearchOptions options;
  options.R = 10;
  options.resolution = 3;
  GridSearchScheduler grid(MixedSpace(), options);
  std::set<std::string> seen;
  while (auto job = grid.GetJob()) {
    seen.insert(job->config.ToString());
    EXPECT_DOUBLE_EQ(job->to_resource, 10);
    grid.ReportResult(*job, 0.5);
  }
  EXPECT_EQ(seen.size(), grid.GridSize());
  EXPECT_TRUE(grid.Finished());
}

TEST(GridSearch, IncumbentIsBestGridPoint) {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  GridSearchOptions options;
  options.R = 1;
  options.resolution = 8;
  GridSearchScheduler grid(space, options);
  while (auto job = grid.GetJob()) {
    const double x = job->config.GetDouble("x");
    grid.ReportResult(*job, std::abs(x - 0.45));
  }
  ASSERT_TRUE(grid.Current().has_value());
  const auto& best = grid.trials().Get(grid.Current()->trial_id).config;
  EXPECT_NEAR(best.GetDouble("x"), 0.45, 1.0 / 8);
}

TEST(GridSearch, LostJobsDoNotBlockCompletion) {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  GridSearchOptions options;
  options.R = 1;
  options.resolution = 4;
  GridSearchScheduler grid(space, options);
  int i = 0;
  while (auto job = grid.GetJob()) {
    if (i++ % 2 == 0) {
      grid.ReportLost(*job);
    } else {
      grid.ReportResult(*job, 0.3);
    }
  }
  EXPECT_TRUE(grid.Finished());
}

GridSearchScheduler UnitGrid(std::size_t resolution) {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  GridSearchOptions options;
  options.R = 1;
  options.resolution = resolution;
  return GridSearchScheduler(space, options);
}

TEST(GridSearch, RejectsDuplicateForgedAndAfterLossReports) {
  GridSearchScheduler grid = UnitGrid(3);
  const Job first = *grid.GetJob();
  const Job second = *grid.GetJob();
  grid.ReportResult(first, 0.5);
  EXPECT_THROW(grid.ReportResult(first, 0.4), CheckError);  // duplicate
  EXPECT_THROW(grid.ReportLost(first), CheckError);
  Job forged = second;
  forged.trial_id = 99;  // never issued
  EXPECT_THROW(grid.ReportResult(forged, 0.1), CheckError);
  forged = second;
  forged.to_resource = 2;  // not the job issued for this trial
  EXPECT_THROW(grid.ReportResult(forged, 0.1), CheckError);
  grid.ReportLost(second);
  EXPECT_THROW(grid.ReportResult(second, 0.2), CheckError);  // after loss
  EXPECT_THROW(grid.ReportLost(second), CheckError);
}

TEST(GridSearch, NotFinishedWhileAJobIsOut) {
  GridSearchScheduler grid = UnitGrid(2);
  const Job first = *grid.GetJob();
  const Job second = *grid.GetJob();
  EXPECT_FALSE(grid.GetJob().has_value());  // grid exhausted
  grid.ReportResult(first, 0.5);
  EXPECT_THROW(grid.ReportResult(first, 0.5), CheckError);
  EXPECT_FALSE(grid.Finished());  // the second job is still out
  grid.ReportResult(second, 0.4);
  EXPECT_TRUE(grid.Finished());
}

// ---------------------------------------------------------- median rule

std::shared_ptr<ConfigSampler> UnitSampler() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return MakeRandomSampler(space);
}

MedianRuleOptions SmallMedianOptions() {
  MedianRuleOptions options;
  options.R = 40;
  options.step_resource = 10;
  options.grace_steps = 1;
  options.min_cohort = 2;
  return options;
}

TEST(MedianRule, TrialsProgressInSteps) {
  MedianRuleScheduler tuner(UnitSampler(), SmallMedianOptions());
  const auto j0 = *tuner.GetJob();
  EXPECT_DOUBLE_EQ(j0.from_resource, 0);
  EXPECT_DOUBLE_EQ(j0.to_resource, 10);
  tuner.ReportResult(j0, 0.5);
  // Same trial resumes before any new trial starts.
  const auto j1 = *tuner.GetJob();
  EXPECT_EQ(j1.trial_id, j0.trial_id);
  EXPECT_DOUBLE_EQ(j1.from_resource, 10);
  EXPECT_DOUBLE_EQ(j1.to_resource, 20);
}

TEST(MedianRule, StopsTrialsWorseThanCohortMedian) {
  auto options = SmallMedianOptions();
  options.max_trials = 6;
  MedianRuleScheduler tuner(UnitSampler(), options);
  // Drive to completion: trials get losses by id — trial k has loss 0.1*k
  // at every step, so later trials fall below the median and are pruned.
  int guard = 0;
  while (!tuner.Finished() && guard++ < 200) {
    const auto job = tuner.GetJob();
    if (!job) break;
    tuner.ReportResult(*job, 0.1 * static_cast<double>(job->trial_id + 1));
  }
  EXPECT_TRUE(tuner.Finished());
  EXPECT_GT(tuner.NumStopped(), 0u);
  // The best trial is never stopped and completes R.
  EXPECT_EQ(tuner.trials().Get(0).status, TrialStatus::kCompleted);
  ASSERT_TRUE(tuner.Current().has_value());
  EXPECT_EQ(tuner.Current()->trial_id, 0);
  // Stopped trials consumed less than R.
  bool some_partial = false;
  for (const auto& trial : tuner.trials()) {
    if (trial.status == TrialStatus::kStopped) {
      EXPECT_LT(trial.resource_trained, options.R);
      some_partial = true;
    }
  }
  EXPECT_TRUE(some_partial);
}

TEST(MedianRule, GraceStepsProtectYoungTrials) {
  auto options = SmallMedianOptions();
  options.grace_steps = 4;  // = R / step: never stopped before completion
  options.max_trials = 5;
  MedianRuleScheduler tuner(UnitSampler(), options);
  int guard = 0;
  while (!tuner.Finished() && guard++ < 200) {
    const auto job = tuner.GetJob();
    if (!job) break;
    tuner.ReportResult(*job, 0.1 * static_cast<double>(job->trial_id + 1));
  }
  EXPECT_EQ(tuner.NumStopped(), 0u);
}

TEST(MedianRule, LostJobRetiresTrial) {
  MedianRuleScheduler tuner(UnitSampler(), SmallMedianOptions());
  const auto j0 = *tuner.GetJob();
  tuner.ReportLost(j0);
  EXPECT_EQ(tuner.trials().Get(j0.trial_id).status, TrialStatus::kLost);
  // Next job is a fresh trial, not a resume of the lost one.
  const auto j1 = *tuner.GetJob();
  EXPECT_NE(j1.trial_id, j0.trial_id);
}

TEST(MedianRule, PrunesMoreUnderParallelism) {
  // With the simulator and several workers, the rule still works and stops
  // a meaningful share of trials on a separable landscape.
  class Env final : public JobEnvironment {
   public:
    double Loss(const Configuration& config, Resource resource) override {
      return config.GetDouble("x") + 1.0 / (1.0 + resource);
    }
    double Duration(const Configuration&, Resource from,
                    Resource to) override {
      return to - from;
    }
  };
  auto options = SmallMedianOptions();
  options.min_cohort = 5;
  MedianRuleScheduler tuner(UnitSampler(), options);
  Env env;
  DriverOptions driver_options;
  driver_options.num_workers = 8;
  driver_options.time_limit = 2000;
  SimulationDriver driver(tuner, env, driver_options);
  const auto result = driver.Run();
  EXPECT_GT(result.jobs_completed, 100u);
  EXPECT_GT(tuner.NumStopped(), 10u);
}

TEST(MedianRule, OptionValidation) {
  auto options = SmallMedianOptions();
  options.step_resource = 0;
  EXPECT_THROW(MedianRuleScheduler(UnitSampler(), options), CheckError);
  options = SmallMedianOptions();
  options.min_cohort = 1;
  EXPECT_THROW(MedianRuleScheduler(UnitSampler(), options), CheckError);
}

}  // namespace
}  // namespace hypertune
