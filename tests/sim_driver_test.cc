#include "sim/driver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/asha.h"
#include "core/random_search.h"
#include "core/sha.h"
#include "lifecycle/hazards.h"

namespace hypertune {
namespace {

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

/// Loss = the config's x value; duration = resource increment.
class LinearEnv final : public JobEnvironment {
 public:
  double Loss(const Configuration& config, Resource resource) override {
    (void)resource;
    return config.GetDouble("x");
  }
  double Duration(const Configuration& config, Resource from,
                  Resource to) override {
    (void)config;
    return to - from;
  }
};

TEST(Hazards, NoHazardsIdentity) {
  const HazardModel model({});
  Rng rng(1);
  EXPECT_DOUBLE_EQ(model.StragglerMultiplier(rng), 1.0);
  EXPECT_FALSE(model.DropTime(100.0, rng).has_value());
}

TEST(Hazards, StragglerMultiplierAtLeastOne) {
  HazardOptions options;
  options.straggler_std = 1.0;
  const HazardModel model(options);
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double m = model.StragglerMultiplier(rng);
    ASSERT_GE(m, 1.0);
    sum += m;
  }
  // E[1 + |z|] = 1 + sqrt(2/pi) for std 1.
  EXPECT_NEAR(sum / 10000, 1.0 + std::sqrt(2.0 / M_PI), 0.02);
}

TEST(Hazards, DropProbabilityMatchesPerUnitModel) {
  HazardOptions options;
  options.drop_probability = 0.01;
  const HazardModel model(options);
  Rng rng(3);
  int dropped = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) dropped += model.DropTime(50.0, rng).has_value();
  // Survival of a 50-unit job: (1 - 0.01)^50 ~ 0.605.
  EXPECT_NEAR(static_cast<double>(dropped) / n, 1.0 - std::pow(0.99, 50),
              0.015);
}

TEST(Hazards, DropTimeWithinDuration) {
  HazardOptions options;
  options.drop_probability = 0.05;
  const HazardModel model(options);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const auto t = model.DropTime(20.0, rng);
    if (t) {
      EXPECT_GT(*t, 0.0);
      EXPECT_LT(*t, 20.0);
    }
  }
}

TEST(Hazards, OptionValidation) {
  HazardOptions options;
  options.drop_probability = 1.0;
  EXPECT_THROW(HazardModel{options}, CheckError);
  options.drop_probability = 0;
  options.straggler_std = -1;
  EXPECT_THROW(HazardModel{options}, CheckError);
}

TEST(Driver, SingleWorkerSequentialTimes) {
  RandomSearchOptions rs_options;
  rs_options.R = 10;
  rs_options.max_trials = 5;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), rs_options);
  LinearEnv env;
  DriverOptions options;
  options.num_workers = 1;
  SimulationDriver driver(scheduler, env, options);
  const auto result = driver.Run();
  ASSERT_EQ(result.completions.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(result.completions[i].end_time, 10.0 * (i + 1));
  }
  EXPECT_DOUBLE_EQ(result.end_time, 50.0);
  EXPECT_DOUBLE_EQ(result.busy_time, 50.0);
  EXPECT_EQ(result.jobs_completed, 5u);
}

TEST(Driver, ParallelWorkersOverlap) {
  RandomSearchOptions rs_options;
  rs_options.R = 10;
  rs_options.max_trials = 6;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), rs_options);
  LinearEnv env;
  DriverOptions options;
  options.num_workers = 3;
  SimulationDriver driver(scheduler, env, options);
  const auto result = driver.Run();
  // 6 identical 10-unit jobs on 3 workers: two waves, end at t=20.
  EXPECT_EQ(result.jobs_completed, 6u);
  EXPECT_DOUBLE_EQ(result.end_time, 20.0);
  EXPECT_DOUBLE_EQ(result.busy_time, 60.0);
}

TEST(Driver, TimeLimitCutsOff) {
  RandomSearchOptions rs_options;
  rs_options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), rs_options);
  LinearEnv env;
  DriverOptions options;
  options.num_workers = 1;
  options.time_limit = 35;
  SimulationDriver driver(scheduler, env, options);
  const auto result = driver.Run();
  EXPECT_EQ(result.jobs_completed, 3u);  // 10, 20, 30; the 4th would end at 40
  EXPECT_LE(result.end_time, 35.0);
}

TEST(Driver, RecommendationsRecordedOnChange) {
  RandomSearchOptions rs_options;
  rs_options.R = 10;
  rs_options.max_trials = 20;
  rs_options.seed = 9;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), rs_options);
  LinearEnv env;
  DriverOptions options;
  SimulationDriver driver(scheduler, env, options);
  const auto result = driver.Run();
  ASSERT_FALSE(result.recommendations.empty());
  // Recommendation losses only improve.
  for (std::size_t i = 1; i < result.recommendations.size(); ++i) {
    EXPECT_LT(result.recommendations[i].loss,
              result.recommendations[i - 1].loss);
  }
  // Fewer recommendation points than completions (only changes recorded).
  EXPECT_LE(result.recommendations.size(), result.completions.size());
}

TEST(Driver, DropsAreReportedLost) {
  RandomSearchOptions rs_options;
  rs_options.R = 100;
  rs_options.max_trials = 50;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), rs_options);
  LinearEnv env;
  DriverOptions options;
  options.num_workers = 5;
  options.hazards.drop_probability = 0.02;  // ~87% of 100-unit jobs drop
  SimulationDriver driver(scheduler, env, options);
  const auto result = driver.Run();
  EXPECT_GT(result.jobs_dropped, 20u);
  EXPECT_EQ(result.jobs_completed + result.jobs_dropped, 50u);
  std::size_t lost = 0;
  for (const auto& trial : scheduler.trials()) {
    lost += trial.status == TrialStatus::kLost;
  }
  EXPECT_EQ(lost, result.jobs_dropped);
}

TEST(Driver, DeterministicAcrossRuns) {
  auto run_once = [] {
    RandomSearchOptions rs_options;
    rs_options.R = 10;
    rs_options.max_trials = 30;
    RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()),
                                    rs_options);
    LinearEnv env;
    DriverOptions options;
    options.num_workers = 4;
    options.hazards.straggler_std = 0.5;
    options.hazards.drop_probability = 0.001;
    SimulationDriver driver(scheduler, env, options);
    return driver.Run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.completions[i].end_time, b.completions[i].end_time);
    EXPECT_EQ(a.completions[i].trial_id, b.completions[i].trial_id);
    EXPECT_EQ(a.completions[i].lost, b.completions[i].lost);
  }
}

TEST(Driver, ReusedSimContextMatchesFreshRuns) {
  // The sweep engine's hot path: one SimContext carried across studies with
  // different fleet sizes (shrinking and growing the reused storage) must
  // replay each study exactly as a cold context would.
  auto run = [](SimContext* context, int workers) {
    RandomSearchOptions rs_options;
    rs_options.R = 10;
    rs_options.max_trials = 40;
    RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()),
                                    rs_options);
    LinearEnv env;
    DriverOptions options;
    options.num_workers = workers;
    options.hazards.straggler_std = 0.5;
    options.hazards.drop_probability = 0.001;
    SimulationDriver driver(scheduler, env, options);
    return context != nullptr ? driver.Run(*context) : driver.Run();
  };
  SimContext context;
  for (const int workers : {7, 3, 16}) {
    const auto fresh = run(nullptr, workers);
    const auto reused = run(&context, workers);
    EXPECT_DOUBLE_EQ(fresh.end_time, reused.end_time);
    EXPECT_EQ(fresh.jobs_completed, reused.jobs_completed);
    EXPECT_EQ(fresh.jobs_dropped, reused.jobs_dropped);
    ASSERT_EQ(fresh.completions.size(), reused.completions.size());
    for (std::size_t i = 0; i < fresh.completions.size(); ++i) {
      EXPECT_DOUBLE_EQ(fresh.completions[i].end_time,
                       reused.completions[i].end_time);
      EXPECT_EQ(fresh.completions[i].trial_id, reused.completions[i].trial_id);
      EXPECT_EQ(fresh.completions[i].lost, reused.completions[i].lost);
    }
  }
}

TEST(Driver, StragglersDelaySyncShaMoreThanAsha) {
  // Appendix A.1 in miniature: time until the first configuration is
  // trained to R, with heavy stragglers and ample workers (the large-scale
  // regime). Synchronous SHA waits out the slowest job of every rung;
  // ASHA promotes as soon as results allow.
  auto first_full_completion = [](Scheduler& scheduler) {
    LinearEnv env;
    DriverOptions options;
    options.num_workers = 64;
    options.hazards.straggler_std = 1.5;
    options.time_limit = 1500;
    SimulationDriver driver(scheduler, env, options);
    const auto result = driver.Run();
    for (const auto& completion : result.completions) {
      if (!completion.lost && completion.to_resource >= 81.0) {
        return completion.end_time;
      }
    }
    return options.time_limit * 2;  // never
  };

  AshaOptions asha_options;
  asha_options.r = 1;
  asha_options.R = 81;
  asha_options.eta = 3;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), asha_options);

  ShaOptions sha_options;
  sha_options.n = 81;
  sha_options.r = 1;
  sha_options.R = 81;
  sha_options.eta = 3;
  SyncShaScheduler sha(MakeRandomSampler(UnitSpace()), sha_options);

  EXPECT_LE(first_full_completion(asha), first_full_completion(sha));
}

TEST(Driver, WorkerConservation) {
  // Busy time can never exceed workers * end_time.
  AshaOptions asha_options;
  asha_options.r = 1;
  asha_options.R = 27;
  asha_options.eta = 3;
  AshaScheduler scheduler(MakeRandomSampler(UnitSpace()), asha_options);
  LinearEnv env;
  DriverOptions options;
  options.num_workers = 4;
  options.time_limit = 500;
  SimulationDriver driver(scheduler, env, options);
  const auto result = driver.Run();
  EXPECT_LE(result.busy_time,
            4.0 * result.end_time + 1e-9);
  EXPECT_GT(result.jobs_completed, 10u);
}

TEST(Driver, MaxCompletedJobsStops) {
  RandomSearchOptions rs_options;
  rs_options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), rs_options);
  LinearEnv env;
  DriverOptions options;
  options.max_completed_jobs = 7;
  SimulationDriver driver(scheduler, env, options);
  const auto result = driver.Run();
  EXPECT_EQ(result.jobs_completed, 7u);
}

TEST(Driver, OptionValidation) {
  RandomSearchOptions rs_options;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), rs_options);
  LinearEnv env;
  DriverOptions options;
  options.num_workers = 0;
  EXPECT_THROW(SimulationDriver(scheduler, env, options), CheckError);
}

}  // namespace
}  // namespace hypertune
