// Edge cases and cross-cutting behaviours not covered by the per-module
// suites: degenerate bracket geometries, incumbent-policy orderings,
// GP subsampling paths, PBT population isolation.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/pbt.h"
#include "baselines/vizier.h"
#include "common/check.h"
#include "core/asha.h"
#include "core/geometry.h"
#include "core/random_search.h"
#include "core/sha.h"
#include "sim/driver.h"

namespace hypertune {
namespace {

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

class RankEnv final : public JobEnvironment {
 public:
  double Loss(const Configuration& config, Resource resource) override {
    (void)resource;
    return config.GetDouble("x");
  }
  double Duration(const Configuration&, Resource from, Resource to) override {
    return to - from;
  }
};

TEST(EdgeCases, SingleRungBracketWhenREqualsR0) {
  // r == R: s_max = 0, one rung; ASHA never promotes, every job trains the
  // full resource directly.
  AshaOptions options;
  options.r = 8;
  options.R = 8;
  options.eta = 4;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  for (int i = 0; i < 10; ++i) {
    const auto job = *asha.GetJob();
    EXPECT_EQ(job.rung, 0);
    EXPECT_DOUBLE_EQ(job.to_resource, 8);
    asha.ReportResult(job, 0.1 * i);
    EXPECT_EQ(asha.trials().Get(job.trial_id).status,
              TrialStatus::kCompleted);
  }
  EXPECT_EQ(asha.NumRungs(), 1u);
}

TEST(EdgeCases, NonPowerResourceRatioCapsTopRungAtR) {
  // R/r = 10 with eta=3: rungs at 1, 3, and exactly 10 (not 9).
  AshaOptions options;
  options.r = 1;
  options.R = 10;
  options.eta = 3;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  EXPECT_DOUBLE_EQ(asha.RungResource(0), 1);
  EXPECT_DOUBLE_EQ(asha.RungResource(1), 3);
  EXPECT_DOUBLE_EQ(asha.RungResource(2), 10);
}

TEST(EdgeCases, ShaSmallestValidBracket) {
  // n = eta^(s_max): exactly one configuration survives to the top.
  ShaOptions options;
  options.n = 4;
  options.r = 1;
  options.R = 4;
  options.eta = 2;
  options.spawn_new_brackets = false;
  SyncShaScheduler sha(MakeRandomSampler(UnitSpace()), options);
  RankEnv env;
  DriverOptions driver_options;
  driver_options.num_workers = 4;
  SimulationDriver driver(sha, env, driver_options);
  const auto result = driver.Run();
  EXPECT_TRUE(sha.Finished());
  EXPECT_EQ(result.jobs_completed, 4u + 2u + 1u);
}

TEST(EdgeCases, IncumbentPolicyOrderingOnIdenticalRuns) {
  // Same seed, three accounting policies: the first recommendation arrives
  // intermediate <= by-rung <= by-bracket, and the final recommendation is
  // identical.
  auto first_rec_time = [](IncumbentPolicy policy, double* final_loss) {
    ShaOptions options;
    options.n = 16;
    options.r = 1;
    options.R = 16;
    options.eta = 4;
    options.seed = 77;
    options.spawn_new_brackets = false;
    options.incumbent_policy = policy;
    SyncShaScheduler sha(MakeRandomSampler(UnitSpace()), options);
    RankEnv env;
    DriverOptions driver_options;
    driver_options.num_workers = 2;
    SimulationDriver driver(sha, env, driver_options);
    const auto result = driver.Run();
    *final_loss = sha.Current() ? sha.Current()->loss : -1;
    return result.recommendations.empty()
               ? 1e18
               : result.recommendations.front().time;
  };
  double final_intermediate = 0, final_rung = 0, final_bracket = 0;
  const double t_intermediate =
      first_rec_time(IncumbentPolicy::kIntermediate, &final_intermediate);
  const double t_rung = first_rec_time(IncumbentPolicy::kByRung, &final_rung);
  const double t_bracket =
      first_rec_time(IncumbentPolicy::kByBracket, &final_bracket);
  EXPECT_LE(t_intermediate, t_rung);
  EXPECT_LE(t_rung, t_bracket);
  // All policies converge to the same final recommendation on completion.
  EXPECT_DOUBLE_EQ(final_rung, final_bracket);
}

TEST(EdgeCases, VizierSubsamplingKeepsWorkingPastCap) {
  VizierOptions options;
  options.R = 1;
  options.num_initial_random = 5;
  options.refit_every = 3;
  options.max_gp_points = 10;  // force the best+recent subsampling path
  options.candidates_per_suggest = 16;
  VizierScheduler vizier(UnitSpace(), options);
  Rng rng(1);
  for (int i = 0; i < 60; ++i) {
    const auto job = *vizier.GetJob();
    vizier.ReportResult(job, job.config.GetDouble("x"));
  }
  EXPECT_EQ(vizier.NumCompleted(), 60u);
  ASSERT_TRUE(vizier.Current().has_value());
  EXPECT_LT(vizier.Current()->loss, 0.2);
}

TEST(EdgeCases, PbtPopulationsAreIsolated) {
  // Exploits must pick donors within the member's own population.
  PbtOptions options;
  options.population_size = 2;
  options.step_resource = 10;
  options.max_resource = 100;
  options.sync_window = 100;
  options.truncation_fraction = 0.5;
  options.spawn_new_populations = true;
  PbtScheduler pbt(UnitSpace(), options);
  // Start two populations.
  const auto a0 = *pbt.GetJob();
  const auto a1 = *pbt.GetJob();
  const auto b0 = *pbt.GetJob();
  const auto b1 = *pbt.GetJob();
  EXPECT_EQ(pbt.NumPopulations(), 2u);
  EXPECT_EQ(a0.bracket, 0);
  EXPECT_EQ(b0.bracket, 1);
  // Population 1's donors must come from population 1: make population 0
  // excellent and population 1's first member bad; its exploit (if any) can
  // only copy from the other population-1 member.
  pbt.ReportResult(a0, 0.01);
  pbt.ReportResult(a1, 0.02);
  pbt.ReportResult(b0, 0.5);
  const auto trials_before = pbt.trials().size();
  pbt.ReportResult(b1, 0.9);  // bottom of population 1 -> exploit b0
  if (pbt.trials().size() > trials_before) {
    const auto& new_trial =
        pbt.trials().Get(static_cast<TrialId>(pbt.trials().size() - 1));
    EXPECT_EQ(new_trial.bracket, 1);       // stayed in population 1
    EXPECT_DOUBLE_EQ(new_trial.resource_trained, 10);
  }
}

TEST(EdgeCases, AshaRejectsInvalidGeometry) {
  AshaOptions options;
  options.r = 10;
  options.R = 5;  // r > R
  EXPECT_THROW(AshaScheduler(MakeRandomSampler(UnitSpace()), options),
               CheckError);
  options = {};
  options.eta = 1.5;
  EXPECT_THROW(AshaScheduler(MakeRandomSampler(UnitSpace()), options),
               CheckError);
}

TEST(EdgeCases, DriverHandlesSchedulerWithNoWork) {
  // A scheduler that immediately has nothing: the driver must terminate.
  RandomSearchOptions options;
  options.R = 10;
  options.max_trials = 0;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  RankEnv env;
  SimulationDriver driver(scheduler, env, DriverOptions{});
  const auto result = driver.Run();
  EXPECT_EQ(result.jobs_completed, 0u);
  EXPECT_DOUBLE_EQ(result.end_time, 0.0);
}

// A report must name the job that is in flight for its trial. The scheduler
// rejects a forged job — one never issued — before it touches any state.
Job NeverIssued(const Job& issued) {
  Job forged = issued;
  forged.rung = issued.rung + 1;
  forged.from_resource = issued.to_resource;
  forged.to_resource = issued.to_resource * 3;
  return forged;
}

TEST(EdgeCases, AshaRejectsReportOfJobNeverIssued) {
  AshaOptions options;
  options.r = 1;
  options.R = 9;
  options.eta = 3;
  options.max_trials = 2;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  const Job j0 = *asha.GetJob();
  const Job j1 = *asha.GetJob();
  const Job forged = NeverIssued(j0);  // {trial 0, rung 1}
  EXPECT_THROW(asha.ReportResult(forged, 0.1), CheckError);
  EXPECT_THROW(asha.ReportLost(forged), CheckError);
  EXPECT_EQ(asha.rung(1).NumRecorded(), 0u);
  // Trial 1 is still out, so the scheduler is not finished.
  asha.ReportResult(j0, 0.5);
  EXPECT_FALSE(asha.Finished());
  asha.ReportResult(j1, 0.6);
  // A job reported twice is no longer in flight.
  EXPECT_THROW(asha.ReportResult(j1, 0.6), CheckError);
}

TEST(EdgeCases, ShaRejectsReportOfJobNeverIssued) {
  ShaOptions options;
  options.n = 9;
  options.r = 1;
  options.R = 9;
  options.eta = 3;
  SyncShaScheduler sha(MakeRandomSampler(UnitSpace()), options);
  const Job j0 = *sha.GetJob();
  const Job j1 = *sha.GetJob();
  EXPECT_THROW(sha.ReportResult(NeverIssued(j0), 0.1), CheckError);
  EXPECT_THROW(sha.ReportLost(NeverIssued(j0)), CheckError);
  Job wrong_trial = j1;
  wrong_trial.trial_id = 5;  // sampled into the cohort, never dispatched
  EXPECT_THROW(sha.ReportResult(wrong_trial, 0.1), CheckError);
  sha.ReportResult(j0, 0.5);
  sha.ReportLost(j1);
  EXPECT_THROW(sha.ReportLost(j1), CheckError);
}

TEST(EdgeCases, RandomSearchRejectsReportOfJobNeverIssued) {
  RandomSearchOptions options;
  options.R = 4;
  options.max_trials = 2;
  RandomSearchScheduler random(MakeRandomSampler(UnitSpace()), options);
  const Job j0 = *random.GetJob();
  const Job j1 = *random.GetJob();
  EXPECT_THROW(random.ReportResult(NeverIssued(j0), 0.1), CheckError);
  EXPECT_THROW(random.ReportLost(NeverIssued(j0)), CheckError);
  random.ReportResult(j0, 0.5);
  EXPECT_FALSE(random.Finished());  // trial 1 is still out
  random.ReportLost(j1);
  EXPECT_TRUE(random.Finished());
  EXPECT_THROW(random.ReportResult(j0, 0.5), CheckError);
}

}  // namespace
}  // namespace hypertune
