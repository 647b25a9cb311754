#include "registry/registry.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "sim/driver.h"
#include "surrogate/benchmarks.h"

namespace hypertune {
namespace {

TEST(Registry, EveryListedTunerBuildsAndRuns) {
  for (const auto& name : TunerNames()) {
    auto bench = benchmarks::CifarArch(5);
    TunerParams params;
    params.n = 64;
    params.r_divisor = 64;
    params.grid_resolution = 2;
    auto tuner = MakeTunerByName(name, *bench, params);
    ASSERT_NE(tuner, nullptr) << name;

    DriverOptions options;
    options.num_workers = 4;
    options.time_limit = 2.0 * bench->MeanTimeOfR();
    SimulationDriver driver(*tuner, *bench, options);
    const auto result = driver.Run();
    EXPECT_GT(result.jobs_completed, 3u) << name;
    EXPECT_TRUE(tuner->Current().has_value()) << name;
  }
}

TEST(Registry, UnknownNameThrowsWithKnownList) {
  auto bench = benchmarks::UnitTime(1);
  try {
    MakeTunerByName("nope", *bench, {});
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    // The error message lists valid names for discoverability.
    EXPECT_NE(std::string(error.what()).find("asha"), std::string::npos);
  }
}

TEST(Registry, ParamsAreApplied) {
  auto bench = benchmarks::UnitTime(1);
  TunerParams params;
  params.eta = 2;
  params.s = 1;
  params.r_divisor = 16;
  auto tuner = MakeTunerByName("asha", *bench, params);
  const auto job = tuner->GetJob();
  ASSERT_TRUE(job.has_value());
  // r = 256/16 = 16; s=1 => bottom rung at r*eta = 32.
  EXPECT_DOUBLE_EQ(job->to_resource, 32);
  EXPECT_EQ(job->bracket, 1);
}

TEST(Registry, NonResumableBenchmarkDisablesResume) {
  auto bench = benchmarks::SvmVehicle(1);
  TunerParams params;
  params.n = 64;
  params.r_divisor = 64;
  auto tuner = MakeTunerByName("sha", *bench, params);
  // Drive one full rung to get a promotion job and check it retrains.
  std::vector<Job> jobs;
  for (int i = 0; i < 64; ++i) jobs.push_back(*tuner->GetJob());
  for (int i = 0; i < 64; ++i) {
    tuner->ReportResult(jobs[static_cast<std::size_t>(i)], 0.01 * i);
  }
  const auto promotion = tuner->GetJob();
  ASSERT_TRUE(promotion.has_value());
  EXPECT_GT(promotion->rung, 0);
  EXPECT_DOUBLE_EQ(promotion->from_resource, 0);  // full retrain
}

TEST(Registry, PbtNeverMutatesTheArchitecture) {
  auto bench = benchmarks::CifarArch(3);
  TunerParams params;
  params.population = 8;
  auto tuner = MakeTunerByName("pbt", *bench, params);
  for (int i = 0; i < 2000; ++i) {
    const auto job = tuner->GetJob();
    ASSERT_TRUE(job.has_value());
    // Distinct losses below random guessing: every step ranks the
    // population, and no initial draw is resampled.
    tuner->ReportResult(
        *job, 0.1 + 0.01 * static_cast<double>(job->trial_id % 17));
  }
  // A population's first `population` trials are its initial draws; every
  // later trial is an exploit/explore copy and must keep a donor's
  // architecture.
  using Arch = std::pair<std::int64_t, std::int64_t>;
  std::map<int, std::set<Arch>> initial;
  std::map<int, std::size_t> created;
  std::size_t explored = 0;
  for (const Trial& trial : tuner->trials()) {
    const Arch arch{trial.config.GetInt("num_layers"),
                    trial.config.GetInt("num_filters")};
    if (created[trial.bracket]++ < params.population) {
      initial[trial.bracket].insert(arch);
      continue;
    }
    ++explored;
    EXPECT_TRUE(initial[trial.bracket].contains(arch))
        << "trial " << trial.id << " has (" << arch.first << ", "
        << arch.second << ")";
  }
  EXPECT_GT(explored, 50u);
}

TEST(Registry, IntermediateVariantsRecommendAfterOneReport) {
  auto bench = benchmarks::UnitTime(1);
  TunerParams params;
  params.n = 16;
  params.r_divisor = 16;
  for (const std::string name : {"sha_intermediate", "hyperband_intermediate",
                                 "sha", "sha_by_bracket"}) {
    auto tuner = MakeTunerByName(name, *bench, params);
    const auto job = tuner->GetJob();
    ASSERT_TRUE(job.has_value()) << name;
    ASSERT_EQ(job->rung, 0) << name;
    tuner->ReportResult(*job, 0.5);
    EXPECT_EQ(tuner->Current().has_value(),
              name.ends_with("_intermediate"))
        << name;
  }
}

TEST(Registry, ByBracketShaWaitsPastACompletedRung) {
  auto bench = benchmarks::UnitTime(1);
  TunerParams params;
  params.n = 16;
  params.r_divisor = 16;
  for (const std::string name : {"sha", "sha_by_bracket"}) {
    auto tuner = MakeTunerByName(name, *bench, params);
    std::vector<Job> rung0;
    for (int i = 0; i < 16; ++i) rung0.push_back(*tuner->GetJob());
    for (const Job& job : rung0) {
      ASSERT_EQ(job.rung, 0) << name;
      ASSERT_EQ(job.bracket, rung0.front().bracket) << name;
      tuner->ReportResult(job, 0.01 * static_cast<double>(job.trial_id));
    }
    EXPECT_EQ(tuner->Current().has_value(), name == "sha") << name;
  }
}

TEST(Registry, InfiniteHorizonAshaPromotesPastR) {
  auto bench = benchmarks::UnitTime(1);
  TunerParams params;
  params.r_divisor = 4;  // rungs at 64, 256 = R, 1024, ...
  for (const std::string name : {"asha", "asha_infinite"}) {
    auto tuner = MakeTunerByName(name, *bench, params);
    double furthest = 0;
    for (int i = 0; i < 200; ++i) {
      const auto job = tuner->GetJob();
      if (!job.has_value()) break;
      furthest = std::max(furthest, job->to_resource);
      tuner->ReportResult(*job, 1.0 / static_cast<double>(2 + job->trial_id));
    }
    EXPECT_EQ(furthest > bench->R(), name == "asha_infinite")
        << name << " reached " << furthest;
  }
}

// SupportsSnapshot() is a promise of exact restore: every tuner that makes
// it, run, snapshotted through text and restored into a fresh instance,
// must issue the same job stream as the original. The rest must refuse.
TEST(Registry, SnapshotCapableTunersContinueIdentically) {
  auto bench = benchmarks::CifarArch(5);
  TunerParams params;
  params.n = 64;
  params.r_divisor = 64;
  const auto step = [&](Scheduler& tuner) {
    auto job = tuner.GetJob();
    if (job) {
      tuner.ReportResult(*job,
                         bench->TrueLoss(job->config, job->to_resource));
    }
    return job;
  };
  int capable = 0;
  for (const auto& name : TunerNames()) {
    auto original = MakeTunerByName(name, *bench, params);
    auto restored = MakeTunerByName(name, *bench, params);
    if (!original->SupportsSnapshot()) {
      EXPECT_THROW(original->Snapshot(), CheckError) << name;
      EXPECT_THROW(restored->Restore(Json(JsonObject{})), CheckError) << name;
      continue;
    }
    ++capable;
    for (int i = 0; i < 300; ++i) step(*original);
    restored->Restore(Json::Parse(original->Snapshot().Dump()));
    for (int i = 0; i < 100; ++i) {
      const auto a = step(*original);
      const auto b = step(*restored);
      if (a.has_value() != b.has_value() ||
          (a && (a->trial_id != b->trial_id || a->rung != b->rung ||
                 a->to_resource != b->to_resource || a->config != b->config))) {
        ADD_FAILURE() << name << " diverges at step " << i;
        break;
      }
    }
  }
  EXPECT_GE(capable, 6);
}

}  // namespace
}  // namespace hypertune
