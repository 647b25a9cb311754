// Snapshot/restore: the whole scheduler family as crash-tolerant tuning
// services. Every scheduler that claims SupportsSnapshot() gets the same
// continuation-identity property test: run it, snapshot, restore into a
// fresh instance, and require both to produce byte-identical futures.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "core/asha.h"
#include "core/async_hyperband.h"
#include "core/hyperband.h"
#include "core/random_search.h"
#include "core/sha.h"
#include "core/trial_json.h"
#include "lifecycle/hazards.h"
#include "lifecycle/lifecycle.h"
#include "registry/registry.h"
#include "service/server.h"

namespace hypertune {
namespace {

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

AshaOptions ToyOptions() {
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  options.seed = 17;
  return options;
}

/// Deterministic per-trial loss (rank by configuration value).
double LossFor(const AshaScheduler& asha, const Job& job) {
  return asha.trials().Get(job.trial_id).config.GetDouble("x") *
         (1.0 + 1.0 / job.to_resource);
}

TEST(Snapshot, RestoredSchedulerContinuesIdentically) {
  AshaScheduler original(MakeRandomSampler(UnitSpace()), ToyOptions());
  // Run 40 synchronous steps.
  for (int step = 0; step < 40; ++step) {
    const auto job = *original.GetJob();
    original.ReportResult(job, LossFor(original, job));
  }
  const Json snapshot = original.Snapshot();

  AshaScheduler restored(MakeRandomSampler(UnitSpace()), ToyOptions());
  restored.Restore(snapshot);

  EXPECT_EQ(restored.trials().size(), original.trials().size());
  EXPECT_EQ(restored.NumTrialsCreated(), original.NumTrialsCreated());
  EXPECT_DOUBLE_EQ(restored.ResourceDispatched(),
                   original.ResourceDispatched());
  ASSERT_TRUE(restored.Current().has_value());
  EXPECT_EQ(restored.Current()->trial_id, original.Current()->trial_id);

  // Both schedulers now produce identical futures.
  for (int step = 0; step < 60; ++step) {
    const auto job_a = *original.GetJob();
    const auto job_b = *restored.GetJob();
    EXPECT_EQ(job_a.trial_id, job_b.trial_id) << "step " << step;
    EXPECT_EQ(job_a.rung, job_b.rung) << "step " << step;
    EXPECT_EQ(job_a.config, job_b.config) << "step " << step;
    original.ReportResult(job_a, LossFor(original, job_a));
    restored.ReportResult(job_b, LossFor(restored, job_b));
  }
}

TEST(Snapshot, SurvivesJsonTextRoundTrip) {
  AshaScheduler original(MakeRandomSampler(UnitSpace()), ToyOptions());
  for (int step = 0; step < 25; ++step) {
    const auto job = *original.GetJob();
    original.ReportResult(job, LossFor(original, job));
  }
  // Through text — what a service would write to disk.
  const std::string text = original.Snapshot().Dump(2);
  AshaScheduler restored(MakeRandomSampler(UnitSpace()), ToyOptions());
  restored.Restore(Json::Parse(text));
  const auto job_a = *original.GetJob();
  const auto job_b = *restored.GetJob();
  EXPECT_EQ(job_a.trial_id, job_b.trial_id);
  EXPECT_EQ(job_a.config, job_b.config);
}

TEST(Snapshot, InFlightJobsBecomeLostOnRestore) {
  AshaScheduler original(MakeRandomSampler(UnitSpace()), ToyOptions());
  const auto j0 = *original.GetJob();
  original.ReportResult(j0, 0.4);
  const auto in_flight = *original.GetJob();  // never reported
  const Json snapshot = original.Snapshot();

  AshaScheduler restored(MakeRandomSampler(UnitSpace()), ToyOptions());
  restored.Restore(snapshot);
  EXPECT_EQ(restored.trials().Get(in_flight.trial_id).status,
            TrialStatus::kLost);
  EXPECT_EQ(restored.trials().Get(j0.trial_id).status, TrialStatus::kPaused);
  // The restored scheduler keeps working.
  EXPECT_TRUE(restored.GetJob().has_value());
}

TEST(Snapshot, RestoreRejectsUsedScheduler) {
  AshaScheduler original(MakeRandomSampler(UnitSpace()), ToyOptions());
  const auto job = *original.GetJob();
  original.ReportResult(job, 0.5);
  const Json snapshot = original.Snapshot();
  // `original` already has trials: restoring into it must fail.
  EXPECT_THROW(original.Restore(snapshot), CheckError);
}

TEST(Snapshot, RestoreRejectsMismatchedBracket) {
  AshaScheduler original(MakeRandomSampler(UnitSpace()), ToyOptions());
  const auto job = *original.GetJob();
  original.ReportResult(job, 0.5);
  const Json snapshot = original.Snapshot();

  auto other_options = ToyOptions();
  other_options.eta = 4;  // different bracket shape
  AshaScheduler other(MakeRandomSampler(UnitSpace()), other_options);
  EXPECT_THROW(other.Restore(snapshot), CheckError);
}

TEST(Snapshot, IdentityCheckComparesNumbersByValue) {
  AshaScheduler original(MakeRandomSampler(UnitSpace()), ToyOptions());
  const auto job = *original.GetJob();
  original.ReportResult(job, 0.5);
  // A writer that types R = 27 as an integer describes the same bracket.
  std::string text = original.Snapshot().Dump();
  const std::string as_double = "\"R\":27.0";
  ASSERT_NE(text.find(as_double), std::string::npos);
  text.replace(text.find(as_double), as_double.size(), "\"R\":27");
  AshaScheduler restored(MakeRandomSampler(UnitSpace()), ToyOptions());
  restored.Restore(Json::Parse(text));
  EXPECT_EQ(restored.trials().size(), original.trials().size());
}

TEST(Snapshot, PromotionStateSurvives) {
  AshaScheduler original(MakeRandomSampler(UnitSpace()), ToyOptions());
  // Create three results so one promotion becomes available, take it.
  std::vector<Job> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(*original.GetJob());
  original.ReportResult(jobs[0], 0.1);
  original.ReportResult(jobs[1], 0.2);
  original.ReportResult(jobs[2], 0.3);
  const auto promotion = *original.GetJob();
  ASSERT_EQ(promotion.rung, 1);
  original.ReportResult(promotion, 0.05);

  AshaScheduler restored(MakeRandomSampler(UnitSpace()), ToyOptions());
  restored.Restore(original.Snapshot());
  // Trial 0 is already promoted out of rung 0: the restored scheduler must
  // not promote it again.
  const auto next = *restored.GetJob();
  EXPECT_FALSE(next.rung == 1 && next.trial_id == promotion.trial_id);
  EXPECT_TRUE(restored.rung(0).IsPromoted(promotion.trial_id));
  EXPECT_EQ(restored.rung(1).NumRecorded(), 1u);
}

TEST(Snapshot, InfiniteHorizonRoundTrip) {
  auto options = ToyOptions();
  options.infinite_horizon = true;
  AshaScheduler original(MakeRandomSampler(UnitSpace()), options);
  std::map<TrialId, double> losses;
  for (int step = 0; step < 50; ++step) {
    const auto job = *original.GetJob();
    const double loss = losses.contains(job.trial_id)
                            ? losses[job.trial_id] * 0.9
                            : 0.5 + 0.001 * static_cast<double>(job.trial_id);
    losses[job.trial_id] = loss;
    original.ReportResult(job, loss);
  }
  AshaScheduler restored(MakeRandomSampler(UnitSpace()), options);
  restored.Restore(original.Snapshot());
  EXPECT_EQ(restored.NumRungs(), original.NumRungs());
  const auto job_a = *original.GetJob();
  const auto job_b = *restored.GetJob();
  EXPECT_EQ(job_a.trial_id, job_b.trial_id);
  EXPECT_EQ(job_a.rung, job_b.rung);
}

// ---------------------------------------------------------------------------
// Family-wide continuation identity: any SupportsSnapshot scheduler, run for
// `warm_steps` synchronous steps, snapshotted, and restored into a fresh
// instance, must produce the same job sequence as the original for
// `check_steps` more steps.

double FamilyLoss(const Scheduler& scheduler, const Job& job) {
  return scheduler.trials().Get(job.trial_id).config.GetDouble("x") *
         (1.0 + 1.0 / job.to_resource);
}

void ExpectContinuationIdentity(
    const std::function<std::unique_ptr<Scheduler>()>& make, int warm_steps,
    int check_steps) {
  auto original = make();
  ASSERT_TRUE(original->SupportsSnapshot());
  for (int step = 0; step < warm_steps; ++step) {
    const auto job = original->GetJob();
    if (!job) break;
    original->ReportResult(*job, FamilyLoss(*original, *job));
  }
  auto restored = make();
  // Through text, like the durable server's snapshot files.
  restored->Restore(Json::Parse(original->Snapshot().Dump()));

  EXPECT_EQ(restored->trials().size(), original->trials().size());
  EXPECT_EQ(restored->Current().has_value(), original->Current().has_value());
  if (original->Current()) {
    EXPECT_EQ(restored->Current()->trial_id, original->Current()->trial_id);
  }
  for (int step = 0; step < check_steps; ++step) {
    const auto job_a = original->GetJob();
    const auto job_b = restored->GetJob();
    ASSERT_EQ(job_a.has_value(), job_b.has_value()) << "step " << step;
    if (!job_a) break;
    EXPECT_EQ(job_a->trial_id, job_b->trial_id) << "step " << step;
    EXPECT_EQ(job_a->rung, job_b->rung) << "step " << step;
    EXPECT_EQ(job_a->config, job_b->config) << "step " << step;
    original->ReportResult(*job_a, FamilyLoss(*original, *job_a));
    restored->ReportResult(*job_b, FamilyLoss(*restored, *job_b));
  }
  EXPECT_EQ(restored->Finished(), original->Finished());
}

TEST(SnapshotFamily, SyncShaContinuesIdentically) {
  ExpectContinuationIdentity(
      []() -> std::unique_ptr<Scheduler> {
        ShaOptions options;
        options.n = 9;
        options.r = 1;
        options.R = 9;
        options.eta = 3;
        options.seed = 11;
        return std::make_unique<SyncShaScheduler>(
            MakeRandomSampler(UnitSpace()), options);
      },
      /*warm_steps=*/20, /*check_steps=*/30);
}

TEST(SnapshotFamily, SingleBracketShaContinuesIdentically) {
  ExpectContinuationIdentity(
      []() -> std::unique_ptr<Scheduler> {
        ShaOptions options;
        options.n = 9;
        options.r = 1;
        options.R = 9;
        options.eta = 3;
        options.spawn_new_brackets = false;
        options.seed = 11;
        return std::make_unique<SyncShaScheduler>(
            MakeRandomSampler(UnitSpace()), options);
      },
      /*warm_steps=*/7, /*check_steps=*/20);
}

TEST(SnapshotFamily, HyperbandContinuesIdentically) {
  ExpectContinuationIdentity(
      []() -> std::unique_ptr<Scheduler> {
        HyperbandOptions options;
        options.n0 = 9;
        options.r = 1;
        options.R = 9;
        options.eta = 3;
        options.seed = 7;
        return std::make_unique<HyperbandScheduler>(
            MakeRandomSampler(UnitSpace()), options);
      },
      /*warm_steps=*/35, /*check_steps=*/40);
}

TEST(SnapshotFamily, AsyncHyperbandContinuesIdentically) {
  ExpectContinuationIdentity(
      []() -> std::unique_ptr<Scheduler> {
        AsyncHyperbandOptions options;
        options.n0 = 9;
        options.r = 1;
        options.R = 9;
        options.eta = 3;
        options.seed = 7;
        return std::make_unique<AsyncHyperbandScheduler>(
            MakeRandomSampler(UnitSpace()), options);
      },
      /*warm_steps=*/30, /*check_steps=*/40);
}

TEST(SnapshotFamily, RandomSearchContinuesIdentically) {
  ExpectContinuationIdentity(
      []() -> std::unique_ptr<Scheduler> {
        RandomSearchOptions options;
        options.R = 4;
        options.max_trials = 50;
        options.seed = 23;
        return std::make_unique<RandomSearchScheduler>(
            MakeRandomSampler(UnitSpace()), options);
      },
      /*warm_steps=*/15, /*check_steps=*/40);
}

TEST(SnapshotFamily, ShaInFlightJobsBecomeLostOnRestore) {
  ShaOptions options;
  options.n = 9;
  options.r = 1;
  options.R = 9;
  options.eta = 3;
  options.seed = 11;
  SyncShaScheduler original(MakeRandomSampler(UnitSpace()), options);
  const auto reported = *original.GetJob();
  original.ReportResult(reported, 0.4);
  const auto in_flight = *original.GetJob();  // crashes with the worker

  SyncShaScheduler restored(MakeRandomSampler(UnitSpace()), options);
  restored.Restore(original.Snapshot());  // default policy: drop in-flight
  EXPECT_EQ(restored.trials().Get(in_flight.trial_id).status,
            TrialStatus::kLost);
  // The dropped job settles through ReportLost, so the bracket keeps
  // making progress instead of waiting on a ghost.
  EXPECT_TRUE(restored.GetJob().has_value());
}

TEST(SnapshotFamily, KeepInFlightPreservesOpenJobs) {
  AshaScheduler original(MakeRandomSampler(UnitSpace()), ToyOptions());
  const auto in_flight = *original.GetJob();
  const Json snapshot = original.Snapshot();

  AshaScheduler restored(MakeRandomSampler(UnitSpace()), ToyOptions());
  restored.Restore(snapshot, RestorePolicy::kKeepInFlight);
  // The lease survives on paper: the trial is still running and its
  // eventual report is accepted exactly as the original would accept it.
  EXPECT_EQ(restored.trials().Get(in_flight.trial_id).status,
            TrialStatus::kRunning);
  restored.ReportResult(in_flight, 0.3);
  original.ReportResult(in_flight, 0.3);
  const auto job_a = *original.GetJob();
  const auto job_b = *restored.GetJob();
  EXPECT_EQ(job_a.trial_id, job_b.trial_id);
  EXPECT_EQ(job_a.config, job_b.config);
}

TEST(SnapshotFamily, LifecycleRoundTripsRecordsAndLeases) {
  AshaScheduler scheduler_a(MakeRandomSampler(UnitSpace()), ToyOptions());
  TrialLifecycle lifecycle_a(
      scheduler_a, LifecycleOptions{.track_recommendations = true});
  const auto lease1 = *lifecycle_a.Acquire();
  lifecycle_a.Complete(lease1, 0.3, RunTiming{0, 1, 0, 0});
  const auto lease2 = *lifecycle_a.Acquire();  // left open across the crash

  AshaScheduler scheduler_b(MakeRandomSampler(UnitSpace()), ToyOptions());
  scheduler_b.Restore(scheduler_a.Snapshot(), RestorePolicy::kKeepInFlight);
  TrialLifecycle lifecycle_b(
      scheduler_b, LifecycleOptions{.track_recommendations = true});
  lifecycle_b.Restore(Json::Parse(lifecycle_a.Snapshot().Dump()));

  ASSERT_EQ(lifecycle_b.records().size(), 1u);
  EXPECT_EQ(lifecycle_b.records()[0].trial_id, lease1.job.trial_id);
  EXPECT_EQ(lifecycle_b.records()[0].lease_id, lease1.lease_id);
  EXPECT_EQ(lifecycle_b.pending_leases(), 1u);
  EXPECT_EQ(lifecycle_b.completed_jobs(), 1u);
  EXPECT_EQ(lifecycle_b.recommendations().size(),
            lifecycle_a.recommendations().size());
  // The open lease resolves exactly once on both sides, then the dense
  // lease-id counter continues where it left off.
  lifecycle_a.Complete(lease2, 0.2, RunTiming{1, 2, 0, 0});
  lifecycle_b.Complete(lease2, 0.2, RunTiming{1, 2, 0, 0});
  EXPECT_THROW(lifecycle_b.Complete(lease2, 0.2, RunTiming{}), CheckError);
  const auto next_a = *lifecycle_a.Acquire();
  const auto next_b = *lifecycle_b.Acquire();
  EXPECT_EQ(next_b.lease_id, next_a.lease_id);
  EXPECT_EQ(next_b.job.trial_id, next_a.job.trial_id);
}

TEST(SnapshotFamily, HazardInjectorRoundTripsRngStream) {
  HazardOptions options;
  options.straggler_std = 0.5;
  options.drop_probability = 0.05;
  HazardInjector original(options, 99);
  // Draw an odd number of normals so a Box–Muller spare is in flight.
  for (int i = 0; i < 7; ++i) original.Plan(1.0);

  HazardInjector restored(options, 99);
  restored.Restore(Json::Parse(original.Snapshot().Dump()));
  for (int i = 0; i < 20; ++i) {
    const HazardPlan plan_a = original.Plan(1.0 + 0.1 * i);
    const HazardPlan plan_b = restored.Plan(1.0 + 0.1 * i);
    EXPECT_EQ(plan_a.duration, plan_b.duration) << "draw " << i;
    EXPECT_EQ(plan_a.drop_after.has_value(), plan_b.drop_after.has_value());
    if (plan_a.drop_after) {
      EXPECT_EQ(*plan_a.drop_after, *plan_b.drop_after);
    }
  }
}


// ---------------------------------------------------------------------------
// Byte pins: the compact Dump() of each snapshot after a fixed script, as
// (CRC-32, length). Any change to the snapshot format — a key renamed,
// reordered, added or dropped, a number printed differently — fails here.

/// Drives `scheduler` through a script that leaves completed results,
/// promotions, lost jobs and jobs still in flight: each step leases one job,
/// and once four are out (or the scheduler has nothing to lease) the oldest
/// resolves — every fifth resolution as lost.
void RunGoldenScript(Scheduler& scheduler, int steps) {
  std::deque<Job> out;
  int resolved = 0;
  for (int step = 0; step < steps; ++step) {
    const auto job = scheduler.GetJob();
    if (job) out.push_back(*job);
    if (out.empty() || (job && out.size() <= 3)) continue;
    const Job oldest = out.front();
    out.pop_front();
    if (++resolved % 5 == 0) {
      scheduler.ReportLost(oldest);
    } else {
      scheduler.ReportResult(oldest, FamilyLoss(scheduler, oldest));
    }
  }
}

struct SnapshotPin {
  std::uint32_t crc;
  std::size_t bytes;
};

void ExpectPinned(const std::string& what, const std::string& dump,
                  SnapshotPin pin) {
  EXPECT_EQ(Crc32(dump), pin.crc) << what << " (" << dump.size() << " B)";
  EXPECT_EQ(dump.size(), pin.bytes) << what;
}

TEST(SnapshotGolden, SchedulerFamilyBytesArePinned) {
  const SearchSpace space = UnitSpace();
  const TunerEnv env{.space = &space, .R = 27};
  TunerParams params;
  params.eta = 3;
  params.r_divisor = 27;
  params.n = 27;
  params.seed = 5;
  const std::map<std::string, SnapshotPin> pins = {
      {"asha", {1764126278u, 18257}},
      {"asha_infinite", {3684474910u, 18256}},
      {"sha", {85331177u, 22259}},
      {"hyperband", {2390535984u, 18709}},
      {"async_hyperband", {3487688943u, 19943}},
      {"random", {3927039279u, 18913}},
  };
  for (const auto& [name, pin] : pins) {
    auto scheduler = MakeTuner(name, env, params);
    RunGoldenScript(*scheduler, 120);
    const std::string dump = scheduler->Snapshot().Dump();
    // The script must leave every kind of state the codec writes.
    EXPECT_NE(dump.find("\"status\":\"lost\""), std::string::npos) << name;
    EXPECT_NE(dump.find("\"in_flight\":[{"), std::string::npos) << name;
    if (name != "random") {
      EXPECT_TRUE(std::regex_search(dump, std::regex("\"promoted\":\\[\\d")))
          << name;
    }
    ExpectPinned(name, dump, pin);
  }
}

TEST(SnapshotGolden, HazardInjectorBytesArePinned) {
  HazardInjector injector(
      HazardOptions{.straggler_std = 0.5, .drop_probability = 0.05}, 99);
  for (int i = 0; i < 7; ++i) injector.Plan(1.0);
  const std::string dump = injector.Snapshot().Dump();
  EXPECT_NE(dump.find("\"spare_normal\""), std::string::npos);
  ExpectPinned("hazards", dump, {425798201u, 125});
}

TEST(SnapshotGolden, TuningServerBytesArePinned) {
  AshaScheduler scheduler(MakeRandomSampler(UnitSpace()), ToyOptions());
  ServerOptions options;
  options.lease_timeout = 10;
  TuningServer server(scheduler, options);
  std::deque<std::int64_t> out;
  int resolved = 0;
  for (int step = 0; step < 60; ++step) {
    const double now = step;
    Json request = JsonObject{};
    request.Set("type", Json("request_job"));
    request.Set("worker", Json(step % 6));
    const Json reply = server.HandleMessage(request, now);
    ASSERT_EQ(reply.at("type").AsString(), "job");
    out.push_back(reply.at("job_id").AsInt());
    if (out.size() <= 3) continue;
    const std::int64_t job_id = out.front();
    out.pop_front();
    // Every fifth lease is abandoned; its deadline expires it as lost.
    if (++resolved % 5 == 0) continue;
    Json report = JsonObject{};
    report.Set("type", Json("report"));
    report.Set("worker", Json(0));
    report.Set("job_id", Json(job_id));
    report.Set("loss", Json(0.01 * static_cast<double>((job_id * 37) % 101)));
    server.HandleMessage(report, now);
  }
  server.Tick(60);
  const std::string dump = server.Snapshot().Dump();
  EXPECT_GT(server.stats().leases_expired, 0u);
  EXPECT_NE(dump.find("\"leases\":[{"), std::string::npos);
  EXPECT_TRUE(std::regex_search(dump, std::regex("\"promoted\":\\[\\d")));
  ExpectPinned("server", dump, {40442876u, 18885});
}

// Restore cross-checks every "in_flight" entry against "trials", the only
// record of a trial's config and status: a snapshot whose two lists disagree
// is refused before the scheduler changes at all.

/// Rewrites every in-flight job of `snapshot` through `edit`, descending
/// into the brackets of the composite schedulers.
Json EditInFlight(Json snapshot, const std::function<void(Job&)>& edit) {
  if (snapshot.Has("brackets")) {
    Json brackets = JsonArray{};
    for (const auto& bracket : snapshot.at("brackets").AsArray()) {
      brackets.PushBack(EditInFlight(bracket, edit));
    }
    snapshot.Set("brackets", std::move(brackets));
  }
  if (snapshot.Has("in_flight")) {
    Json jobs = JsonArray{};
    for (const auto& entry : snapshot.at("in_flight").AsArray()) {
      Job job = JobFromJson(entry);
      edit(job);
      jobs.PushBack(ToJson(job));
    }
    snapshot.Set("in_flight", std::move(jobs));
  }
  return snapshot;
}

/// Every snapshot family the registry builds with an in-flight table.
const std::vector<std::string> kAllFamilies = {
    "asha", "sha", "hyperband", "async_hyperband", "random"};

void ExpectKeepInFlightRestoreRefuses(
    const std::vector<std::string>& names,
    const std::function<Json(const Json&)>& edit) {
  const SearchSpace space = UnitSpace();
  const TunerEnv env{.space = &space, .R = 27};
  TunerParams params;
  params.eta = 3;
  params.r_divisor = 27;
  params.n = 27;
  params.seed = 5;
  for (const std::string& name : names) {
    auto original = MakeTuner(name, env, params);
    RunGoldenScript(*original, 120);
    const Json snapshot = original->Snapshot();
    ASSERT_NE(snapshot.Dump().find("\"in_flight\":[{"), std::string::npos)
        << name;
    auto restored = MakeTuner(name, env, params);
    EXPECT_THROW(
        restored->Restore(edit(snapshot), RestorePolicy::kKeepInFlight),
        CheckError)
        << name;
    // Refused before any state changed: the untouched snapshot still
    // restores into the same instance, byte for byte.
    EXPECT_EQ(restored->trials().size(), 0u) << name;
    restored->Restore(snapshot, RestorePolicy::kKeepInFlight);
    EXPECT_EQ(restored->Snapshot().Dump(), snapshot.Dump()) << name;
  }
}

TEST(SnapshotFamily, RestoreRefusesInFlightTrialMissingFromBank) {
  ExpectKeepInFlightRestoreRefuses(kAllFamilies, [](const Json& snapshot) {
    return EditInFlight(snapshot, [](Job& job) { job.trial_id += 100000; });
  });
}

TEST(SnapshotFamily, RestoreRefusesInFlightTrialThatIsNotRunning) {
  ExpectKeepInFlightRestoreRefuses(kAllFamilies, [](const Json& snapshot) {
    TrialBank bank = TrialBankFromJson(snapshot.at("trials"));
    for (std::size_t id = 0; id < bank.size(); ++id) {
      Trial& trial = bank.Get(static_cast<TrialId>(id));
      if (trial.status == TrialStatus::kRunning) {
        trial.status = TrialStatus::kPaused;
      }
    }
    Json edited = snapshot;
    edited.Set("trials", ToJson(bank));
    return edited;
  });
}

TEST(SnapshotFamily, RestoreRefusesInFlightConfigThatDiffersFromBank) {
  ExpectKeepInFlightRestoreRefuses(kAllFamilies, [](const Json& snapshot) {
    return EditInFlight(snapshot, [](Job& job) {
      job.config.Set("x", job.config.GetDouble("x") / 2);
    });
  });
}

// The single-bracket families and random search parse every field before
// they commit any: a refusal late in the snapshot leaves no half-restored
// scheduler behind. (The composites commit their shared bank before their
// brackets.)

TEST(SnapshotFamily, RestoreRefusesTruncatedRngBeforeAnyChange) {
  ExpectKeepInFlightRestoreRefuses(
      {"asha", "sha", "random"}, [](const Json& snapshot) {
        JsonArray words = snapshot.at("rng").AsArray();
        words.pop_back();
        Json edited = snapshot;
        edited.Set("rng", Json(std::move(words)));
        return edited;
      });
}

TEST(SnapshotFamily, RestoreRefusesOneRungTooManyBeforeAnyChange) {
  // R = 27 with r = 1 and eta = 3 allows rungs 0..3.
  ExpectKeepInFlightRestoreRefuses({"asha"}, [](const Json& snapshot) {
    JsonArray rungs = snapshot.at("rungs").AsArray();
    while (rungs.size() < 5) rungs.push_back(rungs.front());
    Json edited = snapshot;
    edited.Set("rungs", Json(std::move(rungs)));
    return edited;
  });
}

}  // namespace
}  // namespace hypertune
