// Multi-tenant StudyManager: message routing by study id, the admin
// vocabulary, suspension (leases freeze, deadlines shift on resume),
// per-study quotas, "*" round-robin allocation, and per-study durability
// (recovery, tombstoned deletes, held-report routing across a server
// restart).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/random_search.h"
#include "core/sampler.h"
#include "durability/wal.h"
#include "registry/registry.h"
#include "searchspace/space.h"
#include "service/server.h"
#include "service/worker.h"
#include "study/study_manager.h"
#include "surrogate/benchmarks.h"

namespace hypertune {
namespace {

SearchSpace StudySpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

/// Fresh (empty) per-test directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) / "ht_study" /
                   name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

Json RandomConfig(std::int64_t seed) {
  Json config = JsonObject{};
  config.Set("kind", Json("random"));
  config.Set("seed", Json(seed));
  return config;
}

StudyManagerOptions BaseOptions() {
  StudyManagerOptions options;
  options.server.lease_timeout = 30;
  options.default_config = RandomConfig(1);
  return options;
}

Json RequestJob(std::uint64_t worker, const std::string& study = {}) {
  Json message = JsonObject{};
  message.Set("type", Json("request_job"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  if (!study.empty()) message.Set("study", Json(study));
  return message;
}

Json RequestJobs(std::uint64_t worker, std::int64_t count,
                 const std::string& study = {}) {
  Json message = JsonObject{};
  message.Set("type", Json("request_jobs"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("count", Json(count));
  if (!study.empty()) message.Set("study", Json(study));
  return message;
}

Json Report(std::uint64_t worker, std::int64_t job_id, double loss,
            const std::string& study = {}) {
  Json message = JsonObject{};
  message.Set("type", Json("report"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("job_id", Json(job_id));
  message.Set("loss", Json(loss));
  if (!study.empty()) message.Set("study", Json(study));
  return message;
}

Json Heartbeat(std::uint64_t worker, std::int64_t job_id,
               const std::string& study = {}) {
  Json message = JsonObject{};
  message.Set("type", Json("heartbeat"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("job_id", Json(job_id));
  if (!study.empty()) message.Set("study", Json(study));
  return message;
}

Json Admin(const char* type, const std::string& study) {
  Json message = JsonObject{};
  message.Set("type", Json(type));
  message.Set("study", Json(study));
  return message;
}

std::string ReplyType(const Json& reply) {
  return reply.at("type").AsString();
}

Json TunerConfig(const std::string& name) {
  Json config = JsonObject{};
  config.Set("tuner", Json(name));
  return config;
}

Json CreateMessage(const std::string& study, const Json& config) {
  Json create = Admin("create_study", study);
  create.Set("config", config);
  return create;
}

// ---------------------------------------------------------------------------
// Routing.

TEST(StudyManager, DefaultStudySpeaksThePreManagerProtocol) {
  // A study-less client against the manager must see byte-identical replies
  // to the same client against a bare TuningServer with the same scheduler.
  StudyManagerOptions options = BaseOptions();
  options.default_config = RandomConfig(7);
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);

  RandomSearchOptions search;
  search.seed = 7;
  search.R = 81;  // the factory's default budget
  RandomSearchScheduler scheduler(MakeRandomSampler(StudySpace()), search);
  TuningServer server(scheduler, {.lease_timeout = 30});

  for (int round = 0; round < 20; ++round) {
    const double now = round * 1.5;
    const Json request = RequestJob(1 + round % 3);
    const Json via_manager = manager.HandleMessage(request, now);
    const Json via_server = server.HandleMessage(request, now);
    ASSERT_EQ(via_manager.Dump(), via_server.Dump());
    if (ReplyType(via_manager) != "job") continue;
    const std::int64_t job_id = via_manager.at("job_id").AsInt();
    const Json report = Report(1 + round % 3, job_id, 1.0 / (1 + round));
    EXPECT_EQ(manager.HandleMessage(report, now + 0.5).Dump(),
              server.HandleMessage(report, now + 0.5).Dump());
  }
  EXPECT_EQ(manager.study_count(), 1u);
}

TEST(StudyManager, RoutesScopedMessagesToTheirStudy) {
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()),
                       BaseOptions());
  ASSERT_TRUE(manager.CreateStudy("alpha", RandomConfig(2), 0.0));
  ASSERT_TRUE(manager.CreateStudy("beta", RandomConfig(3), 0.0));

  const Json a_grant = manager.HandleMessage(RequestJob(1, "alpha"), 0.0);
  ASSERT_EQ(ReplyType(a_grant), "job");
  const Json b_grant = manager.HandleMessage(RequestJob(2, "beta"), 0.0);
  ASSERT_EQ(ReplyType(b_grant), "job");

  // Reports route back by their study key; completing alpha's job must not
  // touch beta's accounting.
  const Json ack = manager.HandleMessage(
      Report(1, a_grant.at("job_id").AsInt(), 0.5, "alpha"), 1.0);
  EXPECT_EQ(ReplyType(ack), "ack");

  const auto infos = manager.ListStudies();
  ASSERT_EQ(infos.size(), 3u);  // alpha, beta, default
  EXPECT_EQ(infos[0].name, "alpha");
  EXPECT_EQ(infos[0].jobs_assigned, 1u);
  EXPECT_EQ(infos[0].jobs_completed, 1u);
  EXPECT_EQ(infos[0].active_leases, 0u);
  EXPECT_EQ(infos[1].name, "beta");
  EXPECT_EQ(infos[1].jobs_assigned, 1u);
  EXPECT_EQ(infos[1].jobs_completed, 0u);
  EXPECT_EQ(infos[1].active_leases, 1u);
  EXPECT_EQ(infos[2].name, "default");
  EXPECT_EQ(infos[2].jobs_assigned, 0u);
}

TEST(StudyManager, RejectsUnknownAndMalformed) {
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()),
                       BaseOptions());

  const Json unknown = manager.HandleMessage(RequestJob(1, "nope"), 0.0);
  EXPECT_EQ(ReplyType(unknown), "error");
  EXPECT_NE(unknown.at("message").AsString().find("unknown study 'nope'"),
            std::string::npos);
  EXPECT_EQ(manager.stats().unknown_study_errors, 1u);

  // Names double as directory names; traversal and empty names are invalid.
  const std::vector<std::string> bad_names = {
      "", ".", "..", "a/b", "sp ace", std::string(129, 'x')};
  for (const std::string& bad : bad_names) {
    Json create = Admin("create_study", bad);
    create.Set("config", RandomConfig(1));
    EXPECT_EQ(ReplyType(manager.HandleMessage(create, 0.0)), "error")
        << "name: '" << bad << "'";
  }

  Json duplicate = Admin("create_study", "default");
  duplicate.Set("config", RandomConfig(1));
  const Json dup_reply = manager.HandleMessage(duplicate, 0.0);
  EXPECT_EQ(ReplyType(dup_reply), "error");
  EXPECT_NE(dup_reply.at("message").AsString().find("already exists"),
            std::string::npos);

  Json bad_config = Admin("create_study", "weird");
  Json config = JsonObject{};
  config.Set("kind", Json("simulated-annealing"));
  bad_config.Set("config", config);
  const Json rejected = manager.HandleMessage(bad_config, 0.0);
  EXPECT_EQ(ReplyType(rejected), "error");
  EXPECT_EQ(manager.study_count(), 1u);

  for (const char* verb : {"suspend_study", "resume_study", "delete_study"}) {
    EXPECT_EQ(ReplyType(manager.HandleMessage(Admin(verb, "ghost"), 0.0)),
              "error");
  }

  // A hostile payload earns an error reply, never a dead service.
  EXPECT_EQ(ReplyType(manager.HandleMessage(Json("not an object"), 0.0)),
            "error");
  Json no_type = JsonObject{};
  no_type.Set("worker", Json(std::int64_t{1}));
  EXPECT_EQ(ReplyType(manager.HandleMessage(no_type, 0.0)), "error");
}

TEST(StudyManager, StockFactoryRejectsKeysItDoesNotRead) {
  const StudySchedulerFactory factory = MakeStudySchedulerFactory(StudySpace());
  Json every_key = JsonObject{};
  every_key.Set("kind", Json("asha"));
  every_key.Set("seed", Json(std::int64_t{3}));
  every_key.Set("r", Json(1.0));
  every_key.Set("R", Json(27.0));
  every_key.Set("eta", Json(3.0));
  every_key.Set("max_trials", Json(std::int64_t{5}));
  every_key.Set("n", Json(std::int64_t{9}));
  every_key.Set("n0", Json(std::int64_t{9}));
  EXPECT_NE(factory(every_key), nullptr);

  // A misspelt knob must not fall back to its default (a 300-trial study).
  Json typo = JsonObject{};
  typo.Set("kind", Json("asha"));
  typo.Set("max_trial", Json(std::int64_t{5}));
  EXPECT_EQ(factory(typo), nullptr);

  // A tuner is named by "tuner" or by a legacy "kind", never both, and
  // "n0" sizes only the legacy hyperband kind.
  Json tuner_config = JsonObject{};
  tuner_config.Set("tuner", Json("hyperband"));
  ASSERT_NE(factory(tuner_config), nullptr);
  Json mixed = tuner_config;
  mixed.Set("kind", Json("hyperband"));
  EXPECT_EQ(factory(mixed), nullptr);
  Json tuner_n0 = tuner_config;
  tuner_n0.Set("n0", Json(std::int64_t{9}));
  EXPECT_EQ(factory(tuner_n0), nullptr);
  Json unknown_tuner = JsonObject{};
  unknown_tuner.Set("tuner", Json("simulated-annealing"));
  EXPECT_EQ(factory(unknown_tuner), nullptr);
  // The legacy "hyperband" kind is the asynchronous variant; the registry
  // name is synchronous Hyperband.
  Json legacy_hyperband = JsonObject{};
  legacy_hyperband.Set("kind", Json("hyperband"));
  EXPECT_NE(factory(legacy_hyperband)->name(),
            factory(tuner_config)->name());

  // A value of the wrong type is refused, not coerced or defaulted.
  const auto with = [](Json config, const char* key, Json value) {
    config.Set(key, std::move(value));
    return config;
  };
  Json asha = JsonObject{};
  asha.Set("kind", Json("asha"));
  EXPECT_EQ(factory(with(asha, "seed", Json("3"))), nullptr);
  EXPECT_EQ(factory(with(asha, "r", Json("1"))), nullptr);
  EXPECT_EQ(factory(with(asha, "R", Json(true))), nullptr);
  EXPECT_EQ(factory(with(asha, "max_trials", Json(2.5))), nullptr);
  EXPECT_EQ(factory(with(asha, "seed", Json(1e300))), nullptr);
  Json sha = JsonObject{};
  sha.Set("kind", Json("sha"));
  EXPECT_EQ(factory(with(sha, "n", Json(JsonArray{}))), nullptr);
  EXPECT_EQ(factory(with(TunerConfig("asha"), "n", Json("9"))), nullptr);
  // A legacy kind type-checks only the keys it reads, as it always did:
  // persisted configs with a mistyped key their kind ignores must recover.
  EXPECT_NE(factory(with(asha, "n0", Json("x"))), nullptr);
  EXPECT_NE(factory(with(RandomConfig(1), "r", Json("1"))), nullptr);
  EXPECT_EQ(factory(with(JsonObject{}, "kind", Json(std::int64_t{1}))),
            nullptr);
  EXPECT_EQ(factory(with(JsonObject{}, "tuner", Json())), nullptr);
  EXPECT_EQ(factory(with(tuner_config, "eta", Json("3"))), nullptr);
  EXPECT_EQ(factory(Json(JsonArray{})), nullptr);

  StudyManager manager(MakeStudySchedulerFactory(StudySpace()),
                       BaseOptions());
  Json create = Admin("create_study", "typo");
  create.Set("config", typo);
  EXPECT_EQ(ReplyType(manager.HandleMessage(create, 0.0)), "error");
  EXPECT_EQ(manager.study_count(), 1u);
}

// A "tuner" study is the tuner the offline runner builds for the same
// benchmark: the factory carries the benchmark's resumability (the SVMs
// retrain from scratch per rung) and its guessing loss (PBT's restart
// trigger, on ptb_lstm's perplexity scale), so the jobs match one for one.
TEST(StudyManager, StockFactoryBuildsTheOfflineTuner) {
  const std::pair<const char*, const char*> cases[] = {
      {"ptb_lstm", "pbt"}, {"svm_vehicle", "asha"}, {"svm_mnist", "sha"}};
  for (const auto& [benchmark, tuner] : cases) {
    const auto bench = benchmarks::ByName(benchmark, 1);
    TunerParams params;
    params.seed = 5;
    const auto offline = MakeTunerByName(tuner, *bench, params);
    Json config = TunerConfig(tuner);
    config.Set("seed", Json(std::int64_t{5}));
    config.Set("R", Json(bench->R()));
    config.Set("r", Json(bench->R() / params.r_divisor));
    config.Set("eta", Json(params.eta));
    config.Set("n", Json(static_cast<std::int64_t>(params.n)));
    const auto served =
        MakeStudySchedulerFactory(bench->space(), bench->spec().resumable,
                                  bench->spec().random_guess_loss)(config);
    ASSERT_NE(served, nullptr) << benchmark;
    for (int i = 0; i < 300; ++i) {
      const auto expected = offline->GetJob();
      const auto job = served->GetJob();
      ASSERT_EQ(job.has_value(), expected.has_value()) << benchmark << i;
      if (!job) break;
      ASSERT_EQ(job->trial_id, expected->trial_id) << benchmark << i;
      ASSERT_EQ(job->rung, expected->rung) << benchmark << i;
      ASSERT_EQ(job->from_resource, expected->from_resource) << benchmark << i;
      ASSERT_EQ(job->to_resource, expected->to_resource) << benchmark << i;
      ASSERT_EQ(job->config.ToString(), expected->config.ToString())
          << benchmark << i;
      const double loss = bench->TrueLoss(job->config, job->to_resource);
      offline->ReportResult(*expected, loss);
      served->ReportResult(*job, loss);
    }
  }
}

// Every registry tuner serves as a study: created over the wire, it leases
// and takes reports; a duplicate report, a report for a job it never issued
// and one for an expired lease are acknowledged as stale and change
// nothing, a malformed report is an error, and the study keeps serving.
TEST(StudyManager, ServesEveryRegistryTuner) {
  StudyManagerOptions options = BaseOptions();
  options.default_config = Json();
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
  const double timeout = options.server.lease_timeout;
  for (const std::string& name : TunerNames()) {
    ASSERT_EQ(ReplyType(manager.HandleMessage(
                  CreateMessage(name, TunerConfig(name)), 0.0)),
              "ack")
        << name;
    const auto expect_stale = [&](std::int64_t job_id, double now) {
      const Json reply =
          manager.HandleMessage(Report(1, job_id, 0.25, name), now);
      EXPECT_EQ(ReplyType(reply), "ack") << name;
      EXPECT_TRUE(reply.Has("stale")) << name;
    };

    std::int64_t done = 0;
    for (int i = 0; i < 2; ++i) {
      const Json grant = manager.HandleMessage(RequestJob(1, name), 1.0);
      ASSERT_EQ(ReplyType(grant), "job") << name;
      done = grant.at("job_id").AsInt();
      ASSERT_EQ(ReplyType(manager.HandleMessage(
                    Report(1, done, 0.5 - 0.1 * i, name), 2.0)),
                "ack")
          << name;
    }
    expect_stale(done, 3.0);
    expect_stale(done + 1000, 3.0);

    const Json grant = manager.HandleMessage(RequestJob(1, name), 4.0);
    ASSERT_EQ(ReplyType(grant), "job") << name;
    const std::int64_t open = grant.at("job_id").AsInt();
    Json bad_loss = Report(1, open, 0.5, name);
    bad_loss.Set("loss", Json("low"));
    EXPECT_EQ(ReplyType(manager.HandleMessage(bad_loss, 5.0)), "error")
        << name;
    // Past the deadline the lease expires, and its late report is stale.
    expect_stale(open, 5.0 + timeout);

    const TuningServer* server = manager.FindServer(name);
    EXPECT_EQ(server->stats().jobs_completed, 2u) << name;
    EXPECT_EQ(server->stats().leases_expired, 1u) << name;
    const Json after = manager.HandleMessage(RequestJob(1, name), 6.0 + timeout);
    EXPECT_TRUE(ReplyType(after) == "job" || ReplyType(after) == "no_job")
        << name << ": " << after.Dump();
  }
  EXPECT_EQ(manager.study_count(), TunerNames().size());
}

TEST(StudyManager, ScriptedSessionExpiresAllButSuspendedLeases) {
  StudyManagerOptions options = BaseOptions();
  options.default_config = Json();
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(manager.CreateStudy("study-" + std::to_string(i),
                                    RandomConfig(i), 0.0));
  }
  // Scoped traffic on every study; half of the leases are reported.
  for (int i = 0; i < 12; ++i) {
    const std::string name = "study-" + std::to_string(i);
    const Json grant = manager.HandleMessage(RequestJob(100 + i, name), 0.0);
    ASSERT_EQ(ReplyType(grant), "job");
    if (i % 2 == 0) {
      ASSERT_EQ(ReplyType(manager.HandleMessage(
                    Report(100 + i, grant.at("job_id").AsInt(), 0.5, name),
                    1.0)),
                "ack");
    }
  }
  ASSERT_TRUE(manager.SuspendStudy("study-3", 2.0));
  ASSERT_TRUE(manager.DeleteStudy("study-7", 2.0));
  manager.Tick(100.0);  // expires every un-reported, un-suspended lease

  // study-3 is frozen with its lease; every other unreported lease expired.
  const auto infos = manager.ListStudies();
  ASSERT_EQ(infos.size(), 11u);
  for (const StudyInfo& info : infos) {
    if (info.name == "study-3") {
      EXPECT_TRUE(info.suspended);
      EXPECT_EQ(info.active_leases, 1u);
    } else {
      EXPECT_EQ(info.active_leases, 0u);
    }
    EXPECT_NE(info.name, "study-7");  // deleted
  }
}

// ---------------------------------------------------------------------------
// Suspension: leases freeze, deadlines shift on resume.

TEST(StudySuspension, FreezesLeasesUntilResumeShiftsDeadlines) {
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()),
                       BaseOptions());
  ASSERT_TRUE(manager.CreateStudy("paused", RandomConfig(5), 0.0));

  const Json grant_a = manager.HandleMessage(RequestJob(1, "paused"), 0.0);
  const Json grant_b = manager.HandleMessage(RequestJob(2, "paused"), 0.0);
  ASSERT_EQ(ReplyType(grant_a), "job");
  ASSERT_EQ(ReplyType(grant_b), "job");

  ASSERT_TRUE(manager.SuspendStudy("paused", 5.0));

  // The satellite regression: an idle-expiry tick far past the deadlines
  // must not expire a suspended study's leases.
  manager.Tick(1000.0);
  TuningServer* server = manager.FindServer("paused");
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->stats().active_leases, 2u);
  EXPECT_EQ(server->stats().leases_expired, 0u);

  // Grants stop while suspended...
  EXPECT_EQ(ReplyType(manager.HandleMessage(RequestJob(3, "paused"), 1000.0)),
            "no_job");
  // ...but a finished result is still accepted — and its internal tick
  // must not expire the sibling lease either (reports carry `now` far past
  // the frozen deadlines).
  const Json ack = manager.HandleMessage(
      Report(1, grant_a.at("job_id").AsInt(), 0.25, "paused"), 1000.0);
  ASSERT_EQ(ReplyType(ack), "ack");
  EXPECT_FALSE(ack.Has("stale"));
  EXPECT_EQ(server->stats().active_leases, 1u);
  EXPECT_EQ(server->stats().leases_expired, 0u);

  // Resume at t=1005 after suspending at t=5: every open deadline shifts
  // by the 1000s pause. Lease b was due at t=30, so it is now due at 1030.
  ASSERT_TRUE(manager.ResumeStudy("paused", 1005.0));
  manager.Tick(1025.0);
  EXPECT_EQ(server->stats().active_leases, 1u);
  manager.Tick(1035.0);
  EXPECT_EQ(server->stats().active_leases, 0u);
  EXPECT_EQ(server->stats().leases_expired, 1u);

  // Suspend / resume are idempotent.
  EXPECT_TRUE(manager.ResumeStudy("paused", 1040.0));
  EXPECT_TRUE(manager.SuspendStudy("paused", 1041.0));
  EXPECT_TRUE(manager.SuspendStudy("paused", 1042.0));
  EXPECT_TRUE(manager.ResumeStudy("paused", 1043.0));
}

// ---------------------------------------------------------------------------
// Quotas.

TEST(StudyQuota, CapsConcurrentLeasesAndClampsBatches) {
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()),
                       BaseOptions());
  ASSERT_TRUE(manager.CreateStudy("capped", RandomConfig(4), 0.0, 2));

  const Json first = manager.HandleMessage(RequestJob(1, "capped"), 0.0);
  ASSERT_EQ(ReplyType(first), "job");
  // A batch request against the last quota slot is clamped, not denied.
  const Json batch = manager.HandleMessage(RequestJobs(2, 5, "capped"), 0.0);
  ASSERT_EQ(ReplyType(batch), "jobs");
  EXPECT_EQ(batch.at("jobs").AsArray().size(), 1u);

  EXPECT_EQ(ReplyType(manager.HandleMessage(RequestJob(3, "capped"), 1.0)),
            "no_job");
  EXPECT_GE(manager.stats().quota_denials, 1u);

  // Completing a job frees its slot.
  ASSERT_EQ(ReplyType(manager.HandleMessage(
                Report(1, first.at("job_id").AsInt(), 0.5, "capped"), 2.0)),
            "ack");
  EXPECT_EQ(ReplyType(manager.HandleMessage(RequestJob(3, "capped"), 3.0)),
            "job");

  // So does an expired lease: the quota check ticks the study first, so a
  // worker is never starved by leases that are already dead.
  EXPECT_EQ(ReplyType(manager.HandleMessage(RequestJob(4, "capped"), 100.0)),
            "job");
}

// ---------------------------------------------------------------------------
// "*" fair allocation.

TEST(StudyFairAllocation, RoundRobinsAcrossReadyStudies) {
  StudyManagerOptions options = BaseOptions();
  options.default_config = Json();  // no default study in the mix
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(manager.CreateStudy(name, RandomConfig(10), 0.0));
  }

  // One batched "*" request: one grant per ready study per pass, each
  // entry naming the study its report must route back to.
  const Json batch = manager.HandleMessage(RequestJobs(1, 3, "*"), 0.0);
  ASSERT_EQ(ReplyType(batch), "jobs");
  const JsonArray& entries = batch.at("jobs").AsArray();
  ASSERT_EQ(entries.size(), 3u);
  std::set<std::string> granted;
  for (const Json& entry : entries) {
    granted.insert(entry.at("study").AsString());
  }
  EXPECT_EQ(granted, (std::set<std::string>{"a", "b", "c"}));

  // Single "*" grants carry the study too, and reports route back.
  const Json single = manager.HandleMessage(RequestJob(2, "*"), 1.0);
  ASSERT_EQ(ReplyType(single), "job");
  const std::string& study = single.at("study").AsString();
  EXPECT_TRUE(granted.count(study) == 1);
  ASSERT_EQ(ReplyType(manager.HandleMessage(
                Report(2, single.at("job_id").AsInt(), 0.5, study), 2.0)),
            "ack");

  // Suspended studies are skipped by "*".
  ASSERT_TRUE(manager.SuspendStudy("a", 3.0));
  ASSERT_TRUE(manager.SuspendStudy("b", 3.0));
  for (int i = 0; i < 4; ++i) {
    const Json grant = manager.HandleMessage(RequestJob(5 + i, "*"), 4.0);
    ASSERT_EQ(ReplyType(grant), "job");
    EXPECT_EQ(grant.at("study").AsString(), "c");
  }

  // "*" is a grant-only address.
  EXPECT_EQ(ReplyType(manager.HandleMessage(Heartbeat(1, 0, "*"), 5.0)),
            "error");
}

TEST(StudyFairAllocation, WildcardIsExactlyRoundRobin) {
  // These six names spread unevenly under hash-of-name placement (per-
  // bucket cursors granted them 150/50/50/50/150/150 at 4 buckets); "*"
  // must depend only on the set of ready studies, never on placement.
  StudyManagerOptions options = BaseOptions();
  options.default_config = Json();
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
  const std::vector<std::string> names = {"a", "b", "c", "d", "e", "f"};
  std::int64_t seed = 20;
  for (const std::string& name : names) {
    ASSERT_TRUE(manager.CreateStudy(name, RandomConfig(seed++), 0.0));
  }

  constexpr int kRounds = 100;
  std::map<std::string, int> grants;
  for (int i = 0; i < kRounds * static_cast<int>(names.size()); ++i) {
    const Json grant = manager.HandleMessage(RequestJob(1 + i, "*"), 0.0);
    ASSERT_EQ(ReplyType(grant), "job");
    ++grants[grant.at("study").AsString()];
  }
  for (const std::string& name : names) {
    EXPECT_EQ(grants[name], kRounds) << "study " << name;
  }

  // A batch as large as the ready set grants each study exactly once.
  const Json batch = manager.HandleMessage(
      RequestJobs(9999, static_cast<std::int64_t>(names.size()), "*"), 1.0);
  ASSERT_EQ(ReplyType(batch), "jobs");
  std::map<std::string, int> batch_grants;
  for (const Json& entry : batch.at("jobs").AsArray()) {
    ++batch_grants[entry.at("study").AsString()];
  }
  ASSERT_EQ(batch_grants.size(), names.size());
  for (const auto& [name, count] : batch_grants) {
    EXPECT_EQ(count, 1) << "study " << name;
  }
}

// ---------------------------------------------------------------------------
// Durability.

TEST(StudyDurability, RecoversEveryStudyAcrossRestart) {
  const std::string root = FreshDir("recover");
  StudyManagerOptions options = BaseOptions();
  options.durability_root = root;
  options.default_config = Json();

  std::int64_t open_job = 0;
  std::int64_t done_job = 0;
  {
    StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
    ASSERT_TRUE(manager.CreateStudy("alpha", RandomConfig(2), 0.0));
    ASSERT_TRUE(manager.CreateStudy("beta", RandomConfig(3), 0.0, 4));
    const Json done = manager.HandleMessage(RequestJob(1, "alpha"), 0.0);
    done_job = done.at("job_id").AsInt();
    ASSERT_EQ(ReplyType(manager.HandleMessage(
                  Report(1, done_job, 0.5, "alpha"), 1.0)),
              "ack");
    const Json open = manager.HandleMessage(RequestJob(2, "alpha"), 2.0);
    open_job = open.at("job_id").AsInt();
    ASSERT_TRUE(manager.SuspendStudy("beta", 3.0));
    // No clean shutdown call: the manager is simply destroyed, like a
    // process kill between fsyncs (sync policy kEveryN still leaves the
    // journal readable; the writer flushes on close).
  }

  StudyManager recovered(MakeStudySchedulerFactory(StudySpace()), options);
  EXPECT_EQ(recovered.study_count(), 2u);
  EXPECT_EQ(recovered.stats().recovered, 2u);

  const auto infos = recovered.ListStudies();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "alpha");
  EXPECT_EQ(infos[0].jobs_assigned, 2u);
  EXPECT_EQ(infos[0].jobs_completed, 1u);
  EXPECT_EQ(infos[0].active_leases, 1u);
  EXPECT_EQ(infos[1].name, "beta");
  EXPECT_TRUE(infos[1].suspended);
  EXPECT_EQ(infos[1].max_leases, 4u);  // the manifest carries the quota

  // The recovered lease is live: a duplicate of the completed report is
  // stale, the open lease renews, and beta is still frozen.
  const Json stale = recovered.HandleMessage(
      Report(1, done_job, 0.5, "alpha"), 4.0);
  ASSERT_EQ(ReplyType(stale), "ack");
  EXPECT_TRUE(stale.Has("stale"));
  EXPECT_EQ(ReplyType(recovered.HandleMessage(Heartbeat(2, open_job, "alpha"),
                                              5.0)),
            "ack");
  EXPECT_EQ(ReplyType(recovered.HandleMessage(RequestJob(9, "beta"), 5.0)),
            "no_job");

  // Resume shifts beta's (empty) deadline set from the ORIGINAL suspension
  // time — the timestamp survived in state.json.
  ASSERT_TRUE(recovered.ResumeStudy("beta", 6.0));
  EXPECT_EQ(ReplyType(recovered.HandleMessage(RequestJob(9, "beta"), 6.0)),
            "job");
}

// The journal's byte format: every lease event a durable study serves —
// grant, renewal, report, expiry, and the deadline shift of a resume —
// leaves exactly this record, keys in this order.
TEST(StudyDurability, JournalsEveryLeaseEventInItsRecordFormat) {
  const std::string root = FreshDir("journal_payloads");
  StudyManagerOptions options = BaseOptions();
  options.durability_root = root;
  options.default_config = Json();
  {
    StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
    ASSERT_TRUE(manager.CreateStudy("journaled", RandomConfig(7), 0.0));
    const Json first = manager.HandleMessage(RequestJob(1, "journaled"), 1.0);
    const Json second =
        manager.HandleMessage(RequestJob(2, "journaled"), 2.0);
    ASSERT_EQ(ReplyType(first), "job");
    ASSERT_EQ(ReplyType(second), "job");
    ASSERT_EQ(ReplyType(manager.HandleMessage(
                  Heartbeat(1, first.at("job_id").AsInt(), "journaled"),
                  3.5)),
              "ack");
    ASSERT_EQ(ReplyType(manager.HandleMessage(
                  Report(1, first.at("job_id").AsInt(), 0.25, "journaled"),
                  4.0)),
              "ack");
    manager.Tick(40.0);  // the second lease (deadline 32) expires
    ASSERT_EQ(ReplyType(manager.HandleMessage(RequestJob(3, "journaled"),
                                              41.0)),
              "job");
    ASSERT_TRUE(manager.SuspendStudy("journaled", 50.0));
    ASSERT_TRUE(manager.ResumeStudy("journaled", 60.5));
  }
  const std::string wal =
      (std::filesystem::path(root) / "studies" / "journaled" /
       "wal-000000.log")
          .string();
  const std::vector<std::string> expected = {
      R"({"kind":"grant","job_id":1,"worker":1,"trial":0,"now":1.0})",
      R"({"kind":"grant","job_id":2,"worker":2,"trial":1,"now":2.0})",
      R"({"kind":"renew","job_id":1,"now":3.5})",
      R"({"kind":"report","job_id":1,"loss":0.25,"now":4.0})",
      R"({"kind":"expire","job_id":2,"now":40.0})",
      R"({"kind":"grant","job_id":3,"worker":3,"trial":2,"now":41.0})",
      R"({"kind":"shift","delta":10.5,"now":60.5})",
  };
  EXPECT_EQ(ReadJournal(wal).payloads, expected);
}

// A resume's deadline shift is journaled, so recovery reproduces it: a
// lease that was open across the suspension is still live, at its shifted
// deadline, after a crash.
TEST(StudyDurability, ResumeShiftSurvivesACrashWithALeaseOpen) {
  const std::string root = FreshDir("resume_shift");
  StudyManagerOptions options = BaseOptions();  // lease_timeout 30
  options.durability_root = root;
  options.default_config = Json();
  std::int64_t job_id = 0;
  {
    StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
    ASSERT_TRUE(manager.CreateStudy("held", RandomConfig(8), 0.0));
    const Json grant = manager.HandleMessage(RequestJob(1, "held"), 0.0);
    ASSERT_EQ(ReplyType(grant), "job");
    job_id = grant.at("job_id").AsInt();
    ASSERT_TRUE(manager.SuspendStudy("held", 10.0));
    // Deadline 30 shifts by the 1000 s pause to 1030.
    ASSERT_TRUE(manager.ResumeStudy("held", 1010.0));
  }
  StudyManager recovered(MakeStudySchedulerFactory(StudySpace()), options);
  TuningServer* server = recovered.FindServer("held");
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->stats().active_leases, 1u);
  recovered.Tick(1029.0);
  EXPECT_EQ(server->stats().leases_expired, 0u);
  EXPECT_EQ(server->stats().active_leases, 1u);
  EXPECT_EQ(ReplyType(recovered.HandleMessage(Heartbeat(1, job_id, "held"),
                                              1029.0)),
            "ack");
}

// A non-finite `now` is refused before routing: an admin verb would write it
// into state.json ("suspended_at":null) and a lease event into the journal,
// and neither reads back, so the next start would refuse the whole manager.
TEST(StudyDurability, NonFiniteTimeIsRefusedAndRecoverySucceeds) {
  const std::string root = FreshDir("non_finite_time");
  StudyManagerOptions options = BaseOptions();
  options.durability_root = root;
  options.default_config = Json();
  const double bad_times[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
  std::int64_t job_id = 0;
  {
    StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
    ASSERT_TRUE(manager.CreateStudy("live", RandomConfig(3), 0.0));
    const Json grant = manager.HandleMessage(RequestJob(1, "live"), 1.0);
    ASSERT_EQ(ReplyType(grant), "job");
    job_id = grant.at("job_id").AsInt();
    Json create = Admin("create_study", "born_at_nan");
    create.Set("config", RandomConfig(4));
    for (const double bad : bad_times) {
      for (const Json& message :
           {RequestJob(2, "live"), RequestJob(2, "*"),
            Report(1, job_id, 0.5, "live"), Heartbeat(1, job_id, "live"),
            create, Admin("suspend_study", "live"),
            Admin("resume_study", "live"), Admin("delete_study", "live")}) {
        const Json reply = manager.HandleMessage(message, bad);
        EXPECT_EQ(ReplyType(reply), "error") << message.Dump();
        EXPECT_EQ(reply.at("message").AsString(), kNonFiniteTimeError);
      }
    }
    EXPECT_EQ(manager.study_count(), 1u);
    EXPECT_EQ(manager.FindServer("live")->stats().jobs_assigned, 1u);
  }
  StudyManager recovered(MakeStudySchedulerFactory(StudySpace()), options);
  EXPECT_EQ(recovered.study_count(), 1u);
  TuningServer* server = recovered.FindServer("live");
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->stats().active_leases, 1u);
  EXPECT_EQ(ReplyType(recovered.HandleMessage(Report(1, job_id, 0.5, "live"),
                                              2.0)),
            "ack");
}

// Configs the earlier kind-only factory accepted and persisted recover:
// a legacy kind ignores a mistyped key it does not read, as it did then.
TEST(StudyDurability, RecoversLegacyConfigsWithIgnoredMistypedKeys) {
  StudyManagerOptions options = BaseOptions();
  options.durability_root = FreshDir("legacy_ignored");
  options.default_config = Json();
  Json random = RandomConfig(2);
  random.Set("r", Json("1"));
  Json asha = JsonObject{};
  asha.Set("kind", Json("asha"));
  asha.Set("n0", Json("x"));
  {
    StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
    ASSERT_TRUE(manager.CreateStudy("random", random, 0.0));
    ASSERT_TRUE(manager.CreateStudy("asha", asha, 0.0));
    ASSERT_EQ(ReplyType(manager.HandleMessage(RequestJob(1, "asha"), 1.0)),
              "job");
  }
  StudyManager recovered(MakeStudySchedulerFactory(StudySpace()), options);
  EXPECT_EQ(recovered.stats().recovered, 2u);
  EXPECT_EQ(recovered.FindServer("asha")->stats().jobs_assigned, 1u);
  EXPECT_EQ(ReplyType(recovered.HandleMessage(RequestJob(2, "random"), 2.0)),
            "job");
}

TEST(StudyDurability, TombstoneCompletesInterruptedDelete) {
  const std::string root = FreshDir("tombstone");
  StudyManagerOptions options = BaseOptions();
  options.durability_root = root;
  options.default_config = Json();
  {
    StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
    ASSERT_TRUE(manager.CreateStudy("doomed", RandomConfig(1), 0.0));
    ASSERT_TRUE(manager.CreateStudy("kept", RandomConfig(2), 0.0));
  }
  // Simulate a crash between the tombstone write and the directory
  // removal: the tombstone is the durable commit point of the delete.
  {
    std::ofstream marker(std::filesystem::path(root) / "studies" / "doomed" /
                         "tombstone");
    marker << "{\"deleted_at\":1.0}";
  }
  // Manifest-less debris (a crash before create's commit point) is swept.
  std::filesystem::create_directories(std::filesystem::path(root) /
                                      "studies" / "halfborn");

  StudyManager recovered(MakeStudySchedulerFactory(StudySpace()), options);
  EXPECT_EQ(recovered.study_count(), 1u);
  EXPECT_EQ(recovered.stats().tombstones_completed, 1u);
  EXPECT_NE(recovered.FindServer("kept"), nullptr);
  EXPECT_EQ(recovered.FindServer("doomed"), nullptr);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(root) /
                                       "studies" / "doomed"));
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(root) /
                                       "studies" / "halfborn"));
}

// Durable studies are compacted through Scheduler::Snapshot, so a scheduler
// that cannot snapshot is refused at create time with nothing on disk; a
// leftover manifest would make every restart rebuild the unservable study.
// Every snapshot-capable registry tuner is created over the wire, leases a
// job, and survives a crash with that lease open.
TEST(StudyDurability, RefusesSchedulersThatCannotSnapshot) {
  const std::string root = FreshDir("snapshot_only");
  StudyManagerOptions options = BaseOptions();
  options.durability_root = root;
  options.default_config = Json();
  const StudySchedulerFactory factory = MakeStudySchedulerFactory(StudySpace());

  std::map<std::string, std::int64_t> open_jobs;
  {
    StudyManager manager(factory, options);
    for (const std::string& name : TunerNames()) {
      const Json reply =
          manager.HandleMessage(CreateMessage(name, TunerConfig(name)), 0.0);
      if (factory(TunerConfig(name))->SupportsSnapshot()) {
        ASSERT_EQ(ReplyType(reply), "ack") << name;
        const Json grant = manager.HandleMessage(RequestJob(1, name), 1.0);
        ASSERT_EQ(ReplyType(grant), "job") << name;
        open_jobs[name] = grant.at("job_id").AsInt();
      } else {
        EXPECT_EQ(ReplyType(reply), "error") << name;
        EXPECT_NE(reply.at("message").AsString().find("snapshot"),
                  std::string::npos)
            << name;
        EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(root) /
                                             "studies" / name))
            << name;
      }
    }
    // No clean shutdown: the manager dies like a killed process.
  }
  ASSERT_FALSE(open_jobs.empty());
  ASSERT_LT(open_jobs.size(), TunerNames().size());

  StudyManager recovered(factory, options);
  EXPECT_EQ(recovered.stats().recovered, open_jobs.size());
  std::vector<std::string> names;
  for (const StudyInfo& info : recovered.ListStudies()) {
    names.push_back(info.name);
  }
  std::vector<std::string> servable;
  for (const auto& [name, job] : open_jobs) servable.push_back(name);
  EXPECT_EQ(names, servable);
  for (const auto& [name, job] : open_jobs) {
    EXPECT_EQ(ReplyType(recovered.HandleMessage(Heartbeat(1, job, name), 2.0)),
              "ack")
        << name;
    EXPECT_EQ(ReplyType(recovered.HandleMessage(Report(1, job, 0.5, name),
                                                3.0)),
              "ack")
        << name;
    EXPECT_EQ(recovered.FindServer(name)->stats().jobs_completed, 1u) << name;
  }
}

TEST(StudyDurability, RecoversAThousandStudies) {
  const std::string root = FreshDir("thousand");
  StudyManagerOptions options = BaseOptions();
  options.durability_root = root;
  options.default_config = Json();
  options.sync = SyncPolicy::kNone;  // throughput: this test is about scale
  {
    StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(manager.CreateStudy("study-" + std::to_string(i),
                                      RandomConfig(i), 0.0));
    }
    // Scatter some state so recovery replays real journals, not just
    // manifests.
    for (int i = 0; i < 1000; i += 97) {
      const std::string name = "study-" + std::to_string(i);
      const Json grant = manager.HandleMessage(RequestJob(i, name), 1.0);
      ASSERT_EQ(ReplyType(grant), "job");
    }
    EXPECT_EQ(manager.study_count(), 1000u);
  }
  StudyManager recovered(MakeStudySchedulerFactory(StudySpace()), options);
  EXPECT_EQ(recovered.study_count(), 1000u);
  EXPECT_EQ(recovered.stats().recovered, 1000u);
  // Spot-check a replayed lease survived.
  EXPECT_EQ(ReplyType(recovered.HandleMessage(Heartbeat(97, 1, "study-97"),
                                              2.0)),
            "ack");
}

// ---------------------------------------------------------------------------
// Worker integration: the held report keeps its routing key.

class FlatEnv final : public JobEnvironment {
 public:
  double Loss(const Configuration& config, Resource resource) override {
    return config.GetDouble("x") / (1.0 + resource);
  }
  double Duration(const Configuration&, Resource from, Resource to) override {
    return (to - from) * 0.01;
  }
};

/// ServerConnection over a StudyManager with an outage switch — the
/// manager-level twin of DirectConnection.
class ManagerConnection final : public ServerConnection {
 public:
  explicit ManagerConnection(StudyManager* manager = nullptr)
      : manager_(manager) {}
  void Attach(StudyManager* manager) { manager_ = manager; }
  void Detach() { manager_ = nullptr; }
  std::optional<Json> Send(const Json& message, double now) override {
    if (manager_ == nullptr) return std::nullopt;
    return manager_->HandleMessage(message, now);
  }

 private:
  StudyManager* manager_;
};

TEST(StudyWorker, HeldReportKeepsItsStudyAcrossServerRestart) {
  const std::string root = FreshDir("held_report");
  StudyManagerOptions options = BaseOptions();
  options.durability_root = root;
  // No default study: a report that lost its routing key would come back
  // as an unknown-study error instead of landing in "alpha".
  options.default_config = Json();

  FlatEnv environment;
  SimulatedWorker worker(1, environment, /*heartbeat_interval=*/5.0);
  worker.SetStudy("alpha");
  ManagerConnection connection;

  {
    StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
    ASSERT_TRUE(manager.CreateStudy("alpha", RandomConfig(3), 0.0));
    connection.Attach(&manager);
    worker.OnTick(connection, 0.0);  // leases a job, starts training
    ASSERT_TRUE(worker.IsTraining());
    // The server dies while the job is still running...
    connection.Detach();
    // ...and the job finishes during the outage: the report is held.
    worker.OnTick(connection, 10.0);
    EXPECT_TRUE(worker.has_pending_report());
    EXPECT_EQ(worker.jobs_completed(), 0u);
  }

  // The server restarts from disk. The retried report must still carry
  // study=alpha — the payload was built with its routing key up front.
  StudyManager restarted(MakeStudySchedulerFactory(StudySpace()), options);
  ASSERT_EQ(restarted.study_count(), 1u);
  connection.Attach(&restarted);
  worker.OnTick(connection, worker.next_action_time());
  EXPECT_FALSE(worker.has_pending_report());
  EXPECT_EQ(worker.jobs_completed(), 1u);

  const auto infos = restarted.ListStudies();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "alpha");
  EXPECT_EQ(infos[0].jobs_completed, 1u);
  EXPECT_EQ(infos[0].active_leases, 0u);
}

TEST(StudyWorker, ScopedWorkerDrivesAStudyEndToEnd) {
  StudyManagerOptions options = BaseOptions();
  options.default_config = Json();
  StudyManager manager(MakeStudySchedulerFactory(StudySpace()), options);
  Json config = RandomConfig(11);
  config.Set("max_trials", Json(std::int64_t{8}));
  ASSERT_TRUE(manager.CreateStudy("solo", config, 0.0));

  FlatEnv environment;
  SimulatedWorker worker(1, environment, /*heartbeat_interval=*/5.0);
  worker.SetStudy("solo");
  ManagerConnection connection(&manager);
  for (double now = 0; now < 50; now += 0.25) {
    if (now >= worker.next_action_time()) worker.OnTick(connection, now);
  }
  EXPECT_EQ(worker.jobs_completed(), 8u);
  const auto infos = manager.ListStudies();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].jobs_completed, 8u);
  EXPECT_EQ(infos[0].active_leases, 0u);
}

}  // namespace
}  // namespace hypertune
