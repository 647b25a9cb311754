// The distributed tuning service: protocol handling, job leases, heartbeat
// renewal, lease-expiry lost-job detection, and an end-to-end virtual-time
// harness with simulated (and crashing) workers.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/asha.h"
#include "core/random_search.h"
#include "core/trial_json.h"
#include "service/server.h"
#include "service/worker.h"
#include "telemetry/telemetry.h"

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
    return config.GetDouble("x") * (1.0 + 1.0 / resource);
  }
  double Duration(const Configuration&, Resource from, Resource to) override {
    return to - from;
  }
};

Json RequestJob(std::uint64_t worker) {
  Json message = JsonObject{};
  message.Set("type", Json("request_job"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  return message;
}

Json Report(std::uint64_t worker, std::int64_t job_id, double loss) {
  Json message = JsonObject{};
  message.Set("type", Json("report"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("job_id", Json(job_id));
  message.Set("loss", Json(loss));
  return message;
}

Json Heartbeat(std::uint64_t worker, std::int64_t job_id) {
  Json message = JsonObject{};
  message.Set("type", Json("heartbeat"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("job_id", Json(job_id));
  return message;
}

TEST(JobWireFormat, RoundTrip) {
  Job job;
  job.trial_id = 7;
  job.config.Set("x", ParamValue{0.25});
  job.from_resource = 4;
  job.to_resource = 16;
  job.rung = 2;
  job.bracket = 1;
  job.tag = 99;
  const Job back = JobFromJson(Json::Parse(ToJson(job).Dump()));
  EXPECT_EQ(back.trial_id, job.trial_id);
  EXPECT_EQ(back.config, job.config);
  EXPECT_DOUBLE_EQ(back.from_resource, 4);
  EXPECT_DOUBLE_EQ(back.to_resource, 16);
  EXPECT_EQ(back.rung, 2);
  EXPECT_EQ(back.bracket, 1);
  EXPECT_EQ(back.tag, 99u);
}

TEST(Server, AssignAndReportFlow) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});

  const Json reply = server.HandleMessage(RequestJob(1), /*now=*/0);
  ASSERT_EQ(reply.at("type").AsString(), "job");
  const auto job_id = reply.at("job_id").AsInt();
  EXPECT_EQ(server.stats().jobs_assigned, 1u);
  EXPECT_EQ(server.stats().active_leases, 1u);

  const Json ack = server.HandleMessage(Report(1, job_id, 0.42), 5);
  EXPECT_EQ(ack.at("type").AsString(), "ack");
  EXPECT_EQ(server.stats().jobs_completed, 1u);
  EXPECT_EQ(server.stats().active_leases, 0u);
  ASSERT_TRUE(server.Current().has_value());
  EXPECT_DOUBLE_EQ(server.Current()->loss, 0.42);
}

TEST(Server, LeaseExpiryReportsLost) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});

  const Json reply = server.HandleMessage(RequestJob(1), 0);
  const Job job = JobFromJson(reply.at("job"));
  // Worker goes silent; time passes beyond the lease.
  server.Tick(61);
  EXPECT_EQ(server.stats().leases_expired, 1u);
  EXPECT_EQ(server.stats().active_leases, 0u);
  EXPECT_EQ(scheduler.trials().Get(job.trial_id).status, TrialStatus::kLost);
}

TEST(Server, HeartbeatExtendsLease) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});

  const Json reply = server.HandleMessage(RequestJob(1), 0);
  const auto job_id = reply.at("job_id").AsInt();
  // Heartbeats at 50, 100: lease pushed to 160.
  EXPECT_EQ(server.HandleMessage(Heartbeat(1, job_id), 50).at("type")
                .AsString(), "ack");
  EXPECT_EQ(server.HandleMessage(Heartbeat(1, job_id), 100).at("type")
                .AsString(), "ack");
  server.Tick(155);
  EXPECT_EQ(server.stats().leases_expired, 0u);
  // Report still lands.
  const Json ack = server.HandleMessage(Report(1, job_id, 0.3), 158);
  EXPECT_EQ(ack.at("type").AsString(), "ack");
  EXPECT_FALSE(ack.Has("stale"));
}

TEST(Server, StaleReportAfterExpiryIsIgnored) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});

  const Json reply = server.HandleMessage(RequestJob(1), 0);
  const auto job_id = reply.at("job_id").AsInt();
  server.Tick(100);  // expired -> lost
  const Json ack = server.HandleMessage(Report(1, job_id, 0.3), 101);
  EXPECT_EQ(ack.at("type").AsString(), "ack");
  EXPECT_TRUE(ack.at("stale").AsBool());
  EXPECT_EQ(server.stats().stale_reports_ignored, 1u);
  // The scheduler never saw the stale result.
  EXPECT_FALSE(server.Current().has_value());
}

TEST(Server, HeartbeatForLostLeaseSaysSo) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  const Json reply = server.HandleMessage(RequestJob(1), 0);
  const auto job_id = reply.at("job_id").AsInt();
  const Json late = server.HandleMessage(Heartbeat(1, job_id), 200);
  EXPECT_EQ(late.at("type").AsString(), "lease_lost");
}

TEST(Server, MalformedMessagesGetErrorReplies) {
  RandomSearchOptions options;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {});
  Json bad = JsonObject{};
  bad.Set("type", Json("launch_missiles"));
  EXPECT_EQ(server.HandleMessage(bad, 0).at("type").AsString(), "error");
  Json missing = JsonObject{};
  missing.Set("type", Json("report"));  // no job_id/loss
  EXPECT_EQ(server.HandleMessage(missing, 0).at("type").AsString(), "error");
  EXPECT_EQ(server.stats().malformed_messages, 2u);
}

TEST(Server, EveryErrorReplyIncrementsMalformedCount) {
  // Regression: error-path accounting must hold on *every* error reply —
  // unknown types, missing fields, wrong-typed fields, and non-object
  // messages alike.
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});

  std::vector<Json> bad_messages;
  bad_messages.push_back(Json("not an object"));
  bad_messages.push_back(JsonObject{});  // no type at all
  Json wrong_type = JsonObject{};
  wrong_type.Set("type", Json(42));  // type present but not a string
  bad_messages.push_back(std::move(wrong_type));
  Json unknown = JsonObject{};
  unknown.Set("type", Json("launch_missiles"));
  bad_messages.push_back(std::move(unknown));
  Json no_worker = JsonObject{};
  no_worker.Set("type", Json("request_job"));  // missing worker
  bad_messages.push_back(std::move(no_worker));
  Json no_job_id = JsonObject{};
  no_job_id.Set("type", Json("report"));  // missing job_id/loss
  bad_messages.push_back(std::move(no_job_id));
  Json bad_heartbeat = JsonObject{};
  bad_heartbeat.Set("type", Json("heartbeat"));  // missing job_id
  bad_messages.push_back(std::move(bad_heartbeat));
  Json string_job_id = JsonObject{};
  string_job_id.Set("type", Json("heartbeat"));
  string_job_id.Set("job_id", Json("seven"));  // wrong-typed job_id
  bad_messages.push_back(std::move(string_job_id));

  std::size_t errors = 0;
  for (const auto& message : bad_messages) {
    const Json reply = server.HandleMessage(message, 0);
    EXPECT_EQ(reply.at("type").AsString(), "error") << message.Dump();
    EXPECT_EQ(server.stats().malformed_messages, ++errors) << message.Dump();
  }
}

TEST(Server, ReportMissingLossKeepsLeaseAlive) {
  // A report whose payload fails validation must not consume the lease:
  // the worker's retry (with the loss attached) should still land.
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  const Json reply = server.HandleMessage(RequestJob(1), 0);
  const auto job_id = reply.at("job_id").AsInt();

  Json lossless = JsonObject{};
  lossless.Set("type", Json("report"));
  lossless.Set("job_id", Json(job_id));
  EXPECT_EQ(server.HandleMessage(lossless, 1).at("type").AsString(), "error");
  EXPECT_EQ(server.stats().malformed_messages, 1u);
  EXPECT_EQ(server.stats().active_leases, 1u);

  const Json ack = server.HandleMessage(Report(1, job_id, 0.2), 2);
  EXPECT_EQ(ack.at("type").AsString(), "ack");
  EXPECT_FALSE(ack.Has("stale"));
  EXPECT_EQ(server.stats().jobs_completed, 1u);
}

TEST(Server, TelemetryRecordsLeaseLifecycle) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  auto telemetry = Telemetry::ForSimulation();
  TuningServer server(scheduler,
                      {.lease_timeout = 60, .telemetry = telemetry.get()});

  const Json reply = server.HandleMessage(RequestJob(1), 0);
  const auto job_id = reply.at("job_id").AsInt();
  server.HandleMessage(Heartbeat(1, job_id), 10);
  server.HandleMessage(Report(1, job_id, 0.4), 20);
  (void)server.HandleMessage(RequestJob(1), 30);
  server.Tick(300);  // second lease expires silently

  std::vector<std::string> names;
  for (const auto& event : telemetry->tracer().Events()) {
    if (event.category == "lease") names.push_back(event.name);
  }
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "lease_granted");
  EXPECT_EQ(names[1], "lease_renewed");
  EXPECT_EQ(names[2], "job_reported");
  EXPECT_EQ(names[3], "lease_granted");  // the second assignment
  EXPECT_EQ(names[4], "lease_expired");
  // Event times are the protocol's virtual `now`, not wall time.
  EXPECT_DOUBLE_EQ(telemetry->tracer().Events().back().time, 300);

  const Json snapshot = telemetry->metrics().Snapshot();
  EXPECT_EQ(snapshot.at("counters").at("server.jobs_assigned").AsInt(), 2);
  EXPECT_EQ(snapshot.at("counters").at("server.leases_expired").AsInt(), 1);
}

TEST(Server, NoJobReplyCarriesRetryHint) {
  // A capped random search with one outstanding job has no work.
  RandomSearchOptions options;
  options.R = 10;
  options.max_trials = 1;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 40});
  (void)server.HandleMessage(RequestJob(1), 0);
  const Json reply = server.HandleMessage(RequestJob(2), 1);
  EXPECT_EQ(reply.at("type").AsString(), "no_job");
  EXPECT_GT(reply.at("retry_after").AsDouble(), 0);
}

TEST(Server, ExpiryTiesProcessedInJobIdOrder) {
  // Three leases granted at the same instant share a deadline; the heap
  // must expire them in ascending job id — the order the old full-scan
  // Tick produced — so traces stay decision-identical.
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  auto telemetry = Telemetry::ForSimulation();
  TuningServer server(scheduler,
                      {.lease_timeout = 60, .telemetry = telemetry.get()});
  std::vector<std::int64_t> job_ids;
  for (std::uint64_t w = 1; w <= 3; ++w) {
    job_ids.push_back(server.HandleMessage(RequestJob(w), 0).at("job_id")
                          .AsInt());
  }
  server.Tick(61);
  EXPECT_EQ(server.stats().leases_expired, 3u);
  std::vector<std::int64_t> expired_order;
  for (const auto& event : telemetry->tracer().Events()) {
    if (event.name == "lease_expired") {
      expired_order.push_back(event.args.at("job_id").AsInt());
    }
  }
  EXPECT_EQ(expired_order, job_ids);  // ascending ids, tie on deadline
}

TEST(Server, RenewalLeavesStaleHeapEntryBehind) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  const auto job_id = server.HandleMessage(RequestJob(1), 0).at("job_id")
                          .AsInt();
  // Renewal pushes a second heap entry; the original one goes stale.
  server.HandleMessage(Heartbeat(1, job_id), 50);
  EXPECT_EQ(server.stats().deadline_heap_entries, 2u);
  EXPECT_EQ(server.stats().active_leases, 1u);
  // The stale entry (deadline 60) comes due and must be discarded against
  // the authoritative deadline (110) instead of expiring the lease.
  server.Tick(61);
  EXPECT_EQ(server.stats().leases_expired, 0u);
  EXPECT_EQ(server.stats().active_leases, 1u);
  EXPECT_EQ(server.stats().deadline_heap_entries, 1u);  // stale one drained
  // The renewed deadline is the real one.
  server.Tick(111);
  EXPECT_EQ(server.stats().leases_expired, 1u);
  EXPECT_EQ(server.stats().deadline_heap_entries, 0u);
}

TEST(Server, ReportAfterRenewalConsumesLeaseCleanly) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  const auto job_id = server.HandleMessage(RequestJob(1), 0).at("job_id")
                          .AsInt();
  server.HandleMessage(Heartbeat(1, job_id), 50);
  const Json ack = server.HandleMessage(Report(1, job_id, 0.2), 70);
  EXPECT_EQ(ack.at("type").AsString(), "ack");
  EXPECT_FALSE(ack.Has("stale"));
  EXPECT_EQ(server.stats().jobs_completed, 1u);
  EXPECT_EQ(server.stats().active_leases, 0u);
  // Both heap entries (original + renewal) are now stale; a far-future
  // sweep must drain them without expiring anything.
  server.Tick(1e6);
  EXPECT_EQ(server.stats().leases_expired, 0u);
  EXPECT_EQ(server.stats().deadline_heap_entries, 0u);
}

Json RequestJobs(std::uint64_t worker, std::int64_t count) {
  Json message = JsonObject{};
  message.Set("type", Json("request_jobs"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("count", Json(count));
  return message;
}

TEST(Server, BatchedRequestLeasesUpToCount) {
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(asha, {.lease_timeout = 60});
  const Json reply = server.HandleMessage(RequestJobs(1, 5), 0);
  ASSERT_EQ(reply.at("type").AsString(), "jobs");
  ASSERT_EQ(reply.at("jobs").size(), 5u);
  EXPECT_FALSE(reply.Has("retry_after"));  // full fill, no hint needed
  EXPECT_EQ(server.stats().jobs_assigned, 5u);
  EXPECT_EQ(server.stats().active_leases, 5u);
  // Every batched lease is individually reportable.
  for (const auto& entry : reply.at("jobs").AsArray()) {
    const Json ack =
        server.HandleMessage(Report(1, entry.at("job_id").AsInt(), 0.5), 10);
    EXPECT_EQ(ack.at("type").AsString(), "ack");
  }
  EXPECT_EQ(server.stats().jobs_completed, 5u);
  EXPECT_EQ(server.stats().active_leases, 0u);
}

TEST(Server, BatchedRequestPartialFillCarriesRetryHint) {
  RandomSearchOptions options;
  options.R = 10;
  options.max_trials = 3;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  const Json reply = server.HandleMessage(RequestJobs(1, 5), 0);
  ASSERT_EQ(reply.at("type").AsString(), "jobs");
  EXPECT_EQ(reply.at("jobs").size(), 3u);  // scheduler went dry mid-batch
  EXPECT_GT(reply.at("retry_after").AsDouble(), 0);
  // The tail of an exhausted scheduler is a plain no_job, same as the
  // single-job path.
  const Json tail = server.HandleMessage(RequestJobs(2, 5), 1);
  EXPECT_EQ(tail.at("type").AsString(), "no_job");
  EXPECT_GT(tail.at("retry_after").AsDouble(), 0);
}

TEST(Server, BatchedRequestCountClampedAndValidated) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  // A hostile count is clamped to kMaxBatch, not honored.
  const Json reply = server.HandleMessage(
      RequestJobs(1, static_cast<std::int64_t>(kMaxBatch) + 1), 0);
  ASSERT_EQ(reply.at("type").AsString(), "jobs");
  EXPECT_EQ(reply.at("jobs").size(), kMaxBatch);
  // count < 1 is malformed, with the usual error accounting.
  EXPECT_EQ(server.HandleMessage(RequestJobs(1, 0), 1).at("type").AsString(),
            "error");
  EXPECT_EQ(server.stats().malformed_messages, 1u);
}

TEST(Service, PrefetchingWorkersDriveAshaToCompletion) {
  // Same end-to-end harness as below, but workers lease 3 jobs per
  // round-trip and keep queued leases alive via heartbeats.
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  options.max_trials = 40;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(asha, {.lease_timeout = 30});
  RankEnv env;
  std::vector<SimulatedWorker> workers;
  for (std::uint64_t i = 0; i < 8; ++i) {
    workers.emplace_back(i, env, /*heartbeat_interval=*/5, /*prefetch=*/3);
  }
  for (double now = 0; now < 400; now += 0.5) {
    for (auto& worker : workers) {
      if (now >= worker.next_action_time()) worker.OnTick(server, now);
    }
  }
  EXPECT_TRUE(asha.Finished());
  // Queued leases were renewed while earlier jobs trained: nothing expired.
  EXPECT_EQ(server.stats().leases_expired, 0u);
  EXPECT_GT(server.stats().jobs_completed, 40u);
  ASSERT_TRUE(server.Current().has_value());
  bool full_training = false;
  for (const auto& trial : asha.trials()) {
    full_training |= trial.resource_trained >= 27;
  }
  EXPECT_TRUE(full_training);
}

TEST(Service, EndToEndVirtualTimeHarness) {
  // 8 simulated workers drive ASHA through the full protocol.
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  options.max_trials = 40;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(asha, {.lease_timeout = 30});
  RankEnv env;
  std::vector<SimulatedWorker> workers;
  for (std::uint64_t i = 0; i < 8; ++i) {
    workers.emplace_back(i, env, /*heartbeat_interval=*/5);
  }
  for (double now = 0; now < 200; now += 0.5) {
    for (auto& worker : workers) {
      if (now >= worker.next_action_time()) worker.OnTick(server, now);
    }
  }
  EXPECT_TRUE(asha.Finished());
  EXPECT_EQ(server.stats().leases_expired, 0u);
  EXPECT_GT(server.stats().jobs_completed, 40u);  // promotions included
  ASSERT_TRUE(server.Current().has_value());
  // Promotions flowed through the protocol: some trial trained to R.
  bool full_training = false;
  for (const auto& trial : asha.trials()) {
    full_training |= trial.resource_trained >= 27;
  }
  EXPECT_TRUE(full_training);
}

TEST(Service, CrashedWorkersJobsAreRecovered) {
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(asha, {.lease_timeout = 10});
  RankEnv env;
  SimulatedWorker healthy(1, env, 2);
  SimulatedWorker doomed(2, env, 2);

  // Both take jobs; one crashes immediately.
  healthy.OnTick(server, 0);
  doomed.OnTick(server, 0);
  doomed.Crash();
  EXPECT_EQ(server.stats().jobs_assigned, 2u);

  std::size_t lost_before = 0;
  for (double now = 0.5; now < 60; now += 0.5) {
    if (now >= healthy.next_action_time()) healthy.OnTick(server, now);
    server.Tick(now);
  }
  EXPECT_EQ(server.stats().leases_expired, 1u);
  for (const auto& trial : asha.trials()) {
    lost_before += trial.status == TrialStatus::kLost;
  }
  EXPECT_EQ(lost_before, 1u);
  // The healthy worker kept making progress throughout.
  EXPECT_GT(healthy.jobs_completed(), 10u);
}

AshaOptions SmallAsha() {
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  options.max_trials = 40;
  return options;
}

TEST(Service, WorkerBacksOffWhileServerIsDown) {
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), SmallAsha());
  TuningServer server(asha, {.lease_timeout = 60});
  RankEnv env;
  auto telemetry = Telemetry::ForSimulation();
  WorkerRetryOptions retry;
  retry.initial_backoff = 1.0;
  retry.max_backoff = 4.0;
  retry.multiplier = 2.0;
  retry.telemetry = telemetry.get();
  SimulatedWorker worker(0, env, /*heartbeat_interval=*/5.0, /*prefetch=*/1,
                         /*hazards=*/nullptr, retry);

  DirectConnection connection;  // detached: the server is unreachable
  worker.OnTick(static_cast<ServerConnection&>(connection), 0);
  EXPECT_EQ(worker.retries(), 1u);
  // Backoff doubles up to the cap: retries land at 1, 3, 7, 11, 15, ...
  EXPECT_DOUBLE_EQ(worker.next_action_time(), 1.0);
  worker.OnTick(static_cast<ServerConnection&>(connection), 1.0);
  EXPECT_DOUBLE_EQ(worker.next_action_time(), 3.0);
  worker.OnTick(static_cast<ServerConnection&>(connection), 3.0);
  EXPECT_DOUBLE_EQ(worker.next_action_time(), 7.0);
  worker.OnTick(static_cast<ServerConnection&>(connection), 7.0);
  EXPECT_DOUBLE_EQ(worker.next_action_time(), 11.0);  // capped at 4
  EXPECT_EQ(worker.retries(), 4u);
  EXPECT_EQ(telemetry->metrics().counter("service.worker_retries").value(),
            4);

  // The server comes back: the very next attempt succeeds and the backoff
  // resets to healthy.
  connection.Attach(&server);
  worker.OnTick(static_cast<ServerConnection&>(connection), 11.0);
  EXPECT_TRUE(worker.IsTraining());
  EXPECT_EQ(worker.retries(), 4u);
}

TEST(Service, WorkerHoldsCompletionReportThroughOutage) {
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), SmallAsha());
  TuningServer server(asha, {.lease_timeout = 1e6});
  RankEnv env;
  SimulatedWorker worker(0, env, /*heartbeat_interval=*/1e6);

  DirectConnection connection(&server);
  worker.OnTick(static_cast<ServerConnection&>(connection), 0);
  ASSERT_TRUE(worker.IsTraining());
  const double finish = worker.next_action_time();

  // The server dies before the job finishes: the report is undeliverable
  // and must be held, not dropped.
  connection.Detach();
  worker.OnTick(static_cast<ServerConnection&>(connection), finish);
  EXPECT_TRUE(worker.has_pending_report());
  EXPECT_EQ(worker.jobs_completed(), 0u);
  EXPECT_EQ(server.stats().jobs_completed, 0u);

  // Server back: the held report is delivered before any new work.
  connection.Attach(&server);
  worker.OnTick(static_cast<ServerConnection&>(connection),
                worker.next_action_time());
  EXPECT_FALSE(worker.has_pending_report());
  EXPECT_EQ(worker.jobs_completed(), 1u);
  EXPECT_EQ(server.stats().jobs_completed, 1u);
}

TEST(Service, JitterDesynchronizesRetryDelays) {
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), SmallAsha());
  RankEnv env;
  WorkerRetryOptions retry;
  retry.initial_backoff = 2.0;
  retry.jitter = 0.5;
  retry.seed = 7;
  SimulatedWorker a(0, env, 5.0, 1, nullptr, retry);
  SimulatedWorker b(1, env, 5.0, 1, nullptr, retry);
  DirectConnection down;  // never attached
  a.OnTick(static_cast<ServerConnection&>(down), 0);
  b.OnTick(static_cast<ServerConnection&>(down), 0);
  // Each delay is backoff * (1 - jitter * u): within (1, 2] here, and the
  // per-worker streams (seed + id) give the fleet distinct delays.
  EXPECT_GT(a.next_action_time(), 1.0);
  EXPECT_LE(a.next_action_time(), 2.0);
  EXPECT_GT(b.next_action_time(), 1.0);
  EXPECT_LE(b.next_action_time(), 2.0);
  EXPECT_NE(a.next_action_time(), b.next_action_time());
}

}  // namespace
}  // namespace hypertune
