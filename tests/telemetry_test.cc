// The observability subsystem: metric semantics, trace export formats,
// deterministic traces under the simulator, and thread-safety of the
// registry/tracer under the thread-pool executor (the ASan/UBSan CI job
// exercises this binary specifically).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/asha.h"
#include "core/random_search.h"
#include "runtime/executor.h"
#include "searchspace/space.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "telemetry/telemetry.h"

namespace hypertune {
namespace {

TEST(Metrics, CounterSemantics) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("a");
  counter.Increment();
  counter.Increment(4);
  EXPECT_EQ(counter.value(), 5);
  // Same name -> same instrument.
  EXPECT_EQ(&registry.counter("a"), &counter);
  EXPECT_NE(&registry.counter("b"), &counter);
}

TEST(Metrics, GaugeSemantics) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("depth");
  gauge.Set(3.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
  gauge.Add(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.25);
}

TEST(Metrics, HistogramBucketsAndMoments) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("lat", {1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket 0 (<= 1)
  histogram.Observe(1.0);    // bucket 0 (boundary counts down)
  histogram.Observe(7.0);    // bucket 1
  histogram.Observe(1000.0); // overflow
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1008.5);
  EXPECT_EQ(histogram.bucket(0), 2);
  EXPECT_EQ(histogram.bucket(1), 1);
  EXPECT_EQ(histogram.bucket(2), 0);
  EXPECT_EQ(histogram.bucket(3), 1);  // overflow bucket
}

TEST(Metrics, ExponentialBuckets) {
  const auto bounds = ExponentialBuckets(0.001, 10, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.001);
  EXPECT_DOUBLE_EQ(bounds[3], 1.0);
}

TEST(Metrics, SnapshotShape) {
  MetricsRegistry registry;
  registry.counter("z").Increment(2);
  registry.counter("a").Increment(1);
  registry.gauge("g").Set(0.5);
  registry.histogram("h", {1.0}).Observe(0.5);
  const Json snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("counters").at("a").AsInt(), 1);
  EXPECT_EQ(snapshot.at("counters").at("z").AsInt(), 2);
  // Lexicographic emission: "a" before "z" regardless of creation order.
  EXPECT_EQ(snapshot.at("counters").AsObject().front().first, "a");
  EXPECT_DOUBLE_EQ(snapshot.at("gauges").at("g").AsDouble(), 0.5);
  EXPECT_EQ(snapshot.at("histograms").at("h").at("count").AsInt(), 1);
  EXPECT_EQ(snapshot.at("histograms").at("h").at("buckets").size(), 2u);
}

TEST(Tracer, RecordsInstantsAndSpans) {
  EventTracer tracer;
  tracer.Record({.time = 1.5, .name = "promo", .category = "trial"});
  tracer.Record({.time = 2.0,
                 .duration = 0.5,
                 .name = "job",
                 .category = "worker",
                 .worker = 3});
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].IsSpan());
  EXPECT_TRUE(events[1].IsSpan());

  // JSONL: one line per event.
  const std::string jsonl = tracer.ToJsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  const Json first = Json::Parse(jsonl.substr(0, jsonl.find('\n')));
  EXPECT_DOUBLE_EQ(first.at("t").AsDouble(), 1.5);
  EXPECT_EQ(first.at("name").AsString(), "promo");

  // Chrome trace: microsecond timestamps, X/i phases, tid = worker.
  const Json chrome = tracer.ToChromeTrace();
  const auto& trace_events = chrome.at("traceEvents").AsArray();
  ASSERT_EQ(trace_events.size(), 2u);
  EXPECT_EQ(trace_events[0].at("ph").AsString(), "i");
  EXPECT_EQ(trace_events[1].at("ph").AsString(), "X");
  EXPECT_DOUBLE_EQ(trace_events[1].at("ts").AsDouble(), 2e6);
  EXPECT_DOUBLE_EQ(trace_events[1].at("dur").AsDouble(), 0.5e6);
  EXPECT_EQ(trace_events[1].at("tid").AsInt(), 3);
}

TEST(Telemetry, ClockSelection) {
  Telemetry steady;
  EXPECT_EQ(steady.virtual_clock(), nullptr);
  steady.AdvanceTo(1e9);  // no-op on a steady clock
  EXPECT_LT(steady.Now(), 1e6);

  auto sim = Telemetry::ForSimulation();
  ASSERT_NE(sim->virtual_clock(), nullptr);
  sim->AdvanceTo(42.5);
  EXPECT_DOUBLE_EQ(sim->Now(), 42.5);
  sim->Event("e", "c");
  ASSERT_EQ(sim->tracer().size(), 1u);
  EXPECT_DOUBLE_EQ(sim->tracer().Events()[0].time, 42.5);
}

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
  double Duration(const Configuration& config, Resource from,
                  Resource to) override {
    return (to - from) * (1.0 + config.GetDouble("x"));
  }
};

struct SimRunOutput {
  std::string jsonl;
  std::string chrome;
  Json metrics;
  DriverResult result;
};

SimRunOutput RunSeededSimulation(std::uint64_t seed) {
  AshaOptions options;
  options.r = 1;
  options.R = 16;
  options.eta = 4;
  options.max_trials = 64;
  options.seed = seed;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  auto telemetry = Telemetry::ForSimulation();
  asha.SetTelemetry(telemetry.get());

  RankEnv env;
  DriverOptions driver_options;
  driver_options.num_workers = 8;
  driver_options.seed = seed ^ 0xabcdULL;
  driver_options.hazards.drop_probability = 0.05;
  driver_options.telemetry = telemetry.get();
  SimulationDriver driver(asha, env, driver_options);

  SimRunOutput out;
  out.result = driver.Run();
  out.jsonl = telemetry->tracer().ToJsonl();
  out.chrome = telemetry->tracer().ToChromeTrace().Dump(2);
  out.metrics = telemetry->MetricsJson();
  return out;
}

TEST(Telemetry, SeededSimulationTracesAreByteIdentical) {
  const SimRunOutput a = RunSeededSimulation(7);
  const SimRunOutput b = RunSeededSimulation(7);
  EXPECT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.metrics, b.metrics);

  // A different seed produces a different trace (the determinism above is
  // not vacuous).
  const SimRunOutput c = RunSeededSimulation(8);
  EXPECT_NE(a.jsonl, c.jsonl);
}

TEST(Telemetry, SimulationCountsMatchDriverResult) {
  const SimRunOutput run = RunSeededSimulation(21);
  const Json& counters = run.metrics.at("metrics").at("counters");
  EXPECT_EQ(counters.at("driver.jobs_completed").AsInt(),
            static_cast<std::int64_t>(run.result.jobs_completed));
  if (run.result.jobs_dropped > 0) {
    EXPECT_EQ(counters.at("driver.jobs_dropped").AsInt(),
              static_cast<std::int64_t>(run.result.jobs_dropped));
    EXPECT_EQ(counters.at("scheduler.jobs_lost").AsInt(),
              static_cast<std::int64_t>(run.result.jobs_dropped));
  }
  EXPECT_EQ(counters.at("scheduler.results").AsInt(),
            static_cast<std::int64_t>(run.result.jobs_completed));

  // Worker spans use distinct tracks bounded by the worker-pool size, and
  // every span falls within the run's virtual-time horizon.
  std::int64_t max_tid = 0;
  std::size_t spans = 0;
  const Json chrome = Json::Parse(run.chrome);
  for (const auto& event : chrome.at("traceEvents").AsArray()) {
    if (event.at("ph").AsString() != "X") continue;
    ++spans;
    max_tid = std::max(max_tid, event.at("tid").AsInt());
    EXPECT_GE(event.at("ts").AsDouble(), 0);
    EXPECT_GT(event.at("dur").AsDouble(), 0);
  }
  EXPECT_EQ(spans, run.result.jobs_completed + run.result.jobs_dropped);
  EXPECT_LT(max_tid, 8);
}

// Wraps a scheduler and, on every GetJob, compares the driver's outcome
// counters with the outcomes reported to the scheduler so far. The driver
// bumps its counters as each lease resolves, so the two never differ.
class CounterProbe final : public Scheduler {
 public:
  CounterProbe(Scheduler& inner, Telemetry& telemetry)
      : inner_(inner),
        completed_(telemetry.metrics().counter("driver.jobs_completed")),
        dropped_(telemetry.metrics().counter("driver.jobs_dropped")) {}

  std::optional<Job> GetJob() override {
    ++probes_;
    if (completed_.value() != reported_ || dropped_.value() != lost_) {
      ++stale_reads_;
    }
    return inner_.GetJob();
  }
  void ReportResult(const Job& job, double loss) override {
    ++reported_;
    inner_.ReportResult(job, loss);
  }
  void ReportLost(const Job& job) override {
    ++lost_;
    inner_.ReportLost(job);
  }
  bool Finished() const override { return inner_.Finished(); }
  std::optional<Recommendation> Current() const override {
    return inner_.Current();
  }
  const TrialBank& trials() const override { return inner_.trials(); }
  std::string name() const override { return inner_.name(); }

  std::int64_t probes() const { return probes_; }
  std::int64_t stale_reads() const { return stale_reads_; }
  std::int64_t reported() const { return reported_; }
  std::int64_t lost() const { return lost_; }

 private:
  Scheduler& inner_;
  Counter& completed_;
  Counter& dropped_;
  std::int64_t probes_ = 0;
  std::int64_t stale_reads_ = 0;
  std::int64_t reported_ = 0;
  std::int64_t lost_ = 0;
};

TEST(Telemetry, DriverCountersAreLiveDuringRun) {
  AshaOptions options;
  options.r = 1;
  options.R = 16;
  options.eta = 4;
  options.max_trials = 64;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  auto telemetry = Telemetry::ForSimulation();
  CounterProbe probe(asha, *telemetry);

  RankEnv env;
  DriverOptions driver_options;
  driver_options.num_workers = 8;
  driver_options.hazards.drop_probability = 0.1;
  driver_options.telemetry = telemetry.get();
  SimulationDriver driver(probe, env, driver_options);
  const DriverResult result = driver.Run();

  ASSERT_GT(result.jobs_completed, 0u);
  ASSERT_GT(result.jobs_dropped, 0u);
  EXPECT_EQ(probe.reported(),
            static_cast<std::int64_t>(result.jobs_completed));
  EXPECT_EQ(probe.lost(), static_cast<std::int64_t>(result.jobs_dropped));
  EXPECT_GT(probe.probes(), probe.reported());
  EXPECT_EQ(probe.stale_reads(), 0);
}

TEST(Telemetry, ExecutorEmitsSpansAndHistograms) {
  AshaOptions options;
  options.r = 1;
  options.R = 16;
  options.eta = 4;
  options.max_trials = 40;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  Telemetry telemetry;  // steady clock: the real-execution configuration
  asha.SetTelemetry(&telemetry);

  ExecutorOptions executor_options;
  executor_options.num_workers = 4;
  executor_options.telemetry = &telemetry;
  ThreadPoolExecutor executor(
      asha, [](const Job& job) { return job.config.GetDouble("x"); },
      executor_options);
  const ExecutorResult result = executor.Run();

  EXPECT_GT(result.jobs_completed, 0u);
  const Json snapshot = telemetry.metrics().Snapshot();
  EXPECT_EQ(snapshot.at("counters").at("executor.jobs_completed").AsInt(),
            static_cast<std::int64_t>(result.jobs_completed));
  EXPECT_EQ(snapshot.at("histograms")
                .at("executor.job_seconds")
                .at("count")
                .AsInt(),
            static_cast<std::int64_t>(result.jobs_completed));
  EXPECT_GE(snapshot.at("histograms")
                .at("executor.queue_wait_seconds")
                .at("count")
                .AsInt(),
            static_cast<std::int64_t>(result.jobs_completed));

  // One span per executed job, on a valid worker track.
  std::size_t spans = 0;
  for (const auto& event : telemetry.tracer().Events()) {
    if (!event.IsSpan()) continue;
    ++spans;
    EXPECT_EQ(event.category, "worker");
    EXPECT_GE(event.worker, 0);
    EXPECT_LT(event.worker, 4);
  }
  EXPECT_EQ(spans, result.jobs_completed + result.jobs_lost);
}

TEST(Telemetry, ExecutorCountsLostJobs) {
  AshaOptions options;
  options.r = 1;
  options.R = 4;
  options.eta = 4;
  options.max_trials = 20;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  Telemetry telemetry;
  ExecutorOptions executor_options;
  executor_options.num_workers = 2;
  executor_options.telemetry = &telemetry;
  ThreadPoolExecutor executor(
      asha,
      [](const Job& job) -> double {
        if (job.trial_id % 3 == 0) throw std::runtime_error("preempted");
        return job.config.GetDouble("x");
      },
      executor_options);
  const ExecutorResult result = executor.Run();
  EXPECT_GT(result.jobs_lost, 0u);
  EXPECT_EQ(telemetry.metrics().Snapshot()
                .at("counters")
                .at("executor.jobs_lost")
                .AsInt(),
            static_cast<std::int64_t>(result.jobs_lost));
}

TEST(Metrics, ConcurrentUpdatesAreLossless) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hits");
  Histogram& histogram = registry.histogram("obs", {0.25, 0.5, 0.75});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        histogram.Observe(static_cast<double>((t + i) % 100) / 100.0);
        // Concurrent registration of the same name must also be safe.
        registry.gauge("shared").Set(static_cast<double>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  std::int64_t bucket_total = 0;
  for (std::size_t i = 0; i <= histogram.bounds().size(); ++i) {
    bucket_total += histogram.bucket(i);
  }
  EXPECT_EQ(bucket_total, histogram.count());
}

TEST(Telemetry, SummaryTextListsEventsAndMetrics) {
  auto telemetry = Telemetry::ForSimulation();
  telemetry->AdvanceTo(1.0);
  telemetry->Event("promo", "trial");
  telemetry->Count("scheduler.promotions");
  telemetry->metrics().histogram("lat", {1.0}).Observe(0.5);
  const std::string summary = telemetry->SummaryText();
  EXPECT_NE(summary.find("trial"), std::string::npos);
  EXPECT_NE(summary.find("scheduler.promotions"), std::string::npos);
  EXPECT_NE(summary.find("lat"), std::string::npos);
}

}  // namespace
}  // namespace hypertune
