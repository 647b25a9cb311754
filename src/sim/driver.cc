#include "sim/driver.h"

#include <utility>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace hypertune {

namespace {

// Cold twin of the dispatch-path positivity check: keeps the ostringstream
// machinery out of the dispatch loop's instruction stream.
[[gnu::noinline]] void FailNonPositiveDuration(double base) {
  HT_CHECK_MSG(base > 0, "job duration must be positive, got " << base);
}

}  // namespace

// All mutable per-run state lives in `context`, reset here; reusing a
// context across runs changes only where the storage comes from, never a
// byte of output.
DriverResult SimulationDriver::Run(SimContext& context) {
  Scheduler& scheduler = scheduler_;
  JobEnvironment& environment = environment_;
  const DriverOptions& options = options_;
  HazardInjector hazards(options.hazards, options.seed);
  // Disabled hazards consume no randomness, so skipping Plan() entirely
  // leaves the fate sequence (there is none) unchanged.
  const bool hazards_on = hazards.enabled();
  DriverResult result;
  Telemetry* const telemetry = options.telemetry;
  VirtualClock* const vclock =
      telemetry != nullptr ? telemetry->virtual_clock() : nullptr;
  TrialLifecycle lifecycle(scheduler,
                           {.telemetry = telemetry,
                            .emit_spans = true,
                            .span_profile = SpanProfile::kFull,
                            .completed_counter = "driver.jobs_completed",
                            .lost_counter = "driver.jobs_dropped",
                            .track_recommendations =
                                options.track_recommendations,
                            .emit_recommendation_events =
                                options.track_recommendations,
                            .record_runs = options.record_runs,
                            .batch_telemetry = options.batch_telemetry});

  const auto workers = static_cast<std::size_t>(options.num_workers);
  // Slots past the worker count keep their (stale) contents; resize only
  // grows, so reused Configuration capacity in live slots survives.
  std::vector<SimContext::Slot>& slab = context.slab_;
  if (slab.size() < workers) slab.resize(workers);
  // When each worker last became free (for RunRecord::queue_wait). Nothing
  // reads queue_wait when records and telemetry are both off, so the
  // throughput path skips the per-job traffic on this array entirely.
  const bool need_timing = options.record_runs || telemetry != nullptr;
  std::vector<double>& free_since = context.free_since_;
  free_since.assign(workers, 0.0);
  // Lowest-index-first worker assignment keeps trace tracks deterministic.
  IdleWorkerSet& idle_workers = context.idle_workers_;
  idle_workers.Reset(options.num_workers);
  BinaryEventHeap& queue = context.heap_;
  queue.Clear();
  queue.Reserve(workers);
  double now = 0;
  std::uint64_t seq = 0;

  auto dispatch_idle_workers = [&] {
    if (vclock != nullptr) vclock->Set(now);
    while (!idle_workers.empty()) {
      // Claim the lowest free worker before leasing so the job lands
      // straight in its slab slot; re-inserting the same lowest index on
      // a dry scheduler restores the set exactly.
      const int worker = idle_workers.PopLowest();
      const auto slot = static_cast<std::size_t>(worker);
      SimContext::Slot& active = slab[slot];
      if (!lifecycle.AcquireInto(active.lease)) {
        idle_workers.Insert(worker);
        break;  // no work right now; retry after the next event
      }
      const double base = environment.Duration(active.lease.job.config,
                                               active.lease.job.from_resource,
                                               active.lease.job.to_resource);
      if (!(base > 0)) [[unlikely]] FailNonPositiveDuration(base);
      double end_after = base;
      bool dropped = false;
      if (hazards_on) {
        const HazardPlan plan = hazards.Plan(base);
        end_after = plan.end_after();
        dropped = plan.dropped();
      }
      active.start = now;
      if (need_timing) active.queue_wait = now - free_since[slot];
      active.dropped = dropped;
      queue.Push({now + end_after, seq++, static_cast<std::uint32_t>(worker)});
    }
  };

  dispatch_idle_workers();
  while (!queue.empty()) {
    const SimEvent event = queue.Top();
    if (event.end > options.time_limit) break;  // budget exhausted
    queue.PopTop();
    now = event.end;
    if (vclock != nullptr) vclock->Set(now);
    const int worker = static_cast<int>(event.slot);
    SimContext::Slot& active = slab[event.slot];
    idle_workers.Insert(worker);
    if (need_timing) free_since[event.slot] = now;
    result.busy_time += now - active.start;

    const RunTiming timing{active.start, now, active.queue_wait, worker};
    if (active.dropped) {
      lifecycle.Lose(active.lease, timing);
    } else {
      const double loss = environment.Loss(active.lease.job.config,
                                           active.lease.job.to_resource);
      lifecycle.Complete(active.lease, loss, timing);
    }

    if (options.max_completed_jobs > 0 &&
        lifecycle.completed_jobs() >= options.max_completed_jobs) {
      break;
    }
    if (scheduler.Finished()) break;
    dispatch_idle_workers();
  }

  result.jobs_in_flight = queue.size();
  result.end_time = now;
  result.jobs_completed = lifecycle.completed_jobs();
  result.jobs_dropped = lifecycle.lost_jobs();
  result.completions = lifecycle.TakeRecords();
  result.recommendations = lifecycle.TakeRecommendations();
  lifecycle.FlushTelemetry();
  if (telemetry != nullptr) {
    auto& metrics = telemetry->metrics();
    if (result.jobs_in_flight > 0) {
      metrics.counter("driver.jobs_stranded")
          .Increment(static_cast<std::int64_t>(result.jobs_in_flight));
    }
    metrics.gauge("driver.end_time").Set(result.end_time);
    if (result.end_time > 0) {
      metrics.gauge("driver.worker_utilization")
          .Set(result.busy_time /
               (static_cast<double>(options.num_workers) * result.end_time));
    }
  }
  return result;
}

SimulationDriver::SimulationDriver(Scheduler& scheduler,
                                   JobEnvironment& environment,
                                   DriverOptions options)
    : scheduler_(scheduler), environment_(environment), options_(options) {
  HT_CHECK(options_.num_workers > 0);
  HT_CHECK(options_.time_limit > 0);
}

DriverResult SimulationDriver::Run() {
  SimContext context;
  return Run(context);
}

}  // namespace hypertune
