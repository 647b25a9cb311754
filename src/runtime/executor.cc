#include "runtime/executor.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace hypertune {

ThreadPoolExecutor::ThreadPoolExecutor(Scheduler& scheduler,
                                       TrainFunction train,
                                       ExecutorOptions options)
    : scheduler_(scheduler),
      train_(std::move(train)),
      options_(std::move(options)),
      hazards_(options_.hazards, options_.hazard_seed),
      lifecycle_(scheduler,
                 {.telemetry = options_.telemetry,
                  // Spans are emitted by the workers outside the lock (see
                  // WorkerLoop); the lifecycle owns validation, records,
                  // counters, and the incumbent trajectory.
                  .emit_spans = false,
                  .completed_counter = "executor.jobs_completed",
                  .lost_counter = "executor.jobs_lost",
                  .track_recommendations = true}) {
  HT_CHECK(options_.num_workers > 0);
  HT_CHECK(options_.prefetch >= 0);
  HT_CHECK(options_.hazard_time_scale >= 0);
  HT_CHECK(train_ != nullptr);
  if (options_.telemetry != nullptr) {
    auto& metrics = options_.telemetry->metrics();
    queue_wait_histogram_ = &metrics.histogram(
        "executor.queue_wait_seconds", ExponentialBuckets(1e-4, 4, 12));
    job_seconds_histogram_ = &metrics.histogram(
        "executor.job_seconds", ExponentialBuckets(1e-4, 4, 12));
  }
}

bool ThreadPoolExecutor::StopRequested(
    std::chrono::steady_clock::time_point start) const {
  if (shutting_down_) return true;
  if (options_.max_jobs > 0 &&
      lifecycle_.completed_jobs() >= options_.max_jobs) {
    return true;
  }
  if (options_.wall_clock_budget.count() > 0 &&
      std::chrono::steady_clock::now() - start >= options_.wall_clock_budget) {
    return true;
  }
  return false;
}

std::optional<ThreadPoolExecutor::PendingJob>
ThreadPoolExecutor::AcquireLocked() {
  auto leased = lifecycle_.Acquire();
  if (!leased) return std::nullopt;
  PendingJob pending;
  pending.lease = *std::move(leased);
  if (hazards_.enabled()) {
    // Fates are drawn at lease time, under the lock: the draw order is the
    // lease order, so one worker + one seed reproduces the simulator's
    // per-job hazard sequence exactly.
    const double base =
        options_.hazard_duration
            ? options_.hazard_duration(pending.lease.job)
            : pending.lease.job.to_resource - pending.lease.job.from_resource;
    pending.plan = hazards_.Plan(base);
    pending.plan_base = base;
  }
  return pending;
}

void ThreadPoolExecutor::RefillPrefetchLocked(
    std::chrono::steady_clock::time_point start) {
  if (options_.prefetch <= 0 || StopRequested(start)) return;
  while (static_cast<int>(prefetch_buffer_.size()) < options_.prefetch) {
    auto pending = AcquireLocked();
    if (!pending) break;
    prefetch_buffer_.push_back(*std::move(pending));
  }
}

void ThreadPoolExecutor::WorkerLoop(
    int worker_index, std::chrono::steady_clock::time_point start) {
  Telemetry* const telemetry = options_.telemetry;
  const auto elapsed = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Sleeps a virtual hazard duration scaled into real seconds (no-op at the
  // default scale of 0): how straggler inflation and dropped jobs' partial
  // runtimes become observable on this backend.
  const auto inject_delay = [this](double virtual_units) {
    if (options_.hazard_time_scale <= 0 || virtual_units <= 0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        virtual_units * options_.hazard_time_scale));
  };

  std::unique_lock<std::mutex> lock(mutex_);
  // When the worker last became free (for queue-wait accounting): measured
  // on the run clock for records and on the sink's clock for the histogram.
  double free_since = elapsed();
  double span_free_since = telemetry != nullptr ? telemetry->Now() : 0;
  for (;;) {
    if (StopRequested(start) || scheduler_.Finished()) break;

    std::optional<PendingJob> pending;
    if (!prefetch_buffer_.empty()) {
      pending = std::move(prefetch_buffer_.front());
      prefetch_buffer_.pop_front();
    } else {
      pending = AcquireLocked();
    }
    if (!pending) {
      if (active_jobs_ == 0) {
        // No work, no buffered work, and no running job could unlock any:
        // the run is over (e.g. a capped tuner drained, or a wedged
        // synchronous bracket).
        break;
      }
      // Park until a completion (which may enable promotions) or shutdown;
      // the timed wait keeps wall-clock budgets responsive and backstops
      // completions that unlock more than one job.
      ++idle_workers_;
      work_available_.wait_for(lock, std::chrono::milliseconds(50));
      --idle_workers_;
      continue;
    }

    ++active_jobs_;
    // If buffered jobs remain, a parked sibling can start one right away.
    if (!prefetch_buffer_.empty() && idle_workers_ > 0) {
      work_available_.notify_one();
    }
    lock.unlock();

    const double job_start = elapsed();
    const double queue_wait = job_start - free_since;
    double span_start = 0;
    if (telemetry != nullptr) {
      span_start = telemetry->Now();
      queue_wait_histogram_->Observe(span_start - span_free_since);
    }

    const Job& job = pending->lease.job;
    double loss = 0;
    bool completed = true;
    if (pending->plan.dropped()) {
      // The hazard preempted this worker partway through: the job consumed
      // (scaled) time but its training never lands.
      completed = false;
      inject_delay(*pending->plan.drop_after);
    } else {
      try {
        loss = train_(job);
      } catch (...) {
        completed = false;  // worker crash / preemption -> lost job
      }
      if (completed) {
        inject_delay(pending->plan.duration - pending->plan_base);
      }
    }

    // Telemetry JSON stays out of the critical section: EmitJobSpan touches
    // only the thread-safe sink, never the lifecycle's state.
    if (telemetry != nullptr) {
      const double span_end = telemetry->Now();
      span_free_since = span_end;
      job_seconds_histogram_->Observe(span_end - span_start);
      EmitJobSpan(telemetry, job, !completed, loss,
                  RunTiming{span_start, span_end, 0, worker_index});
    }
    const double job_end = elapsed();
    free_since = job_end;

    lock.lock();
    --active_jobs_;
    const RunTiming timing{job_start, job_end, queue_wait, worker_index};
    if (completed) {
      lifecycle_.Complete(pending->lease, loss, timing);
    } else {
      lifecycle_.Lose(pending->lease, timing);
    }
    // The lock is already hot: top the prefetch buffer back up so idle
    // workers dequeue without paying their own scheduler call.
    RefillPrefetchLocked(start);
    // A completion hands out at most one unlocked job (plus whatever the
    // refill buffered, chained above on dequeue): wake one parked worker,
    // not the whole pool.
    if (idle_workers_ > 0) work_available_.notify_one();
  }
  // Wake parked siblings so they observe the stop condition too.
  shutting_down_ = true;
  work_available_.notify_all();
}

ExecutorResult ThreadPoolExecutor::Run() {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers.emplace_back([this, i, start] { WorkerLoop(i, start); });
  }
  for (auto& worker : workers) worker.join();

  ExecutorResult result;
  // Elapsed covers the run itself, not the post-join bookkeeping below.
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Jobs leased ahead but never trained are resolved as lost through the
  // same lifecycle guard — the accounting a crashed worker's lease expiry
  // produces — so nothing is left pending.
  for (auto& pending : prefetch_buffer_) {
    lifecycle_.Lose(pending.lease, {result.elapsed_seconds,
                                    result.elapsed_seconds, 0, -1});
  }
  prefetch_buffer_.clear();
  result.jobs_completed = lifecycle_.completed_jobs();
  result.jobs_lost = lifecycle_.lost_jobs();
  result.records = lifecycle_.TakeRecords();
  result.recommendations = lifecycle_.TakeRecommendations();
  // Resolutions land in lock-acquisition order, which can interleave a
  // hair differently from the end timestamps stamped outside the lock;
  // restore global completion order.
  std::stable_sort(result.records.begin(), result.records.end(),
                   [](const RunRecord& a, const RunRecord& b) {
                     return a.end_time < b.end_time;
                   });
  return result;
}

}  // namespace hypertune
