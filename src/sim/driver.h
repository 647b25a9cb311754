// The event-driven simulation driver: couples any Scheduler to a pool of
// virtual workers executing jobs in a JobEnvironment, with optional
// straggler/drop hazards, and records everything the paper's figures plot.
//
// This replaces the paper's physical clusters (25 AWS g2.2xlarge workers,
// 16 GPUs, 500 Vizier workers): the tuning algorithms observe exactly the
// same information — job hand-outs, completion times, losses — so their
// relative behaviour (promotion stalls, straggler sensitivity, linear
// scaling) is preserved while runs stay deterministic and fast.
//
// The driver is a thin adapter over the shared trial-lifecycle core
// (src/lifecycle): TrialLifecycle owns leasing, outcome validation,
// RunRecord/recommendation recording, and job-span emission; the driver
// contributes what is backend-specific — virtual time, one binary event
// heap that pops completions in ascending (end, seq) order, and
// deterministic lowest-free-index worker assignment.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduler.h"
#include "lifecycle/hazards.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/run_record.h"
#include "sim/environment.h"
#include "sim/event_queue.h"

namespace hypertune {

class Telemetry;

/// Ignored. The simulator has one event queue, BinaryEventHeap (see
/// src/sim/event_queue.h). This enum survives only because
/// perfbench/src/sweep.cc still names an engine; setting it changes
/// nothing, and it goes once that caller stops naming one.
enum class SimEngine {
  kBinaryHeap,
  kCalendar,
};

struct DriverOptions {
  int num_workers = 1;
  /// Virtual-time budget; events after this instant are not processed.
  double time_limit = 1e18;
  HazardOptions hazards;
  /// Seed for straggler/drop draws (independent of the scheduler's stream).
  std::uint64_t seed = 99;
  /// Stop early once this many jobs have completed (0 = no cap).
  std::size_t max_completed_jobs = 0;
  /// Optional observability sink (not owned; must outlive the run). The
  /// driver advances the sink's virtual clock to each event's virtual time
  /// before touching the scheduler, emits one span per job on the executing
  /// worker's track plus recommendation-change instants, and fills
  /// driver.* counters/gauges. With a virtual-clock sink and a fixed seed
  /// the recorded trace is byte-identical across reruns.
  Telemetry* telemetry = nullptr;
  /// Ignored shim; see SimEngine. Nothing in the simulator reads it.
  SimEngine event_queue = SimEngine::kBinaryHeap;
  /// Keep one RunRecord per resolved job in DriverResult::completions.
  /// Throughput harnesses (bench/micro_sim) turn this off; counters and
  /// recommendations are unaffected.
  bool record_runs = true;
  /// Record the incumbent trajectory (DriverResult::recommendations) and
  /// emit recommendation-change instants. Throughput harnesses turn this
  /// off to skip the per-completion Scheduler::Current() query.
  bool track_recommendations = true;
};

struct DriverResult {
  /// One record per resolved job (completions and hazard drops), in
  /// virtual-completion order.
  std::vector<RunRecord> completions;
  std::vector<RecommendationPoint> recommendations;
  double end_time = 0;
  /// Total worker-busy virtual time (for utilization checks).
  double busy_time = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_dropped = 0;
  /// Jobs still occupying workers when Run() stopped (time limit reached,
  /// max_completed_jobs hit, or the scheduler finished mid-flight). These
  /// leases were never resolved, so they appear in no other tally; when
  /// positive, the driver.jobs_stranded counter records the same value.
  std::size_t jobs_in_flight = 0;
};

/// Reusable cross-run storage for SimulationDriver — the event heap, the
/// payload slab (each slot's Configuration capacity included), the idle
/// bitmap, and the per-worker timing buffer. A sweep keeps one context per
/// thread and passes it to Run() for every cell, so storage is allocated
/// once per thread instead of once per run; Run() resets the contents, the
/// capacity survives. Runs using a context are byte-identical to runs
/// without one (pinned by test). Not thread-safe: one context serves one
/// run at a time.
class SimContext {
 public:
  SimContext() = default;
  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

 private:
  friend class SimulationDriver;

  /// Everything a scheduled job carries besides its (end, seq) ordering
  /// key, indexed by worker slot — the simulator runs at most one job per
  /// worker — so the event heap sifts only 20-byte SimEvents and the Job
  /// payload (Configuration included) is written once and never moved.
  struct Slot {
    LeasedJob lease;
    double start = 0;
    double queue_wait = 0;  // worker idle time before this job started
    bool dropped = false;
  };

  BinaryEventHeap heap_;
  std::vector<Slot> slab_;
  std::vector<double> free_since_;  // when each worker last became free
  IdleWorkerSet idle_workers_{1};
};

class SimulationDriver {
 public:
  SimulationDriver(Scheduler& scheduler, JobEnvironment& environment,
                   DriverOptions options);

  /// Runs until the time limit, the scheduler finishes, or the system goes
  /// idle with no dispatchable work.
  DriverResult Run();

  /// Same run, drawing all per-run storage from `context` (reset here, so
  /// any prior contents are discarded). Results are identical to Run().
  DriverResult Run(SimContext& context);

 private:
  Scheduler& scheduler_;
  JobEnvironment& environment_;
  DriverOptions options_;
};

}  // namespace hypertune
