// The experiment runner behind every bench binary: runs a registry tuner on
// a named surrogate benchmark for several trials, returns aggregated
// trajectories plus bookkeeping statistics.
#pragma once

#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "registry/registry.h"
#include "sim/driver.h"

namespace hypertune {

class Telemetry;

/// One compared method: a display label plus a registry tuner name and its
/// parameters. Each trial overrides `params.seed` with its own seed.
struct Method {
  std::string label;
  std::string tuner;
  TunerParams params;
};

struct ExperimentOptions {
  int num_trials = 5;
  int num_workers = 1;
  double time_limit = 1000;
  HazardOptions hazards;
  /// Time-grid resolution of the aggregated series.
  std::size_t grid_points = 24;
  std::uint64_t base_seed = 1000;
  /// Optional observability sink (not owned). The *first* repetition of
  /// each method runs fully instrumented — scheduler, driver, and worker
  /// spans land in the sink's tracer — so one seeded run stays readable in
  /// a trace viewer; later repetitions run dark (metrics from them would be
  /// indistinguishable anyway and overlapping traces are useless).
  Telemetry* telemetry = nullptr;
};

struct MethodResult {
  std::string method;
  AggregateSeries series;
  std::vector<Trajectory> trajectories;
  /// Per-trial bookkeeping, averaged.
  double mean_trials_evaluated = 0;
  double mean_jobs_completed = 0;
  double mean_jobs_dropped = 0;
  double mean_worker_utilization = 0;  // busy time / (workers * end time)
  /// Real (not simulated) wall-clock per trial, and the slice of it the
  /// tuner spent fitting its surrogate model (Scheduler::Cost) — the
  /// tuner-overhead share baseline benches report.
  double mean_wall_seconds = 0;
  double mean_model_fit_seconds = 0;
  double mean_model_full_fits = 0;
  double mean_model_incremental_fits = 0;
  /// total model-fit seconds / total wall seconds across trials (0 when the
  /// tuner fits no model).
  double model_fit_share = 0;
};

/// Runs `num_trials` independent tuning runs of `method` on the benchmark
/// `benchmarks::ByName(benchmark_name, trial_seed)` builds, and aggregates
/// them. Throws CheckError for an unknown benchmark or tuner name.
MethodResult RunExperiment(const std::string& benchmark_name,
                           const Method& method,
                           const ExperimentOptions& options);

}  // namespace hypertune
