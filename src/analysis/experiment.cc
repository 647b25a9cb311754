#include "analysis/experiment.h"

#include <chrono>

#include "common/check.h"
#include "surrogate/benchmarks.h"
#include "telemetry/telemetry.h"

namespace hypertune {

MethodResult RunExperiment(const std::string& benchmark_name,
                           const Method& method,
                           const ExperimentOptions& options) {
  HT_CHECK(options.num_trials > 0);
  MethodResult result;
  result.method = method.label;
  TunerParams params = method.params;

  for (int trial = 0; trial < options.num_trials; ++trial) {
    const std::uint64_t seed =
        options.base_seed + static_cast<std::uint64_t>(trial) * 7919;
    auto benchmark = benchmarks::ByName(benchmark_name, seed);
    params.seed = seed;
    auto scheduler = MakeTunerByName(method.tuner, *benchmark, params);

    DriverOptions driver_options;
    driver_options.num_workers = options.num_workers;
    driver_options.time_limit = options.time_limit;
    driver_options.hazards = options.hazards;
    driver_options.seed = seed ^ 0x5eedULL;
    if (trial == 0 && options.telemetry != nullptr) {
      driver_options.telemetry = options.telemetry;
      scheduler->SetTelemetry(options.telemetry);
    }

    SimulationDriver driver(*scheduler, *benchmark, driver_options);
    const auto wall_start = std::chrono::steady_clock::now();
    const DriverResult run = driver.Run();
    result.mean_wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const SchedulerCost cost = scheduler->Cost();
    result.mean_model_fit_seconds += cost.model_fit_seconds;
    result.mean_model_full_fits += static_cast<double>(cost.model_full_fits);
    result.mean_model_incremental_fits +=
        static_cast<double>(cost.model_incremental_fits);

    result.trajectories.push_back(
        TestMetricTrajectory(run, scheduler->trials(), *benchmark));
    result.mean_trials_evaluated +=
        static_cast<double>(scheduler->trials().size());
    result.mean_jobs_completed += static_cast<double>(run.jobs_completed);
    result.mean_jobs_dropped += static_cast<double>(run.jobs_dropped);
    if (run.end_time > 0) {
      result.mean_worker_utilization +=
          run.busy_time /
          (static_cast<double>(options.num_workers) * run.end_time);
    }
  }

  const auto n = static_cast<double>(options.num_trials);
  result.mean_trials_evaluated /= n;
  result.mean_jobs_completed /= n;
  result.mean_jobs_dropped /= n;
  result.mean_worker_utilization /= n;
  if (result.mean_wall_seconds > 0) {
    result.model_fit_share =
        result.mean_model_fit_seconds / result.mean_wall_seconds;
  }
  result.mean_wall_seconds /= n;
  result.mean_model_fit_seconds /= n;
  result.mean_model_full_fits /= n;
  result.mean_model_incremental_fits /= n;

  result.series = Aggregate(result.trajectories,
                            UniformGrid(options.time_limit, options.grid_points));
  return result;
}

}  // namespace hypertune
