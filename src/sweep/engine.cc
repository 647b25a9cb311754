#include "sweep/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/stats.h"
#include "sweep/stats.h"

namespace hypertune {

namespace {

// Everything the per-thread cell loop reads, fixed before the fan-out.
struct SweepShared {
  SweepShared(const SweepSpec& spec_in,
              const std::vector<BenchmarkNorms>& norms_in,
              std::size_t cells_in)
      : spec(spec_in), norms(norms_in), cells(cells_in) {}

  const SweepSpec& spec;
  const std::vector<BenchmarkNorms>& norms;
  std::size_t cells = 0;
  // The work queue: one fetch_add claims one cell. Relaxed is enough — the
  // only cross-thread edges that matter are the claim itself (RMW total
  // order) and the join at the end, which publishes the result slots.
  std::atomic<std::size_t> next{0};
  // First failure wins; losers stop claiming.
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
};

// One cell: build the tuner, run the study in the thread's reusable
// context, reduce to the deterministic result row. `TabularBenchmark`
// lookups are const-pure, so many threads share one instance; the
// scheduler and driver are cell-local.
SweepCellResult RunCell(const SweepShared& shared, const SweepCell& cell,
                        SimContext& context) {
  const SweepSpec& spec = shared.spec;
  const SweepBenchmark& benchmark = spec.benchmarks[cell.benchmark];
  const BenchmarkNorms& norms = shared.norms[cell.benchmark];
  TabularBenchmark& table = *benchmark.table;

  TunerParams params = spec.params;
  params.seed = spec.seeds[cell.seed_index];
  auto scheduler = MakeTuner(spec.schedulers[cell.scheduler],
                             {.space = &table.space(),
                              .R = table.max_resource(),
                              .resumable = table.resumable(),
                              .random_guess_loss = norms.random_guess},
                             params);

  DriverOptions options;
  options.num_workers = spec.fleets[cell.fleet_index];
  options.time_limit = spec.time_limit;
  if (spec.full_train_budget > 0) {
    options.time_limit =
        std::min(options.time_limit,
                 spec.full_train_budget * norms.mean_full_time);
  }
  options.max_completed_jobs = spec.max_jobs;
  options.record_runs = false;
  options.track_recommendations = false;
  SimulationDriver driver(*scheduler, table, options);
  const DriverResult run = driver.Run(context);

  SweepCellResult result;
  result.benchmark = static_cast<std::uint32_t>(cell.benchmark);
  result.scheduler = static_cast<std::uint32_t>(cell.scheduler);
  result.seed = params.seed;
  result.workers = options.num_workers;
  const auto incumbent = scheduler->Current();
  result.final_loss = incumbent.has_value()
                          ? incumbent->loss
                          : std::numeric_limits<double>::quiet_NaN();
  result.normalized_regret =
      NormalizedRegret(result.final_loss, norms.best_final,
                       norms.median_final);
  result.end_time = run.end_time;
  result.utilization =
      run.end_time > 0
          ? run.busy_time /
                (static_cast<double>(options.num_workers) * run.end_time)
          : 0.0;
  result.jobs_completed = run.jobs_completed;
  result.jobs_dropped = run.jobs_dropped;
  result.trials = scheduler->trials().size();
  return result;
}

void CellLoop(SweepShared& shared, std::vector<SweepCellResult>& results) {
  SimContext context;  // one per thread, reused across every claimed cell
  for (;;) {
    if (shared.failed.load(std::memory_order_relaxed)) return;
    const std::size_t index =
        shared.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= shared.cells) return;
    try {
      results[index] = RunCell(shared, CellAt(shared.spec, index), context);
    } catch (...) {
      const std::scoped_lock lock(shared.error_mutex);
      if (shared.error == nullptr) shared.error = std::current_exception();
      shared.failed.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

}  // namespace

BenchmarkNorms ComputeNorms(const TabularBenchmark& table) {
  const std::size_t top = table.num_fidelities() - 1;
  std::vector<double> finals;
  finals.reserve(table.rows());
  BenchmarkNorms norms;
  norms.best_final = std::numeric_limits<double>::infinity();
  norms.random_guess = -std::numeric_limits<double>::infinity();
  double total_full_time = 0;
  for (std::uint32_t row = 0; row < table.rows(); ++row) {
    const double final_loss = table.LossAt(row, top);
    finals.push_back(final_loss);
    if (final_loss < norms.best_final) norms.best_final = final_loss;
    const double first_loss = table.LossAt(row, 0);
    if (first_loss > norms.random_guess) norms.random_guess = first_loss;
    total_full_time += table.CumTimeAt(row, top);
  }
  norms.median_final = Median(finals);
  norms.mean_full_time = total_full_time / table.rows();
  return norms;
}

std::vector<SweepCellResult> RunSweep(const SweepSpec& spec,
                                      const SweepOptions& options,
                                      SweepThroughput* throughput) {
  ValidateSpec(spec);
  HT_CHECK_MSG(options.threads > 0, "sweep needs at least one thread");
  const auto start = std::chrono::steady_clock::now();

  std::vector<BenchmarkNorms> norms;
  norms.reserve(spec.benchmarks.size());
  for (const auto& benchmark : spec.benchmarks) {
    norms.push_back(ComputeNorms(*benchmark.table));
  }

  SweepShared shared{spec, norms, CellCount(spec)};
  std::vector<SweepCellResult> results(shared.cells);
  const auto workers = static_cast<std::size_t>(options.threads);
  if (workers <= 1 || shared.cells <= 1) {
    CellLoop(shared, results);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      threads.emplace_back([&] { CellLoop(shared, results); });
    }
    for (auto& thread : threads) thread.join();
  }
  if (shared.error != nullptr) std::rethrow_exception(shared.error);

  if (throughput != nullptr) {
    throughput->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    throughput->cells = shared.cells;
    throughput->jobs = 0;
    for (const auto& result : results) {
      throughput->jobs += result.jobs_completed;
    }
  }
  return results;
}

}  // namespace hypertune
