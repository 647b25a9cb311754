// Microbenchmarks of the simulation engine fast path (zero-cost-benchmark
// regime): a tabular environment answers Loss/Duration by table lookup, a
// trivial sweep scheduler hands out one job per call, and the driver's
// event loop — heap ops, worker bookkeeping, lifecycle guards — is all
// that remains. Results are recorded in BENCH_sim.json.
//
// Job durations here are evenly spread by construction, which is the best
// case for a calendar queue. That is why this bench once ranked a calendar
// engine ahead of the binary heap, while the end-to-end sweep-fleet512
// workload (ASHA promotions stretching job lengths over a run) ranked them
// the other way round; engine choices are made on perfbench, not here.
//
//   BM_SimJobThroughput/<workers>            untraced event loop
//   BM_SimJobThroughputTraced/<workers>      plus batched telemetry
//   BM_TableLookup                           raw Loss+Duration lookups
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>

#include "sim/driver.h"
#include "surrogate/table.h"
#include "telemetry/telemetry.h"

namespace hypertune {
namespace {

constexpr std::uint32_t kRows = 1024;
constexpr std::size_t kLadder = 8;

// In-memory tabular benchmark: geometric ladder 1..128, per-row cost drawn
// deterministically so completion times spread evenly.
TableData MakeTable() {
  TableData data;
  data.rows = kRows;
  data.resumable = true;
  data.fidelities.resize(kLadder);
  for (std::size_t i = 0; i < kLadder; ++i) {
    data.fidelities[i] = static_cast<double>(std::uint64_t{1} << i);
  }
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t row = 0; row < kRows; ++row) {
    h = h * 0xD1342543DE82EF95ull + 0x2545F4914F6CDD1Dull;
    const double cost =
        0.5 + static_cast<double>(h >> 40) / static_cast<double>(1 << 24);
    for (std::size_t i = 0; i < kLadder; ++i) {
      data.losses.push_back(1.0 / (1.0 + data.fidelities[i]) +
                            static_cast<double>(row % 17) * 1e-3);
      data.cum_times.push_back(cost * data.fidelities[i]);
    }
  }
  return data;
}

// Hands out jobs cycling over table rows and ladder rungs; tallies reports.
// Never finishes on its own — the driver's max_completed_jobs bounds runs.
class SweepScheduler final : public Scheduler {
 public:
  SweepScheduler(std::uint32_t rows, const double* fidelities,
                 std::size_t ladder)
      : rows_(rows), fidelities_(fidelities), ladder_(ladder) {}

  std::optional<Job> GetJob() override {
    std::optional<Job> job(std::in_place);
    job->trial_id = static_cast<TrialId>(handed_);
    job->rung = static_cast<int>(rung_cursor_);
    job->from_resource = 0;
    job->to_resource = fidelities_[rung_cursor_];
    job->config.Set("row", static_cast<std::int64_t>(row_cursor_));
    ++handed_;
    // Wrap-around cursors: a 64-bit modulo per job would dominate the
    // scheduler's cost and pollute the engine measurement.
    if (++rung_cursor_ == ladder_) rung_cursor_ = 0;
    if (++row_cursor_ == rows_) row_cursor_ = 0;
    return job;
  }
  void ReportResult(const Job& job, double loss) override {
    (void)job;
    loss_sum_ += loss;
    ++reported_;
  }
  void ReportLost(const Job& job) override { (void)job; }
  bool Finished() const override { return false; }
  std::optional<Recommendation> Current() const override {
    return std::nullopt;
  }
  const TrialBank& trials() const override { return bank_; }
  std::string name() const override { return "sweep"; }

  double loss_sum() const { return loss_sum_; }

 private:
  std::uint32_t rows_;
  const double* fidelities_;
  std::size_t ladder_;
  std::uint64_t handed_ = 0;
  std::size_t rung_cursor_ = 0;
  std::uint32_t row_cursor_ = 0;
  std::uint64_t reported_ = 0;
  double loss_sum_ = 0;
  TrialBank bank_;
};

void RunThroughput(benchmark::State& state, bool traced) {
  const TableData table = MakeTable();
  constexpr std::size_t kJobsPerRun = 1 << 18;
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TabularBenchmark environment{TableData(table)};
    SweepScheduler scheduler(kRows, table.fidelities.data(), kLadder);
    auto telemetry = traced ? Telemetry::ForSimulation() : nullptr;
    DriverOptions options;
    options.num_workers = workers;
    options.max_completed_jobs = kJobsPerRun;
    options.telemetry = telemetry.get();
    options.record_runs = false;
    options.track_recommendations = false;
    SimulationDriver driver(scheduler, environment, options);
    const DriverResult result = driver.Run();
    benchmark::DoNotOptimize(scheduler.loss_sum());
    if (result.jobs_completed != kJobsPerRun) {
      state.SkipWithError("unexpected completion count");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobsPerRun));
}

void BM_SimJobThroughput(benchmark::State& state) {
  RunThroughput(state, /*traced=*/false);
}
BENCHMARK(BM_SimJobThroughput)
    ->Arg(16)
    ->Arg(512)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_SimJobThroughputTraced(benchmark::State& state) {
  RunThroughput(state, /*traced=*/true);
}
BENCHMARK(BM_SimJobThroughputTraced)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_TableLookup(benchmark::State& state) {
  TabularBenchmark environment{MakeTable()};
  Configuration config;
  config.Set("row", std::int64_t{0});
  std::uint64_t i = 0;
  double sum = 0;
  for (auto _ : state) {
    config.Set("row", static_cast<std::int64_t>(i % kRows));
    const double to = static_cast<double>(std::uint64_t{1} << (i % kLadder));
    sum += environment.Loss(config, to);
    sum += environment.Duration(config, 0, to);
    ++i;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableLookup);

}  // namespace
}  // namespace hypertune

BENCHMARK_MAIN();
