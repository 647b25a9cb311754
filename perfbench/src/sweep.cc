// sweep-golden and sweep-fleet512: simulated studies through the sweep
// engine over the committed HTTB0001 tables.
//
//   sweep-golden    the CI grid: both tables x {asha, sha, hyperband,
//                   random} x 5 seeds x fleets {4, 16}, budget 20 full
//                   trainings, calendar engine (80 cells). Many short
//                   cells: per-cell setup, table lookups, small fleets.
//   sweep-fleet512  both tables x {asha, async_hyperband} x 5 seeds x
//                   fleet 512, budget 20, capped at kFleet512Jobs jobs per
//                   cell (20 cells). The paper's 500-worker regime: rung
//                   and promotion work with 512 events in flight.
//
// The grid's scheduler seeds are seed..seed+4, so --seed 1 is exactly the
// CI grid (report checked byte for byte against
// tools/golden/sweep_report.json) and the fleet-512 reference grid
// (checked against perfbench/fleet512.digest). Other seeds check that the
// 4-thread report is byte-identical to a 1-thread one.
//
// One repetition: RunSweep at kThreads threads + BuildSweepReport (the
// throughput figures), then a replay of every cell through the public
// MakeTuner / SimulationDriver::Run(SimContext&) path with RunCell's
// DriverOptions, timed per cell (the latency figures), whose jobs,
// end_time and final_loss must equal RunSweep's exactly. Traced runs
// replay with timing decorators around the scheduler and the table.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "registry/registry.h"
#include "sim/driver.h"
#include "surrogate/table.h"
#include "sweep/engine.h"
#include "sweep/report.h"
#include "sweep/spec.h"
#include "timed.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace ht = hypertune;

constexpr int kThreads = 4;
constexpr std::size_t kGridSeeds = 5;
constexpr std::size_t kFleet512Jobs = 20000;
constexpr int kSetupReps = 9;
constexpr int kRecoveryPerRep = 3;
constexpr int kMinReps = 3;

const char* const kTableNames[] = {"cifar_convnet", "ptb_lstm"};

struct Tables {
  std::vector<std::unique_ptr<ht::TabularBenchmark>> tables;
  std::vector<ht::BenchmarkNorms> norms;
};

std::string TablePath(const RunOptions& options, const char* name) {
  return options.repo_root + "/tools/golden/tables/" + name + ".httb";
}

/// What a (re)started sweep does before its first cell: map each table
/// (header + CRC validated) and compute its normalization constants.
Tables OpenTables(const RunOptions& options) {
  Tables tables;
  for (const char* name : kTableNames) {
    tables.tables.push_back(
        ht::TabularBenchmark::FromFile(TablePath(options, name)));
    tables.norms.push_back(ht::ComputeNorms(*tables.tables.back()));
  }
  return tables;
}

ht::SweepSpec MakeSpec(const RunOptions& options, const Tables& tables) {
  ht::SweepSpec spec;
  for (std::size_t i = 0; i < tables.tables.size(); ++i) {
    spec.benchmarks.push_back({kTableNames[i], tables.tables[i].get()});
  }
  for (std::size_t i = 0; i < kGridSeeds; ++i) {
    spec.seeds.push_back(options.seed + i);
  }
  spec.full_train_budget = 20;
  spec.event_queue = ht::SimEngine::kCalendar;
  if (options.workload == "sweep-golden") {
    spec.schedulers = {"asha", "sha", "hyperband", "random"};
    spec.fleets = {4, 16};
  } else {
    spec.schedulers = {"asha", "async_hyperband"};
    spec.fleets = {512};
    spec.max_jobs = kFleet512Jobs;
  }
  return spec;
}

// ---- the replay path -------------------------------------------------------

struct CellOutcome {
  std::uint64_t jobs = 0;
  double end_time = 0;
  double final_loss = 0;
  double wall_us = 0;
};

/// RunCell's steps, from outside the engine.
CellOutcome ReplayCell(const ht::SweepSpec& spec,
                       const std::vector<ht::BenchmarkNorms>& norms,
                       std::size_t index, ht::SimContext& context,
                       bool traced) {
  const std::int64_t start = NowNs();
  Span cell_span(SpanKind::kSweepCell, index + 1);
  const ht::SweepCell cell = ht::CellAt(spec, index);
  ht::TabularBenchmark& table = *spec.benchmarks[cell.benchmark].table;
  const ht::BenchmarkNorms& norm = norms[cell.benchmark];
  TimedEnvironment timed_table(table);
  ht::JobEnvironment& environment =
      traced ? static_cast<ht::JobEnvironment&>(timed_table) : table;

  ht::TunerParams params = spec.params;
  params.seed = spec.seeds[cell.seed_index];
  std::unique_ptr<ht::Scheduler> scheduler;
  std::optional<ht::SimulationDriver> driver;
  {
    Span setup_span(SpanKind::kSweepCellSetup);
    scheduler = ht::MakeTuner(spec.schedulers[cell.scheduler],
                              {.space = &table.space(),
                               .R = table.max_resource(),
                               .resumable = table.resumable(),
                               .random_guess_loss = norm.random_guess},
                              params);
    if (traced) {
      scheduler = std::make_unique<TimedScheduler>(std::move(scheduler));
    }
    ht::DriverOptions options;
    options.num_workers = spec.fleets[cell.fleet_index];
    options.time_limit = spec.time_limit;
    if (spec.full_train_budget > 0) {
      options.time_limit = std::min(
          options.time_limit, spec.full_train_budget * norm.mean_full_time);
    }
    options.max_completed_jobs = spec.max_jobs;
    options.event_queue = spec.event_queue;
    options.record_runs = false;
    options.track_recommendations = false;
    driver.emplace(*scheduler, environment, options);
  }
  ht::DriverResult run;
  {
    Span run_span(SpanKind::kSimRun);
    run = driver->Run(context);
  }
  CellOutcome outcome;
  outcome.jobs = run.jobs_completed;
  outcome.end_time = run.end_time;
  const auto incumbent = scheduler->Current();
  outcome.final_loss = incumbent ? incumbent->loss
                                 : std::numeric_limits<double>::quiet_NaN();
  outcome.wall_us = static_cast<double>(NowNs() - start) / 1e3;
  return outcome;
}

/// Every cell of the grid, claimed by `threads` threads off one counter
/// (the engine's scheme), one SimContext per thread.
std::vector<CellOutcome> ReplayGrid(const ht::SweepSpec& spec,
                                    const std::vector<ht::BenchmarkNorms>& norms,
                                    bool traced) {
  const std::size_t cells = ht::CellCount(spec);
  std::vector<CellOutcome> outcomes(cells);
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto loop = [&](int thread) {
    if (traced) GlobalTracer().AttachThisThread("replay-" + std::to_string(thread));
    try {
      ht::SimContext context;
      for (;;) {
        const std::size_t index = next.fetch_add(1);
        if (index >= cells) break;
        outcomes[index] = ReplayCell(spec, norms, index, context, traced);
      }
    } catch (...) {
      const std::scoped_lock lock(error_mu);
      if (error == nullptr) error = std::current_exception();
      next.store(cells);
    }
    Tracer::DetachThisThread();
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(loop, t);
  for (auto& thread : pool) thread.join();
  if (error != nullptr) std::rethrow_exception(error);
  return outcomes;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// ---- the run ---------------------------------------------------------------

struct GridRep {
  double grid_s = 0;    // RunSweep + BuildSweepReport
  double engine_s = 0;  // RunSweep alone
  double report_ns = 0;
  std::uint64_t jobs = 0;      // completed
  std::uint64_t resolved = 0;  // completed + dropped
  double replay_s = 0;
  std::uint64_t replay_jobs = 0;
  // Per-cell wall time of the replay (every cell of the grid).
  double p50_us = 0;
  double p99_us = 0;
};

std::string ReportBytes(const ht::SweepSpec& spec,
                        const std::vector<ht::SweepCellResult>& results) {
  return ht::BuildSweepReport(spec, results).Dump(2) + "\n";
}

class SweepRun {
 public:
  SweepRun(const RunOptions& options, RunResult& result)
      : options_(options), result_(result) {}

  bool SetUp();
  bool RunRep(bool traced);
  double ThreadScaling();

  std::vector<GridRep> reps;
  std::vector<double> setup_s, recovery_s;
  std::vector<ht::SweepCellResult> results;
  ht::SweepSpec spec;

 private:
  bool CheckReport(const std::string& bytes);

  const RunOptions& options_;
  RunResult& result_;
  Tables tables_;
  std::string expected_;  // golden report bytes or committed digest
  std::string first_report_;
  double single_thread_s_ = 0;  // 1-thread RunSweep + report, if it ran
};

bool SweepRun::SetUp() {
  for (int i = 0; i < kSetupReps; ++i) {
    const std::int64_t start = NowNs();
    for (const char* name : kTableNames) {
      ht::VerifyTableFile(TablePath(options_, name));
    }
    tables_ = OpenTables(options_);
    spec = MakeSpec(options_, tables_);
    ht::ValidateSpec(spec);
    if (options_.seed == 1) {
      const std::string path =
          options_.workload == "sweep-golden"
              ? options_.repo_root + "/tools/golden/sweep_report.json"
              : options_.bench_dir + "/fleet512.digest";
      if (!ReadFile(path, &expected_)) {
        result_.Fail("cannot read " + path);
        return false;
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return true;
}

bool SweepRun::CheckReport(const std::string& bytes) {
  if (!first_report_.empty()) {
    if (bytes == first_report_) return true;
    result_.Fail("report changed between repetitions");
    return false;
  }
  first_report_ = bytes;
  if (options_.seed != 1) {
    // Other seeds: 1-thread vs kThreads byte identity.
    const std::int64_t start = NowNs();
    const std::string single =
        ReportBytes(spec, ht::RunSweep(spec, ht::SweepOptions{.threads = 1}));
    single_thread_s_ = static_cast<double>(NowNs() - start) / 1e9;
    if (single == bytes) return true;
    result_.Fail("report differs between 1 and 4 threads");
    return false;
  }
  if (options_.workload == "sweep-golden") {
    if (bytes == expected_) return true;
    result_.Fail("report differs from tools/golden/sweep_report.json");
    return false;
  }
  const std::string digest = Digest(bytes);
  if (expected_.compare(0, digest.size(), digest) == 0) return true;
  result_.Fail("report digest " + digest + " differs from fleet512.digest");
  return false;
}

bool SweepRun::RunRep(bool traced) {
  GridRep rep;
  if (!traced) {
    const std::size_t cells = ht::CellCount(spec);
    const std::int64_t start = NowNs();
    ht::SweepThroughput throughput;
    try {
      results = ht::RunSweep(spec, ht::SweepOptions{.threads = kThreads},
                             &throughput);
    } catch (const std::exception& e) {
      result_.failed += cells;
      result_.Fail(std::string("RunSweep failed: ") + e.what());
      return false;
    }
    const std::int64_t report_start = NowNs();
    const std::string bytes = ReportBytes(spec, results);
    const std::int64_t end = NowNs();
    result_.attempted += cells;
    rep.grid_s = static_cast<double>(end - start) / 1e9;
    rep.engine_s = throughput.wall_seconds;
    rep.report_ns = static_cast<double>(end - report_start);
    for (const auto& cell : results) {
      rep.jobs += cell.jobs_completed;
      rep.resolved += cell.jobs_completed + cell.jobs_dropped;
    }
    if (!CheckReport(bytes)) return false;

    for (int i = 0; i < kRecoveryPerRep; ++i) {
      const std::int64_t reopen = NowNs();
      const Tables reopened = OpenTables(options_);
      recovery_s.push_back(static_cast<double>(NowNs() - reopen) / 1e9);
    }
  }

  const std::int64_t replay_start = NowNs();
  std::vector<CellOutcome> outcomes;
  try {
    outcomes = ReplayGrid(spec, tables_.norms, traced);
  } catch (const std::exception& e) {
    result_.Fail(std::string("replay failed: ") + e.what());
    return false;
  }
  rep.replay_s = static_cast<double>(NowNs() - replay_start) / 1e9;
  result_.attempted += outcomes.size();
  std::vector<double> cell_us;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const CellOutcome& got = outcomes[i];
    const ht::SweepCellResult& want = results[i];
    if (got.jobs != want.jobs_completed ||
        !SameBits(got.end_time, want.end_time) ||
        !SameBits(got.final_loss, want.final_loss)) {
      ++result_.failed;
      result_.Fail("replay of cell " + std::to_string(i) +
                   " differs from RunSweep");
      return false;
    }
    rep.replay_jobs += got.jobs;
    cell_us.push_back(got.wall_us);
  }
  rep.p50_us = Percentile(cell_us, 0.50);
  rep.p99_us = Percentile(cell_us, 0.99);
  std::fprintf(stderr,
               "%s rep: grid %.3f s (RunSweep %.3f s), replay %.3f s%s\n",
               options_.workload.c_str(), rep.grid_s, rep.engine_s,
               rep.replay_s, traced ? " (traced)" : "");
  reps.push_back(rep);
  return true;
}

double SweepRun::ThreadScaling() {
  if (single_thread_s_ == 0) {
    const std::int64_t start = NowNs();
    const std::string single =
        ReportBytes(spec, ht::RunSweep(spec, ht::SweepOptions{.threads = 1}));
    single_thread_s_ = static_cast<double>(NowNs() - start) / 1e9;
    if (single != first_report_) {
      result_.Fail("report differs between 1 and 4 threads");
    }
  }
  // Both sides include BuildSweepReport.
  std::vector<double> grid;
  for (const GridRep& rep : reps) {
    if (rep.grid_s > 0) grid.push_back(rep.grid_s);
  }
  return single_thread_s_ / MedianOf(grid);
}

}  // namespace

RunResult RunSweepWorkload(const RunOptions& options) {
  RunResult result;
  SweepRun run(options, result);
  if (!run.SetUp()) return result;
  // Warm-up: one untimed repetition faults in the heap, thread arenas and
  // table pages. Its output checks count like any other.
  if (!run.RunRep(false)) return result;
  run.reps.clear();
  run.recovery_s.clear();
  const std::int64_t start = NowNs();
  const auto elapsed = [&] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const int min_reps = options.trace ? 1 : kMinReps;
  while (static_cast<int>(run.reps.size()) < min_reps ||
         elapsed() < untraced_seconds) {
    if (!run.RunRep(false)) return result;
  }
  const std::size_t untraced_reps = run.reps.size();

  std::vector<double> studies_rate, jobs_rate, msgs_rate, report_ns,
      replay_rate, p50, p99;
  for (const GridRep& rep : run.reps) {
    const auto cells = static_cast<double>(ht::CellCount(run.spec));
    studies_rate.push_back(cells / rep.grid_s);
    jobs_rate.push_back(static_cast<double>(rep.jobs) / rep.engine_s);
    msgs_rate.push_back(2.0 * static_cast<double>(rep.resolved) /
                        rep.engine_s);
    report_ns.push_back(rep.report_ns);
    replay_rate.push_back(static_cast<double>(rep.replay_jobs) /
                          rep.replay_s);
    p50.push_back(rep.p50_us);
    p99.push_back(rep.p99_us);
  }
  std::fprintf(stderr,
               "%s: %zu reps of %zu cells, median per-rep cell latency "
               "p50 %.1f us p99 %.1f us\n",
               options.workload.c_str(), run.reps.size(),
               ht::CellCount(run.spec), MedianOf(p50), MedianOf(p99));

  if (!options.trace) {
    result.Add("msgs_per_s", MedianOf(msgs_rate), "msg/s");
    result.Add("latency_p50_us", MedianOf(p50), "us");
    result.Add("jobs_per_s", MedianOf(jobs_rate), "jobs/s");
    result.Add("studies_per_s", MedianOf(studies_rate), "studies/s");
    result.Add("recovery_s", MedianOf(run.recovery_s), "s");
    result.Add("setup_s", MedianOf(run.setup_s), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  // ---- traced: replay with decorators, then the per-layer figures ----
  const double scaling = run.ThreadScaling();
  while (run.reps.size() == untraced_reps || elapsed() < options.seconds) {
    if (!run.RunRep(true)) return result;
  }
  std::vector<double> traced_rate;
  std::uint64_t traced_jobs = 0;
  for (std::size_t i = untraced_reps; i < run.reps.size(); ++i) {
    const GridRep& rep = run.reps[i];
    traced_rate.push_back(static_cast<double>(rep.replay_jobs) / rep.replay_s);
    traced_jobs += rep.replay_jobs;
  }

  const Totals totals = GlobalTracer().Sum();
  auto mean_ns = [](const SpanTotals& t) {
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.wall_ns) /
                              static_cast<double>(t.count);
  };
  auto per_job = [&](double value) {
    return traced_jobs == 0 ? 0.0 : value / static_cast<double>(traced_jobs);
  };
  const auto& get_job = Of(totals, SpanKind::kSchedulerGetJob);
  const auto& report = Of(totals, SpanKind::kSchedulerReport);
  const auto& lookup = Of(totals, SpanKind::kSurrogateLookup);
  const auto& sim_run = Of(totals, SpanKind::kSimRun);
  double utilization = 0;
  for (const auto& cell : run.results) utilization += cell.utilization;
  utilization /= static_cast<double>(run.results.size());

  result.Add("scheduler.get_job_ns", mean_ns(get_job), "ns");
  result.Add("scheduler.report_ns", mean_ns(report), "ns");
  result.Add("scheduler.calls_per_job",
             per_job(static_cast<double>(get_job.count + report.count)),
             "count");
  result.Add("surrogate.lookup_ns", mean_ns(lookup), "ns");
  result.Add("surrogate.lookups_per_job",
             per_job(static_cast<double>(lookup.count)), "count");
  result.Add("sim.driver_self_ns_per_job",
             per_job(static_cast<double>(sim_run.self_ns)), "ns");
  result.Add("sim.utilization", utilization, "ratio");
  result.Add("sweep.cell_setup_ns",
             mean_ns(Of(totals, SpanKind::kSweepCellSetup)), "ns");
  result.Add("sweep.report_ns", MedianOf(report_ns), "ns");
  result.Add("sweep.thread_scaling", scaling, "ratio");
  result.Add("tail.latency_p99_us", MedianOf(p99), "us");
  const double overhead = 1.0 - MedianOf(traced_rate) / MedianOf(replay_rate);
  result.Add("trace.msgs_per_s_overhead", overhead, "ratio");
  result.Add("trace.jobs_per_s_overhead", overhead, "ratio");
  return result;
}

}  // namespace perfbench
