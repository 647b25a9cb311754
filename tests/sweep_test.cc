// Sweep engine coverage (src/sweep): statistics kernels against
// hand-computed fixtures, grid enumeration, and the tentpole property —
// reports byte-identical across thread counts and event-queue engines.
#include "sweep/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "sweep/report.h"
#include "sweep/stats.h"
#include "surrogate/table.h"

namespace hypertune {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------- stats ---

TEST(SweepStats, RankRowsHandFixtures) {
  // Row 0: distinct values -> ranks 2, 1, 3.
  // Row 1: tie for best -> fractional ranks 1.5, 1.5, 3.
  // Row 2: NaN ranks worst.
  const auto ranks = RankRows({{0.2, 0.1, 0.3},
                               {0.5, 0.5, 0.9},
                               {kNaN, 0.4, 0.6}});
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_EQ(ranks[0], (std::vector<double>{2, 1, 3}));
  EXPECT_EQ(ranks[1], (std::vector<double>{1.5, 1.5, 3}));
  EXPECT_EQ(ranks[2], (std::vector<double>{3, 1, 2}));
}

TEST(SweepStats, NormalizedRegretHandFixtures) {
  // best = 0.1, reference (median) = 0.5: gap / 0.4.
  EXPECT_DOUBLE_EQ(NormalizedRegret(0.1, 0.1, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedRegret(0.5, 0.1, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedRegret(0.3, 0.1, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(NormalizedRegret(0.9, 0.1, 0.5), 2.0);
  // Degenerate normalizer (reference <= best): raw gap.
  EXPECT_DOUBLE_EQ(NormalizedRegret(0.4, 0.2, 0.2), 0.2);
  EXPECT_TRUE(std::isnan(NormalizedRegret(kNaN, 0.1, 0.5)));
}

TEST(SweepStats, BootstrapDegenerateFixtures) {
  // Empty sample: all zeros.
  const auto empty = BootstrapMeanCi({}, 100, 0.95, 1);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 0.0);
  EXPECT_EQ(empty.n, 0u);

  // Single observation: the interval collapses onto it.
  const std::vector<double> single = {3.25};
  const auto one = BootstrapMeanCi(single, 100, 0.95, 1);
  EXPECT_DOUBLE_EQ(one.mean, 3.25);
  EXPECT_DOUBLE_EQ(one.lo, 3.25);
  EXPECT_DOUBLE_EQ(one.hi, 3.25);

  // Constant sample: every resample mean is the constant.
  const std::vector<double> twos = {2.0, 2.0, 2.0, 2.0};
  const auto constant = BootstrapMeanCi(twos, 200, 0.95, 7);
  EXPECT_DOUBLE_EQ(constant.mean, 2.0);
  EXPECT_DOUBLE_EQ(constant.lo, 2.0);
  EXPECT_DOUBLE_EQ(constant.hi, 2.0);
}

TEST(SweepStats, BootstrapBracketsTheMeanDeterministically) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto a = BootstrapMeanCi(xs, 1000, 0.95, 42);
  EXPECT_DOUBLE_EQ(a.mean, 4.5);  // the sample mean, not a resample mean
  EXPECT_LE(a.lo, a.mean);
  EXPECT_GE(a.hi, a.mean);
  EXPECT_GE(a.lo, 1.0);
  EXPECT_LE(a.hi, 8.0);
  EXPECT_LT(a.lo, a.hi);  // non-degenerate sample -> non-degenerate interval

  // Same seed reproduces the interval bit-for-bit; the seed matters.
  const auto b = BootstrapMeanCi(xs, 1000, 0.95, 42);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  const auto c = BootstrapMeanCi(xs, 1000, 0.95, 43);
  EXPECT_TRUE(c.lo != a.lo || c.hi != a.hi);

  // Wider confidence -> interval at least as wide.
  const auto wide = BootstrapMeanCi(xs, 1000, 0.99, 42);
  EXPECT_LE(wide.lo, a.lo);
  EXPECT_GE(wide.hi, a.hi);
}

// ----------------------------------------------------------------- grid ---

std::unique_ptr<TabularBenchmark> TinyTable(double scale) {
  TableData data;
  data.rows = 32;
  data.resumable = true;
  data.fidelities = {1.0, 4.0, 16.0};
  for (std::uint32_t row = 0; row < data.rows; ++row) {
    for (std::size_t i = 0; i < data.fidelities.size(); ++i) {
      // Losses fall with fidelity; the row's tail digits keep rows distinct.
      data.losses.push_back(1.0 / (1.0 + static_cast<double>(i)) +
                            0.001 * static_cast<double>((row * 7) % 13));
      data.cum_times.push_back(scale * static_cast<double>(row + 1) *
                               data.fidelities[i]);
    }
  }
  return std::make_unique<TabularBenchmark>(std::move(data));
}

SweepSpec TinySpec(TabularBenchmark* a, TabularBenchmark* b) {
  SweepSpec spec;
  spec.benchmarks = {{"alpha", a}, {"beta", b}};
  spec.schedulers = {"asha", "random"};
  spec.seeds = {1, 2, 3};
  spec.fleets = {2, 8};
  spec.params.n = 16;
  spec.params.r_divisor = 16;
  spec.full_train_budget = 4;
  return spec;
}

TEST(SweepSpec, CellEnumerationRoundTrips) {
  auto table = TinyTable(1.0);
  const SweepSpec spec = TinySpec(table.get(), table.get());
  ASSERT_EQ(CellCount(spec), 2u * 2u * 3u * 2u);
  std::size_t expected = 0;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t d = 0; d < 3; ++d) {
        for (std::size_t f = 0; f < 2; ++f, ++expected) {
          const SweepCell cell = CellAt(spec, expected);
          EXPECT_EQ(cell.index, expected);
          EXPECT_EQ(cell.benchmark, b);
          EXPECT_EQ(cell.scheduler, s);
          EXPECT_EQ(cell.seed_index, d);
          EXPECT_EQ(cell.fleet_index, f);
        }
      }
    }
  }
  EXPECT_THROW(CellAt(spec, CellCount(spec)), CheckError);
}

TEST(SweepSpec, ValidationRejectsUnboundedAndMalformedSpecs) {
  auto table = TinyTable(1.0);
  SweepSpec spec = TinySpec(table.get(), table.get());
  spec.full_train_budget = 0;  // no stop criterion left
  EXPECT_THROW(ValidateSpec(spec), CheckError);
  spec.max_jobs = 10;
  EXPECT_NO_THROW(ValidateSpec(spec));

  spec = TinySpec(table.get(), nullptr);
  EXPECT_THROW(ValidateSpec(spec), CheckError);
  spec = TinySpec(table.get(), table.get());
  spec.fleets = {4, 0};
  EXPECT_THROW(ValidateSpec(spec), CheckError);
  spec.fleets = {};
  EXPECT_THROW(ValidateSpec(spec), CheckError);
}

TEST(SweepEngine, NormsMatchHandComputation) {
  TableData data;
  data.rows = 4;
  data.resumable = true;
  data.fidelities = {1.0, 2.0};
  data.losses = {0.9, 0.4,   // row 0
                 0.8, 0.2,   // row 1
                 0.7, 0.6,   // row 2
                 0.6, 0.3};  // row 3
  data.cum_times = {1, 2, 1, 4, 1, 6, 1, 8};
  const TabularBenchmark table(std::move(data));
  const BenchmarkNorms norms = ComputeNorms(table);
  EXPECT_DOUBLE_EQ(norms.best_final, 0.2);
  EXPECT_DOUBLE_EQ(norms.median_final, 0.35);  // median of {0.4,0.2,0.6,0.3}
  EXPECT_DOUBLE_EQ(norms.random_guess, 0.9);
  EXPECT_DOUBLE_EQ(norms.mean_full_time, 5.0);  // mean of {2,4,6,8}
}

// ------------------------------------------------------------- tentpole ---

TEST(SweepEngine, ReportByteIdenticalAcrossThreadCounts) {
  auto alpha = TinyTable(1.0);
  auto beta = TinyTable(40.0);  // very different time scale
  const SweepSpec spec = TinySpec(alpha.get(), beta.get());
  std::string reference;
  for (const int threads : {1, 4, 16}) {
    const auto results = RunSweep(spec, {.threads = threads});
    const std::string dump = BuildSweepReport(spec, results).Dump(2);
    if (reference.empty()) {
      reference = dump;
    } else {
      EXPECT_EQ(dump, reference) << "report diverged at " << threads
                                 << " threads";
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SweepEngine, CellFailuresPropagateToCaller) {
  auto table = TinyTable(1.0);
  SweepSpec spec = TinySpec(table.get(), table.get());
  spec.schedulers = {"asha", "no_such_tuner"};
  EXPECT_THROW(RunSweep(spec, {.threads = 4}), CheckError);
  EXPECT_THROW(RunSweep(spec, {.threads = 1}), CheckError);
}

TEST(SweepEngine, ReportRowsCarryCellIdentity) {
  auto table = TinyTable(1.0);
  const SweepSpec spec = TinySpec(table.get(), table.get());
  SweepThroughput throughput;
  const auto results = RunSweep(spec, {.threads = 2}, &throughput);
  ASSERT_EQ(results.size(), CellCount(spec));
  EXPECT_EQ(throughput.cells, results.size());
  std::uint64_t jobs = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepCell cell = CellAt(spec, i);
    EXPECT_EQ(results[i].benchmark, cell.benchmark);
    EXPECT_EQ(results[i].scheduler, cell.scheduler);
    EXPECT_EQ(results[i].seed, spec.seeds[cell.seed_index]);
    EXPECT_EQ(results[i].workers, spec.fleets[cell.fleet_index]);
    EXPECT_GT(results[i].jobs_completed, 0u);
    EXPECT_GE(results[i].utilization, 0.0);
    EXPECT_LE(results[i].utilization, 1.0);
    jobs += results[i].jobs_completed;
  }
  EXPECT_EQ(throughput.jobs, jobs);

  const Json report = BuildSweepReport(spec, results);
  EXPECT_EQ(report.at("format").AsString(), "htsweep-report-v1");
  EXPECT_EQ(report.at("cells").size(), results.size());
  // One aggregate row per (benchmark, fleet, scheduler).
  EXPECT_EQ(report.at("aggregates").size(), 2u * 2u * 2u);
  const std::string text = SweepReportText(report);
  EXPECT_NE(text.find("### alpha @ 2 workers"), std::string::npos);
  EXPECT_NE(text.find("### beta @ 8 workers"), std::string::npos);
}

}  // namespace
}  // namespace hypertune
