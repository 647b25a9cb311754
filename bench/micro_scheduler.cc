// Microbenchmarks (google-benchmark) of the scheduler hot paths: the
// get_job / report cycle at large rung sizes, rung promotion queries, the
// TPE sampler, and GP fitting — the operations that bound how many workers
// one tuner process can feed.
#include <benchmark/benchmark.h>

#include "bo/gp.h"
#include "bo/tpe.h"
#include "core/asha.h"
#include "core/rung.h"
#include "core/sha.h"

namespace hypertune {
namespace {

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

void BM_AshaGetJobReportCycle(benchmark::State& state) {
  AshaOptions options;
  options.r = 1;
  options.R = 256;
  options.eta = 4;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  // Pre-fill the bottom rung to the requested size.
  const auto prefill = static_cast<int>(state.range(0));
  Rng rng(1);
  for (int i = 0; i < prefill; ++i) {
    const auto job = *asha.GetJob();
    asha.ReportResult(job, rng.Uniform());
  }
  for (auto _ : state) {
    const auto job = *asha.GetJob();
    asha.ReportResult(job, rng.Uniform());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AshaGetJobReportCycle)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SyncShaGetJobReportCycle(benchmark::State& state) {
  ShaOptions options;
  options.n = 256;
  options.r = 1;
  options.R = 256;
  options.eta = 4;
  options.spawn_new_brackets = true;
  SyncShaScheduler sha(MakeRandomSampler(UnitSpace()), options);
  Rng rng(1);
  for (auto _ : state) {
    const auto job = *sha.GetJob();
    sha.ReportResult(job, rng.Uniform());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyncShaGetJobReportCycle);

/// One ASHA report against a rung: record a result, then promote the
/// rung's answer as AshaScheduler::FindPromotion does.
void ReportAndPromote(Rung& rung, TrialId id, Rng& rng) {
  rung.Record(id, rng.Uniform());
  if (const auto promotable = rung.FirstPromotable(4.0)) {
    rung.MarkPromoted(*promotable);
  }
}

void BM_RungRecordAndQuery(benchmark::State& state) {
  // The rung is refilled (untimed) every prefill/4 reports, so its size stays
  // in [prefill, 1.25 * prefill) however many iterations the run picks.
  const auto prefill = static_cast<TrialId>(state.range(0));
  Rng rng(2);
  Rung rung;
  TrialId next = 0;
  for (auto _ : state) {
    if (next == 0 || next == prefill + prefill / 4) {
      state.PauseTiming();
      rung = Rung{};
      for (next = 0; next < prefill; ++next) ReportAndPromote(rung, next, rng);
      state.ResumeTiming();
    }
    ReportAndPromote(rung, next++, rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RungRecordAndQuery)->Arg(1000)->Arg(16000)->Arg(100000);

void BM_TpeSample(benchmark::State& state) {
  SearchSpace space;
  space.Add("a", Domain::Continuous(0, 1))
      .Add("b", Domain::Continuous(0, 1))
      .Add("c", Domain::Continuous(0, 1));
  TpeOptions options;
  options.random_fraction = 0.0;
  TpeSampler tpe(space, options);
  Rng rng(3);
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    tpe.Observe(space.Sample(rng), 1.0, rng.Uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tpe.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpeSample)->Arg(64)->Arg(512);

void BM_GpFit(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> x(n, std::vector<double>(5));
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : x[i]) v = rng.Uniform();
    y[i] = rng.Uniform();
  }
  for (auto _ : state) {
    GaussianProcess gp;
    gp.Fit(x, y);
    benchmark::DoNotOptimize(gp.Predict(x[0]));
  }
}
BENCHMARK(BM_GpFit)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hypertune

BENCHMARK_MAIN();
