// Microbenchmarks (google-benchmark) of the BO substrate hot paths: full GP
// fits, the rank-1 append path, batched vs scalar prediction, and batched
// EI scoring — the operations that decide how much tuner overhead the GP
// baselines add per completed job. BM_FitPerObservation is the pre-optimization
// baseline semantics (a from-scratch refit for every new observation);
// BM_AppendRefit is the incremental path that replaces it.
#include <benchmark/benchmark.h>

#include <vector>

#include "bo/acquisition.h"
#include "bo/gp.h"
#include "common/rng.h"

namespace hypertune {
namespace {

constexpr std::size_t kDim = 5;

struct Data {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

Data MakeData(std::size_t n, std::uint64_t seed = 4) {
  Rng rng(seed);
  Data data;
  data.x.assign(n, std::vector<double>(kDim));
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : data.x[i]) v = rng.Uniform();
    data.y[i] = rng.Uniform();
  }
  return data;
}

std::vector<std::vector<double>> MakeCandidates(std::size_t m) {
  Rng rng(7);
  std::vector<std::vector<double>> candidates(m, std::vector<double>(kDim));
  for (auto& c : candidates) {
    for (auto& v : c) v = rng.Uniform();
  }
  return candidates;
}

/// One full from-scratch fit at n points.
void BM_FitFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data data = MakeData(n);
  for (auto _ : state) {
    GaussianProcess gp;
    gp.Fit(data.x, data.y);
    benchmark::DoNotOptimize(gp.LogMarginalLikelihood());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FitFull)->Arg(64)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// Pre-optimization semantics of the sequential tuning loop: every new
/// observation triggers a from-scratch refit at size n.
void BM_FitPerObservation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data data = MakeData(n);
  for (auto _ : state) {
    GaussianProcess gp;  // fresh instance: no incremental path available
    gp.Fit(data.x, data.y);
    benchmark::DoNotOptimize(gp.LogMarginalLikelihood());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FitPerObservation)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// The incremental path: one rank-1 append (with grid re-selection and
/// restandardization) per new observation at size ~n.
void BM_AppendRefit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr int kAppends = 8;
  const Data data = MakeData(n + kAppends);
  Data prefix;
  prefix.x.assign(data.x.begin(), data.x.end() - kAppends);
  prefix.y.assign(data.y.begin(), data.y.end() - kAppends);
  for (auto _ : state) {
    state.PauseTiming();
    GaussianProcess gp;
    gp.Fit(prefix.x, prefix.y);
    state.ResumeTiming();
    for (std::size_t k = 0; k < kAppends; ++k) {
      gp.Append(data.x[n + k], data.y[n + k]);
    }
  }
  state.SetItemsProcessed(state.iterations() * kAppends);
}
BENCHMARK(BM_AppendRefit)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// 128 scalar Predict calls at n training points.
void BM_PredictScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data data = MakeData(n);
  GaussianProcess gp;
  gp.Fit(data.x, data.y);
  const auto candidates = MakeCandidates(128);
  for (auto _ : state) {
    double acc = 0;
    for (const auto& c : candidates) acc += gp.Predict(c).mean;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_PredictScalar)->Arg(64)->Arg(256)->Arg(512);

/// One PredictBatch over the same 128 candidates.
void BM_PredictBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data data = MakeData(n);
  GaussianProcess gp;
  gp.Fit(data.x, data.y);
  const auto candidates = MakeCandidates(128);
  for (auto _ : state) {
    const auto predictions = gp.PredictBatch(candidates);
    benchmark::DoNotOptimize(predictions.front().mean);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_PredictBatch)->Arg(64)->Arg(256)->Arg(512);

/// EI scoring of 512 candidates.
void BM_EiScore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data data = MakeData(n);
  GaussianProcess gp;
  gp.Fit(data.x, data.y);
  const auto candidates = MakeCandidates(512);
  for (auto _ : state) {
    const auto scores = ScoreEiBatch(gp, candidates, 0.3);
    benchmark::DoNotOptimize(scores[ArgMaxScore(scores)]);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_EiScore)->Arg(64)->Arg(256)->Arg(512);

}  // namespace
}  // namespace hypertune

BENCHMARK_MAIN();
