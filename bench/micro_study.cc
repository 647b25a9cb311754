// Microbenchmarks (google-benchmark) of the multi-tenant routing layer:
// what does a lease message cost when the StudyManager hosts S studies
// instead of one?
//
// The multiplexing claim (DESIGN.md §11) is that routing is O(log S) in
// the study count — one ordered-map lookup plus the single study's own
// work — so per-message cost must stay flat from 1 study to thousands.
// These benches sweep S = 1..10k through the scoped grant+report cycle,
// price the idle Tick — one O(S) pass over the studies, which the
// transport runs once per tick interval, not per message — and price the
// "*" round-robin scan. Curated before/after numbers live in
// BENCH_studies.json; they predate the O(S) Tick and the cycles without a
// manager Tick, so they are not comparable with these rows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "study/study_manager.h"

namespace hypertune {
namespace {

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

Json RandomConfig(std::uint64_t seed) {
  Json config = JsonObject{};
  config.Set("kind", Json("random"));
  config.Set("seed", Json(static_cast<std::int64_t>(seed)));
  return config;
}

std::string StudyName(std::size_t i) { return "s" + std::to_string(i); }

Json ScopedRequest(std::uint64_t worker, const std::string& study) {
  Json message = JsonObject{};
  message.Set("type", Json("request_job"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("study", Json(study));
  return message;
}

Json ScopedReport(std::uint64_t worker, std::int64_t job_id,
                  const std::string& study) {
  Json message = JsonObject{};
  message.Set("type", Json("report"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("job_id", Json(job_id));
  message.Set("loss", Json(0.5));
  message.Set("study", Json(study));
  return message;
}

StudyManagerOptions BenchOptions() {
  StudyManagerOptions options;
  options.server = ServerOptions{.lease_timeout = 1e12};
  options.default_config = Json();  // all traffic scoped
  return options;
}

/// Loads `studies` tenants, each parked with one open lease so every
/// study's deadline heap carries a real entry (none ever due:
/// lease_timeout is effectively infinite).
void LoadStudies(StudyManager& manager, std::size_t studies) {
  for (std::size_t i = 0; i < studies; ++i) {
    (void)manager.CreateStudy(StudyName(i), RandomConfig(i + 1), 0.0);
    (void)manager.HandleMessage(ScopedRequest(/*worker=*/999, StudyName(i)),
                                0.0);
  }
}

// The headline sweep: a scoped lease cycle (request_job + report, each of
// which ticks its own study) against a hot fleet of min(S, 8) studies
// while S tenants (each holding a live lease) are resident. This isolates
// what tenancy itself adds to a message — the routing lookup — which must
// stay flat in S. The manager Tick is left out: the transport runs it once
// per tick interval, and BM_StudyTickNothingDue prices it. Flat per-item
// time from S=1 to S=1000 is the acceptance bar; S=10k bounds the tail.
// (Cycling through ALL S tenants instead is measured separately below:
// that shape is bound by CPU cache capacity, not by the manager.)
void BM_StudyLeaseCycle(benchmark::State& state) {
  const auto studies = static_cast<std::size_t>(state.range(0));
  StudyManager manager(MakeStudySchedulerFactory(UnitSpace()),
                       BenchOptions());
  LoadStudies(manager, studies);
  const std::size_t hot = std::min<std::size_t>(studies, 8);
  std::vector<std::string> names;
  names.reserve(hot);
  for (std::size_t i = 0; i < hot; ++i) names.push_back(StudyName(i));
  double now = 1;
  std::size_t next = 0;
  for (auto _ : state) {
    const std::string& study = names[next];
    next = (next + 1) % hot;
    const Json grant = manager.HandleMessage(ScopedRequest(0, study), now);
    (void)manager.HandleMessage(
        ScopedReport(0, grant.at("job_id").AsInt(), study), now + 1e-7);
    now += 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StudyLeaseCycle)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000);

// Same cycle, but every message targets a different tenant round-robin, so
// each one drags a cold scheduler + server working set through the cache.
// This prices the worst-case traffic shape; the delta vs the hot-fleet
// rows above is cache capacity (any layout hosting S independent searches
// pays it), not manager overhead.
void BM_StudyLeaseCycleRotatingTenants(benchmark::State& state) {
  const auto studies = static_cast<std::size_t>(state.range(0));
  StudyManager manager(MakeStudySchedulerFactory(UnitSpace()),
                       BenchOptions());
  LoadStudies(manager, studies);
  std::vector<std::string> names;
  names.reserve(studies);
  for (std::size_t i = 0; i < studies; ++i) names.push_back(StudyName(i));
  double now = 1;
  std::size_t next = 0;
  for (auto _ : state) {
    const std::string& study = names[next];
    next = (next + 1) % studies;
    const Json grant = manager.HandleMessage(ScopedRequest(0, study), now);
    (void)manager.HandleMessage(
        ScopedReport(0, grant.at("job_id").AsInt(), study), now + 1e-7);
    now += 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StudyLeaseCycleRotatingTenants)->Arg(1)->Arg(100)->Arg(1000);

// Tick with S studies holding live leases and none of them due: one pass
// over the studies, each a heap-top peek — O(studies). The idle-expiry
// timer fires once a second in production, so this bounds what tenancy
// costs per second, not per message.
void BM_StudyTickNothingDue(benchmark::State& state) {
  const auto studies = static_cast<std::size_t>(state.range(0));
  StudyManager manager(MakeStudySchedulerFactory(UnitSpace()),
                       BenchOptions());
  LoadStudies(manager, studies);
  double now = 1;
  for (auto _ : state) {
    manager.Tick(now);
    now += 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StudyTickNothingDue)->Arg(1)->Arg(100)->Arg(1000)->Arg(10000);

// "*" round-robin allocation: the one path that deliberately scans — it
// walks the studies from its cursor until one grants. Prices the scan
// against the scoped fast path above (same cycle, wildcard routing).
void BM_StudyWildcardCycle(benchmark::State& state) {
  const auto studies = static_cast<std::size_t>(state.range(0));
  StudyManager manager(MakeStudySchedulerFactory(UnitSpace()),
                       BenchOptions());
  LoadStudies(manager, studies);
  double now = 1;
  for (auto _ : state) {
    const Json grant = manager.HandleMessage(ScopedRequest(0, "*"), now);
    const std::string study = grant.at("study").AsString();
    (void)manager.HandleMessage(
        ScopedReport(0, grant.at("job_id").AsInt(), study), now + 1e-7);
    now += 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StudyWildcardCycle)->Arg(1)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace hypertune

BENCHMARK_MAIN();
