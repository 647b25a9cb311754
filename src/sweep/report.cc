#include "sweep/report.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/table.h"
#include "sweep/stats.h"

namespace hypertune {

namespace {

constexpr double kConfidence = 0.95;
/// Seed of the bootstrap's resampling streams.
constexpr std::uint64_t kBootstrapSeed = 7;

Json CiJson(const BootstrapCi& ci) {
  Json object;
  object.Set("mean", Json(ci.mean));
  object.Set("lo", Json(ci.lo));
  object.Set("hi", Json(ci.hi));
  return object;
}

std::string CiText(const Json& ci, int precision) {
  return FormatDouble(ci.at("mean").AsDouble(), precision) + " [" +
         FormatDouble(ci.at("lo").AsDouble(), precision) + ", " +
         FormatDouble(ci.at("hi").AsDouble(), precision) + "]";
}

}  // namespace

Json BuildSweepReport(const SweepSpec& spec,
                      const std::vector<SweepCellResult>& results,
                      const SweepReportOptions& options) {
  HT_CHECK_MSG(results.size() == CellCount(spec),
               "result count " << results.size() << " != grid cells "
                               << CellCount(spec));
  Json report;
  report.Set("format", Json("htsweep-report-v1"));

  Json grid;
  Json benchmark_names, scheduler_names, seeds, fleets;
  for (const auto& benchmark : spec.benchmarks) {
    benchmark_names.PushBack(Json(benchmark.name));
  }
  for (const auto& name : spec.schedulers) {
    scheduler_names.PushBack(Json(name));
  }
  for (const auto seed : spec.seeds) seeds.PushBack(Json(seed));
  for (const int fleet : spec.fleets) fleets.PushBack(Json(fleet));
  grid.Set("benchmarks", std::move(benchmark_names));
  grid.Set("schedulers", std::move(scheduler_names));
  grid.Set("seeds", std::move(seeds));
  grid.Set("fleets", std::move(fleets));
  grid.Set("cells", Json(static_cast<std::int64_t>(results.size())));
  grid.Set("max_jobs", Json(static_cast<std::int64_t>(spec.max_jobs)));
  grid.Set("time_limit", Json(spec.time_limit));
  grid.Set("full_train_budget", Json(spec.full_train_budget));
  Json params;
  params.Set("eta", Json(spec.params.eta));
  params.Set("r_divisor", Json(spec.params.r_divisor));
  params.Set("n", Json(static_cast<std::int64_t>(spec.params.n)));
  params.Set("s", Json(spec.params.s));
  params.Set("resume", Json(spec.params.resume));
  grid.Set("params", std::move(params));
  report.Set("grid", std::move(grid));

  Json cells;
  for (const auto& result : results) {
    Json cell;
    cell.Set("benchmark", Json(spec.benchmarks[result.benchmark].name));
    cell.Set("scheduler", Json(spec.schedulers[result.scheduler]));
    cell.Set("seed", Json(result.seed));
    cell.Set("workers", Json(result.workers));
    cell.Set("final_loss", Json(result.final_loss));
    cell.Set("normalized_regret", Json(result.normalized_regret));
    cell.Set("jobs", Json(static_cast<std::int64_t>(result.jobs_completed)));
    cell.Set("dropped", Json(static_cast<std::int64_t>(result.jobs_dropped)));
    cell.Set("trials", Json(static_cast<std::int64_t>(result.trials)));
    cell.Set("end_time", Json(result.end_time));
    cell.Set("utilization", Json(result.utilization));
    cells.PushBack(std::move(cell));
  }
  report.Set("cells", std::move(cells));

  // Aggregates per (benchmark, fleet): rank schedulers within each seed,
  // then bootstrap each scheduler's per-seed loss/regret/rank samples.
  const std::size_t num_schedulers = spec.schedulers.size();
  const std::size_t num_seeds = spec.seeds.size();
  const std::size_t num_fleets = spec.fleets.size();
  auto cell_index = [&](std::size_t b, std::size_t s, std::size_t d,
                        std::size_t f) {
    return ((b * num_schedulers + s) * num_seeds + d) * num_fleets + f;
  };
  Json aggregates;
  std::uint64_t row_counter = 0;
  for (std::size_t b = 0; b < spec.benchmarks.size(); ++b) {
    for (std::size_t f = 0; f < num_fleets; ++f) {
      std::vector<std::vector<double>> losses(
          num_seeds, std::vector<double>(num_schedulers));
      for (std::size_t d = 0; d < num_seeds; ++d) {
        for (std::size_t s = 0; s < num_schedulers; ++s) {
          losses[d][s] = results[cell_index(b, s, d, f)].final_loss;
        }
      }
      const auto ranks = RankRows(losses);
      for (std::size_t s = 0; s < num_schedulers; ++s) {
        std::vector<double> loss_col(num_seeds), regret_col(num_seeds),
            rank_col(num_seeds);
        for (std::size_t d = 0; d < num_seeds; ++d) {
          loss_col[d] = losses[d][s];
          regret_col[d] = results[cell_index(b, s, d, f)].normalized_regret;
          rank_col[d] = ranks[d][s];
        }
        // One derived bootstrap stream per (row, metric) so rows are
        // decorrelated while the whole report stays a pure function of
        // kBootstrapSeed.
        const std::uint64_t base = kBootstrapSeed + 3 * row_counter;
        ++row_counter;
        Json row;
        row.Set("benchmark", Json(spec.benchmarks[b].name));
        row.Set("workers", Json(spec.fleets[f]));
        row.Set("scheduler", Json(spec.schedulers[s]));
        row.Set("seeds", Json(static_cast<std::int64_t>(num_seeds)));
        row.Set("final_loss",
                CiJson(BootstrapMeanCi(loss_col, options.bootstrap_resamples,
                                       kConfidence, base)));
        row.Set("normalized_regret",
                CiJson(BootstrapMeanCi(regret_col,
                                       options.bootstrap_resamples,
                                       kConfidence, base + 1)));
        row.Set("rank",
                CiJson(BootstrapMeanCi(rank_col, options.bootstrap_resamples,
                                       kConfidence, base + 2)));
        aggregates.PushBack(std::move(row));
      }
    }
  }
  report.Set("aggregates", std::move(aggregates));
  return report;
}

std::string SweepReportText(const Json& report) {
  std::string out;
  const JsonArray& aggregates = report.at("aggregates").AsArray();
  std::size_t i = 0;
  while (i < aggregates.size()) {
    const std::string& benchmark = aggregates[i].at("benchmark").AsString();
    const std::int64_t workers = aggregates[i].at("workers").AsInt();
    // The group [i, j): rows share (benchmark, workers) by construction.
    std::size_t j = i;
    std::vector<std::size_t> group;
    while (j < aggregates.size() &&
           aggregates[j].at("benchmark").AsString() == benchmark &&
           aggregates[j].at("workers").AsInt() == workers) {
      group.push_back(j);
      ++j;
    }
    std::sort(group.begin(), group.end(), [&](std::size_t a, std::size_t c) {
      return aggregates[a].at("rank").at("mean").AsDouble() <
             aggregates[c].at("rank").at("mean").AsDouble();
    });
    out += "### " + benchmark + " @ " + std::to_string(workers) +
           " workers (" +
           std::to_string(aggregates[i].at("seeds").AsInt()) + " seeds)\n";
    TextTable table({"scheduler", "mean rank [95% CI]",
                     "final loss [95% CI]", "norm. regret"});
    for (const std::size_t row : group) {
      table.AddRow({aggregates[row].at("scheduler").AsString(),
                    CiText(aggregates[row].at("rank"), 2),
                    CiText(aggregates[row].at("final_loss"), 4),
                    FormatDouble(
                        aggregates[row].at("normalized_regret").at("mean")
                            .AsDouble(),
                        4)});
    }
    out += table.ToMarkdown();
    out += "\n";
    i = j;
  }
  return out;
}

}  // namespace hypertune
