#include "analysis/report.h"

#include <cmath>

#include "common/check.h"

namespace hypertune {

std::string FormatMetric(double value, int precision) {
  if (std::isnan(value)) return "-";
  return FormatDouble(value, precision);
}

TextTable SeriesTable(const std::vector<MethodResult>& methods,
                      const std::string& time_label,
                      const std::string& metric_label, int precision) {
  HT_CHECK(!methods.empty());
  std::vector<std::string> header{time_label};
  for (const auto& method : methods) {
    header.push_back(method.method + " (" + metric_label + ")");
  }
  TextTable table(std::move(header));
  const auto& times = methods.front().series.times;
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<std::string> row{FormatDouble(times[i], 1)};
    for (const auto& method : methods) {
      HT_CHECK(method.series.times.size() == times.size());
      row.push_back(FormatMetric(method.series.mean[i], precision));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

TextTable SummaryTable(const std::vector<MethodResult>& methods,
                       const std::string& metric_label, int precision) {
  TextTable table({"method", "final " + metric_label, "min", "max",
                   "configs evaluated", "jobs completed", "utilization",
                   "model fits (full+inc)", "tuner overhead"});
  for (const auto& method : methods) {
    const auto& s = method.series;
    HT_CHECK(!s.times.empty());
    const auto last = s.times.size() - 1;
    // Tuner overhead: the share of real bench wall-clock this method spent
    // fitting its surrogate model (GP/KDE); "-" for model-free tuners.
    const bool has_model =
        method.mean_model_full_fits + method.mean_model_incremental_fits > 0;
    table.AddRow({method.method, FormatMetric(s.mean[last], precision),
                  FormatMetric(s.min[last], precision),
                  FormatMetric(s.max[last], precision),
                  FormatDouble(method.mean_trials_evaluated, 1),
                  FormatDouble(method.mean_jobs_completed, 1),
                  FormatDouble(method.mean_worker_utilization, 3),
                  has_model
                      ? FormatDouble(method.mean_model_full_fits, 1) + "+" +
                            FormatDouble(method.mean_model_incremental_fits, 1)
                      : "-",
                  has_model
                      ? FormatDouble(method.model_fit_share * 100.0, 1) + "%"
                      : "-"});
  }
  return table;
}

}  // namespace hypertune
