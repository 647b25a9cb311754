// Shared helpers for the figure-reproduction bench binaries.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "common/table.h"
#include "surrogate/benchmarks.h"

namespace hypertune::bench {

/// Prints a figure banner plus context lines.
inline void Banner(const std::string& title,
                   const std::vector<std::string>& context) {
  std::cout << "\n==== " << title << " ====\n";
  for (const auto& line : context) std::cout << "  " << line << "\n";
  std::cout << "\n";
}

/// Runs each method on the named benchmark through RunExperiment and prints
/// the series + summary tables; returns the results for extra reporting.
inline std::vector<MethodResult> RunAndPrint(
    const std::string& benchmark_name, const std::vector<Method>& methods,
    const ExperimentOptions& options, const std::string& time_label,
    const std::string& metric_label, int precision = 4) {
  std::vector<MethodResult> results;
  for (const auto& method : methods) {
    std::cerr << "  running " << method.label << " (" << options.num_trials
              << " trials)...\n";
    results.push_back(RunExperiment(benchmark_name, method, options));
  }
  std::cout << SeriesTable(results, time_label, metric_label, precision)
                   .ToMarkdown()
            << "\n"
            << SummaryTable(results, metric_label, precision).ToMarkdown();
  return results;
}

}  // namespace hypertune::bench
