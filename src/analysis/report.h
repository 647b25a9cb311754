// Rendering of experiment results as the tables the bench binaries print.
#pragma once

#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "common/table.h"

namespace hypertune {

/// One row per grid time, one column per method (mean metric); "-" where a
/// method had no recommendation yet.
TextTable SeriesTable(const std::vector<MethodResult>& methods,
                      const std::string& time_label,
                      const std::string& metric_label, int precision = 4);

/// Mean with [min, max] band per method at the final grid point, plus
/// bookkeeping columns — the "who wins" summary for each figure.
TextTable SummaryTable(const std::vector<MethodResult>& methods,
                       const std::string& metric_label, int precision = 4);

/// Renders NaN-safe fixed-precision numbers ("-" for NaN).
std::string FormatMetric(double value, int precision);

}  // namespace hypertune
