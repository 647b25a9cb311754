// Sweep report emission: the machine-readable JSON document CI diffs
// against a committed golden, plus a human text rendering. The JSON is a
// pure function of (spec, results, report options) — doubles serialize via
// Json's fixed %.17g, the bootstrap is seeded here — so two sweeps of the
// same grid produce byte-identical reports at any thread count.
//
// Schema (format "htsweep-report-v1"; see DESIGN.md §10):
//   grid        — the axes (benchmark names, scheduler names, seeds,
//                 fleets), cell count, and stop criteria;
//   cells       — one row per cell in CellAt order: identity plus
//                 final_loss, normalized_regret, jobs, dropped, trials,
//                 end_time, utilization;
//   aggregates  — one row per (benchmark, fleet, scheduler): mean ± seeded
//                 bootstrap CI of final loss, normalized regret, and the
//                 per-seed fractional rank (1 = best among schedulers).
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "sweep/engine.h"

namespace hypertune {

/// The bootstrap intervals are 95% intervals over seeded resampling
/// streams derived per aggregate row, so rows are decorrelated but the
/// report stays deterministic.
struct SweepReportOptions {
  std::size_t bootstrap_resamples = 1000;
};

Json BuildSweepReport(const SweepSpec& spec,
                      const std::vector<SweepCellResult>& results,
                      const SweepReportOptions& options = {});

/// Markdown tables per (benchmark, fleet): one row per scheduler with mean
/// rank, final loss, and regret (CIs bracketed), sorted by mean rank.
std::string SweepReportText(const Json& report);

}  // namespace hypertune
