// JSON export and import of tuning artifacts: configurations, trials,
// run records, driver runs, and aggregated experiment results. The "ML
// glue" layer — results can be archived, diffed, and re-loaded for offline
// analysis without rerunning simulations.
#pragma once

#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "common/json.h"
#include "core/trial_json.h"
#include "lifecycle/run_record.h"
#include "searchspace/config_json.h"
#include "sim/driver.h"

namespace hypertune {

// Configuration / Trial / TrialBank JSON conversions come from
// searchspace/config_json.h and core/trial_json.h (re-exported here for
// convenience).

/// RunRecord -> JSON. Keys kept compatible with the legacy per-backend
/// record exports: "time" is the record's end_time and "dropped" its lost
/// flag; the lifecycle-era fields (start, queue_wait, worker) ride along
/// as additional keys.
Json ToJson(const RunRecord& record);
/// Inverse of ToJson(RunRecord). The lifecycle-era keys are optional so
/// documents written before the unified record still load.
RunRecord RunRecordFromJson(const Json& json);

/// Driver run -> JSON (completions + recommendation history + totals).
Json ToJson(const DriverResult& result);
DriverResult DriverResultFromJson(const Json& json);

/// Aggregated method result -> JSON (series arrays + bookkeeping).
Json ToJson(const MethodResult& result);

/// Writes an experiment document {"name":..., "methods":[...]} to `path`
/// (pretty-printed). Returns false on I/O failure.
bool ExportExperiment(const std::string& path, const std::string& name,
                      const std::vector<MethodResult>& methods);

}  // namespace hypertune
