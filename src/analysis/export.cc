#include "analysis/export.h"

#include "common/check.h"
#include "common/table.h"

namespace hypertune {

namespace {

Json SeriesToJson(const std::vector<double>& xs) {
  Json array = JsonArray{};
  for (double x : xs) array.PushBack(Json(x));
  return array;
}

}  // namespace

Json ToJson(const RunRecord& record) {
  Json entry = JsonObject{};
  entry.Set("time", Json(record.end_time));
  entry.Set("trial", Json(record.trial_id));
  entry.Set("from", Json(record.from_resource));
  entry.Set("to", Json(record.to_resource));
  entry.Set("loss", Json(record.loss));
  entry.Set("rung", Json(record.rung));
  entry.Set("bracket", Json(record.bracket));
  entry.Set("dropped", Json(record.lost));
  entry.Set("start", Json(record.start_time));
  entry.Set("queue_wait", Json(record.queue_wait));
  entry.Set("worker", Json(record.worker));
  return entry;
}

RunRecord RunRecordFromJson(const Json& json) {
  RunRecord record;
  record.end_time = json.at("time").AsDouble();
  record.trial_id = json.at("trial").AsInt();
  record.from_resource = json.at("from").AsDouble();
  record.to_resource = json.at("to").AsDouble();
  record.loss = json.at("loss").AsDouble();
  record.rung = static_cast<int>(json.at("rung").AsInt());
  record.bracket = static_cast<int>(json.at("bracket").AsInt());
  record.lost = json.at("dropped").AsBool();
  // Pre-unification documents lack the lifecycle-era fields; default them.
  if (json.Has("start")) record.start_time = json.at("start").AsDouble();
  if (json.Has("queue_wait")) {
    record.queue_wait = json.at("queue_wait").AsDouble();
  }
  if (json.Has("worker")) {
    record.worker = static_cast<int>(json.at("worker").AsInt());
  }
  return record;
}

Json ToJson(const DriverResult& result) {
  Json json = JsonObject{};
  Json completions = JsonArray{};
  for (const auto& record : result.completions) {
    completions.PushBack(ToJson(record));
  }
  json.Set("completions", std::move(completions));

  Json recommendations = JsonArray{};
  for (const auto& rec : result.recommendations) {
    Json entry = JsonObject{};
    entry.Set("time", Json(rec.time));
    entry.Set("trial", Json(rec.trial_id));
    entry.Set("loss", Json(rec.loss));
    entry.Set("resource", Json(rec.resource));
    recommendations.PushBack(std::move(entry));
  }
  json.Set("recommendations", std::move(recommendations));
  json.Set("end_time", Json(result.end_time));
  json.Set("busy_time", Json(result.busy_time));
  json.Set("jobs_completed", Json(static_cast<std::int64_t>(result.jobs_completed)));
  json.Set("jobs_dropped", Json(static_cast<std::int64_t>(result.jobs_dropped)));
  return json;
}

DriverResult DriverResultFromJson(const Json& json) {
  DriverResult result;
  for (const auto& entry : json.at("completions").AsArray()) {
    result.completions.push_back(RunRecordFromJson(entry));
  }
  for (const auto& entry : json.at("recommendations").AsArray()) {
    RecommendationPoint rec;
    rec.time = entry.at("time").AsDouble();
    rec.trial_id = entry.at("trial").AsInt();
    rec.loss = entry.at("loss").AsDouble();
    rec.resource = entry.at("resource").AsDouble();
    result.recommendations.push_back(rec);
  }
  result.end_time = json.at("end_time").AsDouble();
  result.busy_time = json.at("busy_time").AsDouble();
  result.jobs_completed =
      static_cast<std::size_t>(json.at("jobs_completed").AsInt());
  result.jobs_dropped =
      static_cast<std::size_t>(json.at("jobs_dropped").AsInt());
  return result;
}

Json ToJson(const MethodResult& result) {
  Json json = JsonObject{};
  json.Set("method", Json(result.method));
  Json series = JsonObject{};
  series.Set("times", SeriesToJson(result.series.times));
  series.Set("mean", SeriesToJson(result.series.mean));
  series.Set("q25", SeriesToJson(result.series.q25));
  series.Set("q75", SeriesToJson(result.series.q75));
  series.Set("min", SeriesToJson(result.series.min));
  series.Set("max", SeriesToJson(result.series.max));
  json.Set("series", std::move(series));
  json.Set("mean_trials_evaluated", Json(result.mean_trials_evaluated));
  json.Set("mean_jobs_completed", Json(result.mean_jobs_completed));
  json.Set("mean_jobs_dropped", Json(result.mean_jobs_dropped));
  json.Set("mean_worker_utilization", Json(result.mean_worker_utilization));
  return json;
}

bool ExportExperiment(const std::string& path, const std::string& name,
                      const std::vector<MethodResult>& methods) {
  Json document = JsonObject{};
  document.Set("name", Json(name));
  Json array = JsonArray{};
  for (const auto& method : methods) array.PushBack(ToJson(method));
  document.Set("methods", std::move(array));
  return WriteFile(path, document.Dump(2) + "\n");
}

}  // namespace hypertune
