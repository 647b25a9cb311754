#include "core/trial_json.h"

#include <array>

#include "common/check.h"
#include "searchspace/config_json.h"

namespace hypertune {

namespace {

Json JobJson(const Job& job, const Configuration& config) {
  Json json = JsonObject{};
  json.Set("trial", Json(job.trial_id));
  json.Set("config", ToJson(config));
  json.Set("from", Json(job.from_resource));
  json.Set("to", Json(job.to_resource));
  json.Set("rung", Json(job.rung));
  json.Set("bracket", Json(job.bracket));
  json.Set("tag", Json(static_cast<std::int64_t>(job.tag)));
  return json;
}

}  // namespace

const char* StatusName(TrialStatus status) {
  switch (status) {
    case TrialStatus::kPending: return "pending";
    case TrialStatus::kRunning: return "running";
    case TrialStatus::kPaused: return "paused";
    case TrialStatus::kCompleted: return "completed";
    case TrialStatus::kLost: return "lost";
    case TrialStatus::kStopped: return "stopped";
  }
  return "unknown";
}

TrialStatus StatusFromName(const std::string& name) {
  if (name == "pending") return TrialStatus::kPending;
  if (name == "running") return TrialStatus::kRunning;
  if (name == "paused") return TrialStatus::kPaused;
  if (name == "completed") return TrialStatus::kCompleted;
  if (name == "lost") return TrialStatus::kLost;
  if (name == "stopped") return TrialStatus::kStopped;
  throw CheckError("unknown trial status '" + name + "'");
}

Json ToJson(const Trial& trial) {
  Json json = JsonObject{};
  json.Set("id", Json(trial.id));
  json.Set("config", ToJson(trial.config));
  json.Set("bracket", Json(trial.bracket));
  json.Set("status", Json(StatusName(trial.status)));
  json.Set("resource_trained", Json(trial.resource_trained));
  Json observations = JsonArray{};
  for (const auto& ob : trial.observations) {
    Json entry = JsonObject{};
    entry.Set("resource", Json(ob.resource));
    entry.Set("loss", Json(ob.loss));
    observations.PushBack(std::move(entry));
  }
  json.Set("observations", std::move(observations));
  return json;
}

Trial TrialFromJson(const Json& json) {
  Trial trial;
  trial.id = json.at("id").AsInt();
  trial.config = ConfigurationFromJson(json.at("config"));
  trial.bracket = static_cast<int>(json.at("bracket").AsInt());
  trial.status = StatusFromName(json.at("status").AsString());
  trial.resource_trained = json.at("resource_trained").AsDouble();
  for (const auto& entry : json.at("observations").AsArray()) {
    trial.observations.push_back(
        {entry.at("resource").AsDouble(), entry.at("loss").AsDouble()});
  }
  return trial;
}

Json ToJson(const TrialBank& bank) {
  Json array = JsonArray{};
  for (const auto& trial : bank) array.PushBack(ToJson(trial));
  return array;
}

TrialBank TrialBankFromJson(const Json& json) {
  TrialBank bank;
  for (const auto& entry : json.AsArray()) {
    Trial restored = TrialFromJson(entry);
    const TrialId id = bank.Create(restored.config, restored.bracket);
    HT_CHECK_MSG(id == restored.id, "trial ids must be dense and ordered; got "
                                        << restored.id << " at slot " << id);
    Trial& trial = bank.Get(id);
    trial.status = restored.status;
    trial.resource_trained = restored.resource_trained;
    trial.observations = std::move(restored.observations);
  }
  return bank;
}

Json ToJson(const Job& job) { return JobJson(job, job.config); }

Job JobFromJson(const Json& json) {
  Job job;
  job.trial_id = json.at("trial").AsInt();
  job.config = ConfigurationFromJson(json.at("config"));
  job.from_resource = json.at("from").AsDouble();
  job.to_resource = json.at("to").AsDouble();
  job.rung = static_cast<int>(json.at("rung").AsInt());
  job.bracket = static_cast<int>(json.at("bracket").AsInt());
  job.tag = static_cast<std::uint64_t>(json.at("tag").AsInt());
  return job;
}

void WriteRng(const Rng& rng, Json& snapshot) {
  Json words = JsonArray{};
  for (std::uint64_t word : rng.state()) {
    words.PushBack(Json(static_cast<std::int64_t>(word)));
  }
  snapshot.Set("rng", std::move(words));
  if (rng.has_spare_normal()) {
    snapshot.Set("spare_normal", Json(rng.spare_normal()));
  }
}

void ReadRng(const Json& snapshot, Rng& rng) {
  std::array<std::uint64_t, 4> state{};
  const auto& words = snapshot.at("rng").AsArray();
  HT_CHECK(words.size() == state.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = static_cast<std::uint64_t>(words[i].AsInt());
  }
  rng.set_state(state);
  if (snapshot.Has("spare_normal")) {
    rng.set_spare_normal(true, snapshot.at("spare_normal").AsDouble());
  }
}

void WriteIncumbent(const IncumbentTracker& incumbent, Json& snapshot) {
  const auto rec = incumbent.Current();
  if (!rec) return;
  Json entry = JsonObject{};
  entry.Set("trial", Json(rec->trial_id));
  entry.Set("loss", Json(rec->loss));
  entry.Set("resource", Json(rec->resource));
  snapshot.Set("incumbent", std::move(entry));
}

void ReadIncumbent(const Json& snapshot, IncumbentTracker& incumbent) {
  if (!snapshot.Has("incumbent")) return;
  const Json& rec = snapshot.at("incumbent");
  incumbent.Offer(rec.at("trial").AsInt(), rec.at("loss").AsDouble(),
                  rec.at("resource").AsDouble());
}

void WriteInFlight(const InFlightJobs& in_flight, const TrialBank& bank,
                   Json& snapshot) {
  Json jobs = JsonArray{};
  for (const Job& job : in_flight.Sorted()) {
    jobs.PushBack(JobJson(job, bank.Get(job.trial_id).config));
  }
  snapshot.Set("in_flight", std::move(jobs));
}

InFlightJobs ReadInFlight(const Json& snapshot, const TrialBank& bank) {
  InFlightJobs in_flight;
  if (!snapshot.Has("in_flight")) return in_flight;
  for (const auto& entry : snapshot.at("in_flight").AsArray()) {
    const Job job = JobFromJson(entry);
    const TrialId id = job.trial_id;
    HT_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < bank.size(),
                 "in-flight trial " << id << " is not in the trial bank");
    const Trial& trial = bank.Get(id);
    HT_CHECK_MSG(trial.status == TrialStatus::kRunning,
                 "in-flight trial " << id << " is "
                                    << StatusName(trial.status)
                                    << ", not running");
    HT_CHECK_MSG(job.config == trial.config,
                 "in-flight trial " << id
                                    << " carries a config the bank does not");
    in_flight.Open(job);
  }
  return in_flight;
}

Json ToJson(const Rung& rung) {
  Json results = JsonArray{};
  Json promoted = JsonArray{};
  for (const auto& [loss, id] : rung.SortedResults()) {
    Json pair = JsonObject{};
    pair.Set("trial", Json(id));
    pair.Set("loss", Json(loss));
    results.PushBack(std::move(pair));
    if (rung.IsPromoted(id)) promoted.PushBack(Json(id));
  }
  Json json = JsonObject{};
  json.Set("results", std::move(results));
  json.Set("promoted", std::move(promoted));
  return json;
}

Rung RungFromJson(const Json& json) {
  Rung rung;
  for (const auto& pair : json.at("results").AsArray()) {
    rung.Record(pair.at("trial").AsInt(), pair.at("loss").AsDouble());
  }
  for (const auto& id : json.at("promoted").AsArray()) {
    rung.MarkPromoted(id.AsInt());
  }
  return rung;
}

void CheckIdentity(const Json& stored, const Json& identity) {
  for (const auto& [key, expected] : identity.AsObject()) {
    const Json& actual = stored.at(key);
    const bool same =
        expected.IsNumber() && actual.IsNumber()
            ? (expected.IsInt() && actual.IsInt()
                   ? expected.AsInt() == actual.AsInt()
                   : expected.AsDouble() == actual.AsDouble())
            : expected == actual;
    HT_CHECK_MSG(same, "snapshot option '" << key << "' is " << actual.Dump()
                                           << " but this scheduler has "
                                           << expected.Dump());
  }
}

void DropInFlight(Scheduler& scheduler, const InFlightJobs& in_flight,
                  const TrialBank& bank) {
  // A copy: ReportLost erases each job from `in_flight` as it goes.
  for (Job& job : in_flight.Sorted()) {
    job.config = bank.Get(job.trial_id).config;
    scheduler.ReportLost(job);
  }
}

}  // namespace hypertune
