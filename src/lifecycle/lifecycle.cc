#include "lifecycle/lifecycle.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/json.h"
#include "telemetry/telemetry.h"

namespace hypertune {

namespace {

// Local (internal-linkage) serializers: src/analysis owns the public
// RunRecord JSON wire format for exports; these carry every field —
// including lease_id, which exports omit — for snapshot round-trips.
Json RecordToJson(const RunRecord& record) {
  Json entry = JsonObject{};
  entry.Set("trial", Json(record.trial_id));
  entry.Set("rung", Json(record.rung));
  entry.Set("bracket", Json(record.bracket));
  entry.Set("from", Json(record.from_resource));
  entry.Set("to", Json(record.to_resource));
  entry.Set("loss", Json(record.loss));
  entry.Set("lost", Json(record.lost));
  entry.Set("start", Json(record.start_time));
  entry.Set("end", Json(record.end_time));
  entry.Set("queue_wait", Json(record.queue_wait));
  entry.Set("worker", Json(record.worker));
  entry.Set("lease", Json(static_cast<std::int64_t>(record.lease_id)));
  return entry;
}

RunRecord RecordFromJson(const Json& json) {
  RunRecord record;
  record.trial_id = json.at("trial").AsInt();
  record.rung = static_cast<int>(json.at("rung").AsInt());
  record.bracket = static_cast<int>(json.at("bracket").AsInt());
  record.from_resource = json.at("from").AsDouble();
  record.to_resource = json.at("to").AsDouble();
  record.loss = json.at("loss").AsDouble();
  record.lost = json.at("lost").AsBool();
  record.start_time = json.at("start").AsDouble();
  record.end_time = json.at("end").AsDouble();
  record.queue_wait = json.at("queue_wait").AsDouble();
  record.worker = static_cast<int>(json.at("worker").AsInt());
  record.lease_id = static_cast<std::uint64_t>(json.at("lease").AsInt());
  return record;
}

}  // namespace

std::vector<std::uint64_t> OpenLeaseSet::SortedIds() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(count_);
  for (std::size_t word = 0; word < words_.size(); ++word) {
    std::uint64_t bits = words_[word];
    while (bits != 0) {
      const auto bit = static_cast<std::uint64_t>(std::countr_zero(bits));
      ids.push_back(static_cast<std::uint64_t>(word) * 64 + bit);
      bits &= bits - 1;
    }
  }
  return ids;
}

void ValidateReportedLoss(double loss) {
  HT_CHECK_MSG(std::isfinite(loss),
               "reported loss must be finite, got " << loss);
}

void AppendJobSpanName(std::string& out, const Job& job) {
  out.clear();
  out += 't';
  out += std::to_string(job.trial_id);
  out += ":r";
  out += std::to_string(job.rung);
}

void EmitJobSpan(Telemetry* telemetry, const Job& job, bool lost, double loss,
                 const RunTiming& timing, std::string* scratch) {
  if (telemetry == nullptr) return;
  Json args = JsonObject{};
  args.Set("trial", Json(job.trial_id));
  args.Set("rung", Json(job.rung));
  args.Set("bracket", Json(job.bracket));
  args.Set("from_resource", Json(job.from_resource));
  args.Set("to_resource", Json(job.to_resource));
  if (lost) {
    args.Set("dropped", Json(true));
  } else {
    args.Set("loss", Json(loss));
  }
  std::string local;
  std::string& name = scratch != nullptr ? *scratch : local;
  AppendJobSpanName(name, job);
  telemetry->SpanAt(timing.start, timing.end - timing.start, name, "worker",
                    std::move(args), timing.worker);
}

TrialLifecycle::TrialLifecycle(Scheduler& scheduler, LifecycleOptions options)
    : scheduler_(scheduler), options_(options) {}

std::optional<LeasedJob> TrialLifecycle::Acquire() {
  // Built in the return slot (NRVO): the Job is moved exactly once.
  std::optional<LeasedJob> leased(std::in_place);
  if (!AcquireInto(*leased)) leased.reset();
  return leased;
}

bool TrialLifecycle::AcquireInto(LeasedJob& out) {
  auto job = scheduler_.GetJob();
  if (!job) return false;
  out.lease_id = next_lease_id_++;
  out.job = *std::move(job);
  pending_.Insert(out.lease_id);
  return true;
}

void TrialLifecycle::NoteRecommendation(double now) {
  const auto rec = scheduler_.Current();
  if (!rec) return;
  if (!recommendations_.empty()) {
    const auto& last = recommendations_.back();
    if (last.trial_id == rec->trial_id && last.loss == rec->loss) return;
  }
  recommendations_.push_back({now, rec->trial_id, rec->loss, rec->resource});
  if (options_.emit_spans && options_.telemetry != nullptr) {
    Json args = JsonObject{};
    args.Set("trial", Json(rec->trial_id));
    args.Set("loss", Json(rec->loss));
    args.Set("resource", Json(rec->resource));
    options_.telemetry->EventAt(now, "recommendation", "job",
                                std::move(args));
  }
}

void TrialLifecycle::Resolve(const LeasedJob& lease, bool lost, double loss,
                             const RunTiming& timing) {
  // The one guard that makes every backend's accounting sound: each lease
  // resolves exactly once. A second Complete, a Complete after a Lose, or a
  // resolve of a lease this lifecycle never issued all trip here.
  HT_CHECK_MSG(pending_.Erase(lease.lease_id),
               "lease " << lease.lease_id << " (trial " << lease.job.trial_id
                        << ") already resolved or never acquired");
  if (lost) {
    scheduler_.ReportLost(lease.job);
    ++lost_;
  } else {
    scheduler_.ReportResult(lease.job, loss);
    ++completed_;
  }
  if (options_.telemetry != nullptr) {
    if (options_.emit_spans) {
      EmitJobSpan(options_.telemetry, lease.job, lost, loss, timing,
                  &span_name_);
    }
    const char* const counter_name =
        lost ? options_.lost_counter : options_.completed_counter;
    if (counter_name != nullptr) {
      Counter*& counter = lost ? lost_counter_ : completed_counter_;
      if (counter == nullptr) {
        counter = &options_.telemetry->metrics().counter(counter_name);
      }
      counter->Increment();
    }
  }
  if (options_.record_runs) {
    RunRecord record;
    record.trial_id = lease.job.trial_id;
    record.rung = lease.job.rung;
    record.bracket = lease.job.bracket;
    record.from_resource = lease.job.from_resource;
    record.to_resource = lease.job.to_resource;
    record.loss = lost ? 0 : loss;
    record.lost = lost;
    record.start_time = timing.start;
    record.end_time = timing.end;
    record.queue_wait = timing.queue_wait;
    record.worker = timing.worker;
    record.lease_id = lease.lease_id;
    records_.push_back(record);
  }
  if (options_.track_recommendations) NoteRecommendation(timing.end);
}

void TrialLifecycle::Complete(const LeasedJob& lease, double loss,
                              const RunTiming& timing) {
  ValidateReportedLoss(loss);
  Resolve(lease, /*lost=*/false, loss, timing);
}

void TrialLifecycle::Lose(const LeasedJob& lease, const RunTiming& timing) {
  Resolve(lease, /*lost=*/true, /*loss=*/0, timing);
}

Json TrialLifecycle::Snapshot() const {
  Json json = JsonObject{};
  // Ascending by construction (the bitmap iterates in id order), matching
  // the sorted order snapshots always had.
  Json pending_json = JsonArray{};
  for (std::uint64_t id : pending_.SortedIds()) {
    pending_json.PushBack(Json(static_cast<std::int64_t>(id)));
  }
  json.Set("pending", std::move(pending_json));
  json.Set("next_lease_id", Json(static_cast<std::int64_t>(next_lease_id_)));
  Json records = JsonArray{};
  for (const auto& record : records_) records.PushBack(RecordToJson(record));
  json.Set("records", std::move(records));
  Json recommendations = JsonArray{};
  for (const auto& rec : recommendations_) {
    Json entry = JsonObject{};
    entry.Set("time", Json(rec.time));
    entry.Set("trial", Json(rec.trial_id));
    entry.Set("loss", Json(rec.loss));
    entry.Set("resource", Json(rec.resource));
    recommendations.PushBack(std::move(entry));
  }
  json.Set("recommendations", std::move(recommendations));
  json.Set("completed", Json(static_cast<std::int64_t>(completed_)));
  json.Set("lost", Json(static_cast<std::int64_t>(lost_)));
  return json;
}

void TrialLifecycle::Restore(const Json& snapshot) {
  HT_CHECK_MSG(next_lease_id_ == 1 && pending_.empty() && records_.empty(),
               "Restore requires a freshly constructed lifecycle");
  for (const auto& id : snapshot.at("pending").AsArray()) {
    pending_.Insert(static_cast<std::uint64_t>(id.AsInt()));
  }
  next_lease_id_ =
      static_cast<std::uint64_t>(snapshot.at("next_lease_id").AsInt());
  for (const auto& entry : snapshot.at("records").AsArray()) {
    records_.push_back(RecordFromJson(entry));
  }
  for (const auto& entry : snapshot.at("recommendations").AsArray()) {
    RecommendationPoint rec;
    rec.time = entry.at("time").AsDouble();
    rec.trial_id = entry.at("trial").AsInt();
    rec.loss = entry.at("loss").AsDouble();
    rec.resource = entry.at("resource").AsDouble();
    recommendations_.push_back(rec);
  }
  completed_ = static_cast<std::size_t>(snapshot.at("completed").AsInt());
  lost_ = static_cast<std::size_t>(snapshot.at("lost").AsInt());
}

}  // namespace hypertune
