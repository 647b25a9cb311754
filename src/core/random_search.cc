#include "core/random_search.h"

#include "common/check.h"
#include "common/json.h"
#include "core/trial_json.h"

namespace hypertune {

RandomSearchScheduler::RandomSearchScheduler(
    std::shared_ptr<ConfigSampler> sampler, RandomSearchOptions options,
    std::shared_ptr<TrialBank> bank)
    : sampler_(std::move(sampler)),
      options_(options),
      bank_(bank ? std::move(bank) : std::make_shared<TrialBank>()),
      rng_(options.seed) {
  HT_CHECK(sampler_ != nullptr);
  HT_CHECK(options_.R > 0);
}

std::optional<Job> RandomSearchScheduler::GetJob() {
  if (options_.max_trials >= 0 && trials_created_ >= options_.max_trials) {
    return std::nullopt;
  }
  const TrialId id = bank_->Create(sampler_->Sample(rng_), /*bracket=*/0);
  ++trials_created_;
  Trial& trial = bank_->Get(id);
  Job job;
  job.trial_id = id;
  job.config = trial.config;
  job.from_resource = 0;
  job.to_resource = options_.R;
  in_flight_.Open(job);
  trial.status = TrialStatus::kRunning;
  return job;
}

void RandomSearchScheduler::ReportResult(const Job& job, double loss) {
  in_flight_.Resolve(job);
  bank_->RecordObservation(job.trial_id, job.to_resource, loss);
  bank_->Get(job.trial_id).status = TrialStatus::kCompleted;
  incumbent_.Offer(job.trial_id, loss, job.to_resource);
  sampler_->Observe(bank_->Get(job.trial_id).config, job.to_resource, loss);
}

void RandomSearchScheduler::ReportLost(const Job& job) {
  in_flight_.Resolve(job);
  bank_->Get(job.trial_id).status = TrialStatus::kLost;
}

bool RandomSearchScheduler::Finished() const {
  return options_.max_trials >= 0 && trials_created_ >= options_.max_trials &&
         in_flight_.empty();
}

std::optional<Recommendation> RandomSearchScheduler::Current() const {
  return incumbent_.Current();
}

Json RandomSearchScheduler::Identity() const {
  Json json = JsonObject{};
  json.Set("R", Json(options_.R));
  json.Set("max_trials", Json(options_.max_trials));
  return json;
}

Json RandomSearchScheduler::Snapshot() const {
  if (!SupportsSnapshot()) return Scheduler::Snapshot();
  Json json = Identity();
  json.Set("trials", ToJson(*bank_));
  WriteInFlight(in_flight_, *bank_, json);
  json.Set("trials_created", Json(trials_created_));
  WriteIncumbent(incumbent_, json);
  WriteRng(rng_, json);
  return json;
}

void RandomSearchScheduler::Restore(const Json& snapshot,
                                    RestorePolicy policy) {
  if (!SupportsSnapshot()) return Scheduler::Restore(snapshot, policy);
  HT_CHECK_MSG(bank_->size() == 0 && in_flight_.empty(),
               "Restore requires a freshly constructed scheduler");
  CheckIdentity(snapshot, Identity());
  // Parse and check every field into locals, then commit: a refused
  // snapshot leaves the scheduler untouched.
  TrialBank bank = TrialBankFromJson(snapshot.at("trials"));
  InFlightJobs in_flight = ReadInFlight(snapshot, bank);
  const auto trials_created = snapshot.at("trials_created").AsInt();
  IncumbentTracker incumbent = incumbent_;
  ReadIncumbent(snapshot, incumbent);
  Rng rng = rng_;
  ReadRng(snapshot, rng);

  *bank_ = std::move(bank);
  in_flight_ = std::move(in_flight);
  trials_created_ = trials_created;
  incumbent_ = incumbent;
  rng_ = rng;
  if (policy == RestorePolicy::kDropInFlight) {
    DropInFlight(*this, in_flight_, *bank_);
  }
}

}  // namespace hypertune
