#include "core/asha.h"

#include <cmath>

#include "common/check.h"
#include "core/trial_json.h"
#include "telemetry/telemetry.h"

namespace hypertune {

namespace {

Json TrialArgs(TrialId id, int bracket) {
  Json args = JsonObject{};
  args.Set("trial", Json(id));
  args.Set("bracket", Json(bracket));
  return args;
}

}  // namespace

AshaScheduler::AshaScheduler(std::shared_ptr<ConfigSampler> sampler,
                             AshaOptions options,
                             std::shared_ptr<TrialBank> bank)
    : sampler_(std::move(sampler)),
      options_(options),
      bank_(bank ? std::move(bank) : std::make_shared<TrialBank>()),
      geometry_(BracketGeometry::Make(options.r, options.R, options.eta,
                                      options.s)),
      rng_(options.seed) {
  HT_CHECK(sampler_ != nullptr);
  if (options_.infinite_horizon) {
    rungs_.resize(1);  // grows on demand
  } else {
    rungs_.resize(static_cast<std::size_t>(geometry_.NumRungs()));
  }
}

const Rung& AshaScheduler::rung(std::size_t k) const {
  HT_CHECK_MSG(k < rungs_.size(), "rung " << k << " not instantiated");
  return rungs_[k];
}

Resource AshaScheduler::RungResource(int k) const {
  if (options_.infinite_horizon) {
    return options_.r * std::pow(options_.eta, options_.s + k);
  }
  return geometry_.RungResource(k);
}

bool AshaScheduler::IsTopRung(int k) const {
  if (options_.infinite_horizon) return false;  // no top rung
  return k == geometry_.NumRungs() - 1;
}

Job AshaScheduler::MakeJob(TrialId id, int rung) {
  Trial& trial = bank_->Get(id);
  Job job;
  job.trial_id = id;
  job.config = trial.config;
  job.from_resource =
      options_.resume_from_checkpoint ? trial.resource_trained : 0.0;
  job.to_resource = RungResource(rung);
  job.rung = rung;
  job.bracket = options_.s;
  in_flight_.Open(job);
  trial.status = TrialStatus::kRunning;
  resource_dispatched_ += job.to_resource - job.from_resource;
  return job;
}

std::optional<Job> AshaScheduler::FindPromotion() {
  // Algorithm 2, get_job lines 13-19: scan from the highest promotable rung
  // down, promoting the best not-yet-promoted configuration among the top
  // floor(|rung|/eta).
  for (int k = static_cast<int>(rungs_.size()) - 1; k >= 0; --k) {
    if (IsTopRung(k)) continue;  // never promote out of the top rung
    const auto promotable =
        rungs_[static_cast<std::size_t>(k)].FirstPromotable(options_.eta);
    if (!promotable) continue;
    const TrialId id = *promotable;
    rungs_[static_cast<std::size_t>(k)].MarkPromoted(id);
    if (options_.infinite_horizon &&
        static_cast<std::size_t>(k) + 1 == rungs_.size()) {
      rungs_.emplace_back();  // grow the bracket upward (Section 3.3)
    }
    if (telemetry_ != nullptr) {
      Json args = TrialArgs(id, options_.s);
      args.Set("from_rung", Json(k));
      args.Set("to_rung", Json(k + 1));
      telemetry_->Event("trial_promoted", "trial", std::move(args));
      telemetry_->Count("scheduler.promotions");
    }
    return MakeJob(id, k + 1);
  }
  return std::nullopt;
}

std::optional<Job> AshaScheduler::GetJob() {
  if (auto promotion = FindPromotion()) return promotion;
  // Algorithm 2 line 20: no promotion possible — grow the bottom rung.
  if (options_.max_trials >= 0 && trials_created_ >= options_.max_trials) {
    return std::nullopt;
  }
  Configuration config = sampler_->Sample(rng_);
  const TrialId id = bank_->Create(std::move(config), options_.s);
  ++trials_created_;
  if (telemetry_ != nullptr) {
    telemetry_->Event("trial_sampled", "trial", TrialArgs(id, options_.s));
    telemetry_->Count("scheduler.trials_sampled");
  }
  return MakeJob(id, 0);
}

void AshaScheduler::ReportResult(const Job& job, double loss) {
  in_flight_.Resolve(job);
  Trial& trial = bank_->Get(job.trial_id);
  bank_->RecordObservation(job.trial_id, job.to_resource, loss);
  rungs_.at(static_cast<std::size_t>(job.rung)).Record(job.trial_id, loss);
  trial.status = IsTopRung(job.rung) ? TrialStatus::kCompleted
                                     : TrialStatus::kPaused;
  if (telemetry_ != nullptr) {
    telemetry_->Count("scheduler.results");
    if (trial.status == TrialStatus::kCompleted) {
      Json args = TrialArgs(job.trial_id, options_.s);
      args.Set("loss", Json(loss));
      args.Set("resource", Json(job.to_resource));
      telemetry_->Event("trial_completed", "trial", std::move(args));
    }
  }
  // Section 3.3: ASHA uses intermediate losses for its recommendation.
  incumbent_.Offer(job.trial_id, loss, job.to_resource);
  sampler_->Observe(trial.config, job.to_resource, loss);
}

void AshaScheduler::ReportLost(const Job& job) {
  in_flight_.Resolve(job);
  // The configuration's work is gone; ASHA simply moves on (the robustness
  // property evaluated in Appendix A.1). If the trial had been promoted its
  // promotion mark stays — the slot is lost, not recycled.
  bank_->Get(job.trial_id).status = TrialStatus::kLost;
  if (telemetry_ != nullptr) {
    Json args = TrialArgs(job.trial_id, options_.s);
    args.Set("rung", Json(job.rung));
    telemetry_->Event("trial_lost", "trial", std::move(args));
    telemetry_->Count("scheduler.jobs_lost");
  }
}

bool AshaScheduler::Finished() const {
  if (options_.max_trials < 0) return false;  // can always grow rung 0
  if (trials_created_ < options_.max_trials) return false;
  if (!in_flight_.empty()) return false;  // completions may unlock promotions
  // O(1) per rung against the incremental promotable index — this runs on
  // every executor worker-loop iteration, so the old O(n)-scan,
  // vector-allocating PromotableTrials walk here throttled large fleets.
  for (int k = 0; k < static_cast<int>(rungs_.size()); ++k) {
    if (IsTopRung(k)) continue;
    if (rungs_[static_cast<std::size_t>(k)].HasPromotable(options_.eta)) {
      return false;
    }
  }
  return true;
}

std::optional<Recommendation> AshaScheduler::Current() const {
  return incumbent_.Current();
}

Json AshaScheduler::Snapshot() const {
  if (!SupportsSnapshot()) return Scheduler::Snapshot();
  return SnapshotState(true);
}

void AshaScheduler::Restore(const Json& snapshot, RestorePolicy policy) {
  if (!SupportsSnapshot()) return Scheduler::Restore(snapshot, policy);
  RestoreState(snapshot, policy, true);
}

Json AshaScheduler::Identity() const {
  Json bracket = JsonObject{};
  bracket.Set("r", Json(options_.r));
  bracket.Set("R", Json(options_.R));
  bracket.Set("eta", Json(options_.eta));
  bracket.Set("s", Json(options_.s));
  bracket.Set("infinite_horizon", Json(options_.infinite_horizon));
  return bracket;
}

Json AshaScheduler::SnapshotState(bool include_bank) const {
  Json json = JsonObject{};
  json.Set("bracket", Identity());
  if (include_bank) json.Set("trials", ToJson(*bank_));
  Json rungs = JsonArray{};
  for (const auto& rung : rungs_) rungs.PushBack(ToJson(rung));
  json.Set("rungs", std::move(rungs));
  WriteInFlight(in_flight_, *bank_, json);
  json.Set("trials_created", Json(trials_created_));
  json.Set("resource_dispatched", Json(resource_dispatched_));
  WriteIncumbent(incumbent_, json);
  WriteRng(rng_, json);
  return json;
}

void AshaScheduler::RestoreState(const Json& snapshot, RestorePolicy policy,
                                 bool restore_bank) {
  HT_CHECK_MSG(trials_created_ == 0 && in_flight_.empty(),
               "Restore requires a freshly constructed scheduler");
  if (restore_bank) {
    HT_CHECK_MSG(bank_->size() == 0,
                 "Restore requires an untouched trial bank");
  }
  CheckIdentity(snapshot.at("bracket"), Identity());
  // Parse and check every field into locals, then commit: a refused
  // snapshot leaves the scheduler untouched. A composite restores the
  // shared bank (and checks it) beforehand.
  TrialBank bank =
      restore_bank ? TrialBankFromJson(snapshot.at("trials")) : TrialBank{};
  InFlightJobs in_flight =
      ReadInFlight(snapshot, restore_bank ? bank : *bank_);
  const auto& rung_json = snapshot.at("rungs").AsArray();
  std::vector<Rung> rungs(std::max<std::size_t>(rung_json.size(), 1));
  if (!options_.infinite_horizon) {
    rungs.resize(static_cast<std::size_t>(geometry_.NumRungs()));
    HT_CHECK_MSG(rung_json.size() <= rungs.size(),
                 "snapshot has more rungs than the bracket allows");
  }
  for (std::size_t k = 0; k < rung_json.size(); ++k) {
    rungs[k] = RungFromJson(rung_json[k]);
  }
  const auto trials_created = snapshot.at("trials_created").AsInt();
  const double resource_dispatched =
      snapshot.at("resource_dispatched").AsDouble();
  IncumbentTracker incumbent = incumbent_;
  ReadIncumbent(snapshot, incumbent);
  Rng rng = rng_;
  ReadRng(snapshot, rng);

  if (restore_bank) *bank_ = std::move(bank);
  in_flight_ = std::move(in_flight);
  rungs_ = std::move(rungs);
  trials_created_ = trials_created;
  resource_dispatched_ = resource_dispatched;
  incumbent_ = incumbent;
  rng_ = rng;
  if (policy == RestorePolicy::kDropInFlight) {
    DropInFlight(*this, in_flight_, *bank_);
  }
}

}  // namespace hypertune
