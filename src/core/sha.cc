#include "core/sha.h"

#include <cmath>

#include "common/check.h"
#include "core/trial_json.h"
#include "telemetry/telemetry.h"

namespace hypertune {

SyncShaScheduler::SyncShaScheduler(std::shared_ptr<ConfigSampler> sampler,
                                   ShaOptions options,
                                   std::shared_ptr<TrialBank> bank)
    : sampler_(std::move(sampler)),
      options_(options),
      bank_(bank ? std::move(bank) : std::make_shared<TrialBank>()),
      geometry_(BracketGeometry::Make(options.r, options.R, options.eta,
                                      options.s)),
      rng_(options.seed) {
  HT_CHECK(sampler_ != nullptr);
  // Algorithm 1 line 3: at least one configuration must reach R.
  HT_CHECK_MSG(static_cast<double>(options_.n) >=
                   std::pow(options_.eta, geometry_.s_max - options_.s),
               "n=" << options_.n << " too small: need at least eta^(s_max-s)="
                    << std::pow(options_.eta, geometry_.s_max - options_.s));
}

SyncShaScheduler::BracketInstance SyncShaScheduler::MakeInstance() {
  const auto num_rungs = static_cast<std::size_t>(geometry_.NumRungs());
  BracketInstance inst;
  inst.queue.resize(num_rungs);
  inst.dispatched.assign(num_rungs, 0);
  inst.outstanding.assign(num_rungs, 0);
  inst.rungs.resize(num_rungs);
  // Algorithm 1 line 4: sample the initial cohort.
  inst.queue[0].reserve(options_.n);
  for (std::size_t i = 0; i < options_.n; ++i) {
    inst.queue[0].push_back(
        bank_->Create(sampler_->Sample(rng_), options_.s));
  }
  if (telemetry_ != nullptr) {
    Json args = JsonObject{};
    args.Set("bracket", Json(options_.s));
    args.Set("instance", Json(static_cast<std::int64_t>(instances_.size())));
    args.Set("cohort", Json(static_cast<std::int64_t>(options_.n)));
    telemetry_->Event("bracket_started", "rung", std::move(args));
    telemetry_->Count("scheduler.trials_sampled",
                      static_cast<std::int64_t>(options_.n));
  }
  return inst;
}

Job SyncShaScheduler::MakeJob(std::size_t instance_idx, TrialId id, int rung) {
  Trial& trial = bank_->Get(id);
  Job job;
  job.trial_id = id;
  job.config = trial.config;
  job.from_resource =
      options_.resume_from_checkpoint ? trial.resource_trained : 0.0;
  job.to_resource = geometry_.RungResource(rung);
  job.rung = rung;
  job.bracket = options_.s;
  job.tag = instance_idx;
  in_flight_.Open(job);
  trial.status = TrialStatus::kRunning;
  resource_dispatched_ += job.to_resource - job.from_resource;
  return job;
}

std::optional<Job> SyncShaScheduler::DispatchFrom(std::size_t instance_idx) {
  BracketInstance& inst = instances_[instance_idx];
  if (inst.complete) return std::nullopt;
  // Only the frontier rung may dispatch: that is the synchronization.
  const auto k = static_cast<std::size_t>(inst.frontier);
  if (inst.dispatched[k] < inst.queue[k].size()) {
    const TrialId id = inst.queue[k][inst.dispatched[k]++];
    ++inst.outstanding[k];
    return MakeJob(instance_idx, id, inst.frontier);
  }
  return std::nullopt;
}

std::optional<Job> SyncShaScheduler::GetJob() {
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (auto job = DispatchFrom(i)) return job;
  }
  if (options_.spawn_new_brackets || instances_.empty()) {
    // No dispatchable work anywhere (stragglers hold the frontier rungs) —
    // keep the worker busy with a fresh bracket.
    if (!options_.spawn_new_brackets && !instances_.empty()) return std::nullopt;
    instances_.push_back(MakeInstance());
    return DispatchFrom(instances_.size() - 1);
  }
  return std::nullopt;
}

void SyncShaScheduler::OnRungSettled(std::size_t instance_idx) {
  // Called when every dispatched job of the frontier rung has been reported
  // (completed or lost) and the whole queue was dispatched.
  BracketInstance& inst = instances_[instance_idx];
  const auto k = static_cast<std::size_t>(inst.frontier);
  const Rung& rung = inst.rungs[k];

  if (options_.incumbent_policy == IncumbentPolicy::kByRung &&
      rung.NumRecorded() > 0) {
    incumbent_.Offer(rung.BestTrial(), rung.BestLoss(),
                     geometry_.RungResource(inst.frontier));
  }

  const bool is_top = inst.frontier == geometry_.NumRungs() - 1;
  // Algorithm 1 line 10 generalized to survivors: promote the best
  // floor(|completed|/eta). Dropped jobs shrink the pool — synchronous SHA
  // has no way to recover them.
  const auto promote_count = static_cast<std::size_t>(
      static_cast<double>(rung.NumRecorded()) / options_.eta);

  if (telemetry_ != nullptr) {
    Json args = JsonObject{};
    args.Set("bracket", Json(options_.s));
    args.Set("instance", Json(static_cast<std::int64_t>(instance_idx)));
    args.Set("rung", Json(inst.frontier));
    args.Set("recorded", Json(static_cast<std::int64_t>(rung.NumRecorded())));
    args.Set("promoted",
             Json(static_cast<std::int64_t>(is_top ? 0 : promote_count)));
    telemetry_->Event("rung_settled", "rung", std::move(args));
    telemetry_->Count("scheduler.rungs_settled");
  }

  if (is_top || promote_count == 0) {
    inst.complete = true;
    ++completed_brackets_;
    if (telemetry_ != nullptr) {
      Json args = JsonObject{};
      args.Set("bracket", Json(options_.s));
      args.Set("instance", Json(static_cast<std::int64_t>(instance_idx)));
      telemetry_->Event("bracket_complete", "rung", std::move(args));
      telemetry_->Count("scheduler.brackets_completed");
    }
    if (rung.NumRecorded() > 0 &&
        (options_.incumbent_policy == IncumbentPolicy::kByBracket ||
         options_.incumbent_policy == IncumbentPolicy::kByRung)) {
      // The bracket's output is the best configuration of its final settled
      // rung (by-rung accounting already offered it above; Offer is
      // idempotent for equal candidates).
      incumbent_.Offer(rung.BestTrial(), rung.BestLoss(),
                       geometry_.RungResource(inst.frontier));
    }
    return;
  }

  auto winners = rung.TopK(promote_count);
  for (TrialId id : winners) {
    inst.rungs[k].MarkPromoted(id);
    bank_->Get(id).status = TrialStatus::kPaused;
    if (telemetry_ != nullptr) {
      Json args = JsonObject{};
      args.Set("trial", Json(id));
      args.Set("bracket", Json(options_.s));
      args.Set("from_rung", Json(inst.frontier));
      args.Set("to_rung", Json(inst.frontier + 1));
      telemetry_->Event("trial_promoted", "trial", std::move(args));
      telemetry_->Count("scheduler.promotions");
    }
  }
  inst.queue[k + 1] = std::move(winners);
  ++inst.frontier;
}

void SyncShaScheduler::ReportResult(const Job& job, double loss) {
  in_flight_.Resolve(job);
  auto& inst = instances_.at(job.tag);
  const auto k = static_cast<std::size_t>(job.rung);
  HT_CHECK(inst.outstanding[k] > 0);
  --inst.outstanding[k];

  bank_->RecordObservation(job.trial_id, job.to_resource, loss);
  inst.rungs[k].Record(job.trial_id, loss);
  Trial& trial = bank_->Get(job.trial_id);
  trial.status = job.rung == geometry_.NumRungs() - 1
                     ? TrialStatus::kCompleted
                     : TrialStatus::kPaused;
  sampler_->Observe(trial.config, job.to_resource, loss);
  if (telemetry_ != nullptr) telemetry_->Count("scheduler.results");
  if (options_.incumbent_policy == IncumbentPolicy::kIntermediate) {
    incumbent_.Offer(job.trial_id, loss, job.to_resource);
  }

  if (inst.dispatched[k] == inst.queue[k].size() && inst.outstanding[k] == 0 &&
      static_cast<int>(k) == inst.frontier) {
    OnRungSettled(job.tag);
  }
}

void SyncShaScheduler::ReportLost(const Job& job) {
  in_flight_.Resolve(job);
  auto& inst = instances_.at(job.tag);
  const auto k = static_cast<std::size_t>(job.rung);
  HT_CHECK(inst.outstanding[k] > 0);
  --inst.outstanding[k];
  bank_->Get(job.trial_id).status = TrialStatus::kLost;
  if (telemetry_ != nullptr) {
    Json args = JsonObject{};
    args.Set("trial", Json(job.trial_id));
    args.Set("bracket", Json(options_.s));
    args.Set("rung", Json(job.rung));
    telemetry_->Event("trial_lost", "trial", std::move(args));
    telemetry_->Count("scheduler.jobs_lost");
  }

  if (inst.dispatched[k] == inst.queue[k].size() && inst.outstanding[k] == 0 &&
      static_cast<int>(k) == inst.frontier) {
    OnRungSettled(job.tag);
  }
}

bool SyncShaScheduler::Finished() const {
  if (options_.spawn_new_brackets) return false;
  if (instances_.empty()) return false;  // first bracket not yet started
  for (const auto& inst : instances_) {
    if (!inst.complete) return false;
  }
  return true;
}

std::optional<Recommendation> SyncShaScheduler::Current() const {
  return incumbent_.Current();
}

Json SyncShaScheduler::Snapshot() const {
  if (!SupportsSnapshot()) return Scheduler::Snapshot();
  return SnapshotState(true);
}

void SyncShaScheduler::Restore(const Json& snapshot, RestorePolicy policy) {
  if (!SupportsSnapshot()) return Scheduler::Restore(snapshot, policy);
  RestoreState(snapshot, policy, true);
}

Json SyncShaScheduler::Identity() const {
  Json bracket = JsonObject{};
  bracket.Set("n", Json(static_cast<std::int64_t>(options_.n)));
  bracket.Set("r", Json(options_.r));
  bracket.Set("R", Json(options_.R));
  bracket.Set("eta", Json(options_.eta));
  bracket.Set("s", Json(options_.s));
  bracket.Set("spawn_new_brackets", Json(options_.spawn_new_brackets));
  bracket.Set("incumbent_policy",
              Json(static_cast<std::int64_t>(options_.incumbent_policy)));
  return bracket;
}

Json SyncShaScheduler::SnapshotState(bool include_bank) const {
  Json json = JsonObject{};
  json.Set("bracket", Identity());
  if (include_bank) json.Set("trials", ToJson(*bank_));

  Json instances = JsonArray{};
  for (const auto& inst : instances_) {
    Json entry = JsonObject{};
    Json queue = JsonArray{};
    for (const auto& rung_queue : inst.queue) {
      Json ids = JsonArray{};
      for (TrialId id : rung_queue) ids.PushBack(Json(id));
      queue.PushBack(std::move(ids));
    }
    entry.Set("queue", std::move(queue));
    Json dispatched = JsonArray{};
    for (std::size_t d : inst.dispatched) {
      dispatched.PushBack(Json(static_cast<std::int64_t>(d)));
    }
    entry.Set("dispatched", std::move(dispatched));
    Json outstanding = JsonArray{};
    for (std::size_t o : inst.outstanding) {
      outstanding.PushBack(Json(static_cast<std::int64_t>(o)));
    }
    entry.Set("outstanding", std::move(outstanding));
    Json rungs = JsonArray{};
    for (const auto& rung : inst.rungs) rungs.PushBack(ToJson(rung));
    entry.Set("rungs", std::move(rungs));
    entry.Set("frontier", Json(inst.frontier));
    entry.Set("complete", Json(inst.complete));
    instances.PushBack(std::move(entry));
  }
  json.Set("instances", std::move(instances));

  WriteInFlight(in_flight_, *bank_, json);
  json.Set("completed_brackets",
           Json(static_cast<std::int64_t>(completed_brackets_)));
  json.Set("resource_dispatched", Json(resource_dispatched_));
  WriteIncumbent(incumbent_, json);
  WriteRng(rng_, json);
  return json;
}

void SyncShaScheduler::RestoreState(const Json& snapshot, RestorePolicy policy,
                                    bool restore_bank) {
  HT_CHECK_MSG(instances_.empty() && in_flight_.empty(),
               "Restore requires a freshly constructed scheduler");
  if (restore_bank) {
    HT_CHECK_MSG(bank_->size() == 0,
                 "Restore requires an untouched trial bank");
  }
  CheckIdentity(snapshot.at("bracket"), Identity());
  // Every in-flight entry is checked against the bank before any state
  // changes; a composite restores the shared bank (and checks) beforehand.
  TrialBank bank =
      restore_bank ? TrialBankFromJson(snapshot.at("trials")) : TrialBank{};
  in_flight_ = ReadInFlight(snapshot, restore_bank ? bank : *bank_);
  if (restore_bank) *bank_ = std::move(bank);

  for (const auto& entry : snapshot.at("instances").AsArray()) {
    BracketInstance inst;
    for (const auto& ids : entry.at("queue").AsArray()) {
      std::vector<TrialId> rung_queue;
      for (const auto& id : ids.AsArray()) rung_queue.push_back(id.AsInt());
      inst.queue.push_back(std::move(rung_queue));
    }
    for (const auto& d : entry.at("dispatched").AsArray()) {
      inst.dispatched.push_back(static_cast<std::size_t>(d.AsInt()));
    }
    for (const auto& o : entry.at("outstanding").AsArray()) {
      inst.outstanding.push_back(static_cast<std::size_t>(o.AsInt()));
    }
    for (const auto& rung : entry.at("rungs").AsArray()) {
      inst.rungs.push_back(RungFromJson(rung));
    }
    inst.frontier = static_cast<int>(entry.at("frontier").AsInt());
    inst.complete = entry.at("complete").AsBool();
    instances_.push_back(std::move(inst));
  }

  completed_brackets_ =
      static_cast<std::size_t>(snapshot.at("completed_brackets").AsInt());
  resource_dispatched_ = snapshot.at("resource_dispatched").AsDouble();
  ReadIncumbent(snapshot, incumbent_);
  ReadRng(snapshot, rng_);
  // ReportLost shrinks the rung pool and settles frontiers exactly as live
  // worker deaths would.
  if (policy == RestorePolicy::kDropInFlight) {
    DropInFlight(*this, in_flight_, *bank_);
  }
}

}  // namespace hypertune
