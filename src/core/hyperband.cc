#include "core/hyperband.h"

#include <cmath>

#include "common/check.h"
#include "common/json.h"
#include "core/geometry.h"
#include "core/trial_json.h"

namespace hypertune {

namespace {

constexpr std::uint64_t kBracketTagShift = 32;

}  // namespace

HyperbandScheduler::HyperbandScheduler(std::shared_ptr<ConfigSampler> sampler,
                                       HyperbandOptions options,
                                       std::shared_ptr<TrialBank> bank)
    : sampler_(std::move(sampler)),
      options_(options),
      bank_(bank ? std::move(bank) : std::make_shared<TrialBank>()),
      s_max_(SMax(options.r, options.R, options.eta)),
      seed_counter_(options.seed) {
  HT_CHECK(sampler_ != nullptr);
  StartNextBracketIfNeeded();
}

int HyperbandScheduler::CurrentBracket() const {
  HT_CHECK(!brackets_run_.empty());
  return brackets_run_.back()->options().s;
}

void HyperbandScheduler::StartNextBracketIfNeeded() {
  if (!brackets_run_.empty() && !brackets_run_.back()->Finished()) return;
  if (!options_.loop_forever &&
      brackets_run_.size() > static_cast<std::size_t>(s_max_)) {
    return;  // one full pass done
  }
  PushBracket();
}

void HyperbandScheduler::PushBracket() {
  const auto next_index = brackets_run_.size();
  const int s = static_cast<int>(next_index % static_cast<std::size_t>(s_max_ + 1));
  ShaOptions sha;
  sha.n = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(options_.n0) *
                                  std::pow(options_.eta, -s)));
  sha.r = options_.r;
  sha.R = options_.R;
  sha.eta = options_.eta;
  sha.s = s;
  sha.resume_from_checkpoint = options_.resume_from_checkpoint;
  sha.spawn_new_brackets = false;  // Hyperband runs one bracket at a time
  sha.incumbent_policy = options_.incumbent_policy;
  sha.seed = seed_counter_++;
  brackets_run_.push_back(
      std::make_unique<SyncShaScheduler>(sampler_, sha, bank_));
  brackets_run_.back()->SetTelemetry(telemetry_);
}

void HyperbandScheduler::SetTelemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  for (auto& bracket : brackets_run_) bracket->SetTelemetry(telemetry);
}

std::optional<Job> HyperbandScheduler::GetJob() {
  StartNextBracketIfNeeded();
  if (brackets_run_.empty()) return std::nullopt;
  auto job = brackets_run_.back()->GetJob();
  if (!job) return std::nullopt;
  // Route results back to the owning bracket via the high tag bits.
  job->tag |= (brackets_run_.size() - 1) << kBracketTagShift;
  return job;
}

namespace {

Job StripBracketTag(const Job& job) {
  Job inner = job;
  inner.tag &= (std::uint64_t{1} << kBracketTagShift) - 1;
  return inner;
}

}  // namespace

void HyperbandScheduler::ReportResult(const Job& job, double loss) {
  const auto idx = job.tag >> kBracketTagShift;
  auto& bracket = *brackets_run_.at(idx);
  bracket.ReportResult(StripBracketTag(job), loss);
  if (auto rec = bracket.Current()) {
    incumbent_.Offer(rec->trial_id, rec->loss, rec->resource);
  }
}

void HyperbandScheduler::ReportLost(const Job& job) {
  const auto idx = job.tag >> kBracketTagShift;
  brackets_run_.at(idx)->ReportLost(StripBracketTag(job));
}

bool HyperbandScheduler::Finished() const {
  if (options_.loop_forever) return false;
  if (brackets_run_.size() <= static_cast<std::size_t>(s_max_)) return false;
  return brackets_run_.back()->Finished();
}

std::optional<Recommendation> HyperbandScheduler::Current() const {
  return incumbent_.Current();
}

Json HyperbandScheduler::Identity() const {
  Json opts = JsonObject{};
  opts.Set("n0", Json(static_cast<std::int64_t>(options_.n0)));
  opts.Set("r", Json(options_.r));
  opts.Set("R", Json(options_.R));
  opts.Set("eta", Json(options_.eta));
  opts.Set("incumbent_policy",
           Json(static_cast<std::int64_t>(options_.incumbent_policy)));
  opts.Set("loop_forever", Json(options_.loop_forever));
  // Unlike ASHA (whose RNG state is captured directly), future brackets
  // derive their seeds from the base seed — it is part of the identity.
  opts.Set("seed", Json(static_cast<std::int64_t>(options_.seed)));
  return opts;
}

Json HyperbandScheduler::Snapshot() const {
  if (!SupportsSnapshot()) return Scheduler::Snapshot();
  Json json = JsonObject{};
  json.Set("options", Identity());
  json.Set("trials", ToJson(*bank_));
  Json brackets = JsonArray{};
  for (const auto& bracket : brackets_run_) {
    brackets.PushBack(bracket->SnapshotState(/*include_bank=*/false));
  }
  json.Set("brackets", std::move(brackets));
  WriteIncumbent(incumbent_, json);
  return json;
}

void HyperbandScheduler::Restore(const Json& snapshot, RestorePolicy policy) {
  if (!SupportsSnapshot()) return Scheduler::Restore(snapshot, policy);
  HT_CHECK_MSG(bank_->size() == 0 && brackets_run_.size() == 1 &&
                   brackets_run_[0]->NumBracketInstances() == 0,
               "Restore requires a freshly constructed scheduler");
  CheckIdentity(snapshot.at("options"), Identity());

  TrialBank bank = TrialBankFromJson(snapshot.at("trials"));
  // Check every bracket's in-flight jobs before any state changes.
  for (const auto& child : snapshot.at("brackets").AsArray()) {
    ReadInFlight(child, bank);
  }
  *bank_ = std::move(bank);
  // Rebuild each bracket with its original deterministic options, then
  // restore its state (the bank is shared, restored once above).
  brackets_run_.clear();
  seed_counter_ = options_.seed;
  for (const auto& child : snapshot.at("brackets").AsArray()) {
    PushBracket();
    brackets_run_.back()->RestoreState(child, policy,
                                       /*restore_bank=*/false);
  }
  ReadIncumbent(snapshot, incumbent_);
}

}  // namespace hypertune
