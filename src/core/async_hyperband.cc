#include "core/async_hyperband.h"

#include <cmath>

#include "common/check.h"
#include "common/json.h"
#include "core/geometry.h"
#include "core/trial_json.h"

namespace hypertune {

AsyncHyperbandScheduler::AsyncHyperbandScheduler(
    std::shared_ptr<ConfigSampler> sampler, AsyncHyperbandOptions options,
    std::shared_ptr<TrialBank> bank)
    : bank_(bank ? std::move(bank) : std::make_shared<TrialBank>()) {
  HT_CHECK(sampler != nullptr);
  const int s_max = SMax(options.r, options.R, options.eta);
  for (int s = 0; s <= s_max; ++s) {
    AshaOptions asha;
    asha.r = options.r;
    asha.R = options.R;
    asha.eta = options.eta;
    asha.s = s;
    asha.resume_from_checkpoint = options.resume_from_checkpoint;
    asha.seed = options.seed + static_cast<std::uint64_t>(s);
    brackets_.push_back(
        std::make_unique<AshaScheduler>(sampler, asha, bank_));

    const auto geometry =
        BracketGeometry::Make(options.r, options.R, options.eta, s);
    const auto n_s = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(options.n0) *
                                    std::pow(options.eta, -s)));
    bracket_budget_.push_back(
        geometry.TotalBudget(n_s, options.resume_from_checkpoint));
    budget_threshold_.push_back(0.0);
  }
  budget_threshold_[0] = bracket_budget_[0];
}

void AsyncHyperbandScheduler::AdvanceBracketIfDepleted() {
  // Rotate (possibly several times) until the current bracket has budget
  // remaining in its current visit.
  for (std::size_t hops = 0; hops <= brackets_.size(); ++hops) {
    const auto s = static_cast<std::size_t>(current_);
    if (brackets_[s]->ResourceDispatched() < budget_threshold_[s]) return;
    current_ = static_cast<int>((s + 1) % brackets_.size());
    const auto next = static_cast<std::size_t>(current_);
    if (budget_threshold_[next] <=
        brackets_[next]->ResourceDispatched()) {
      budget_threshold_[next] =
          brackets_[next]->ResourceDispatched() + bracket_budget_[next];
    }
  }
}

std::optional<Job> AsyncHyperbandScheduler::GetJob() {
  AdvanceBracketIfDepleted();
  // ASHA always has work (it can grow its bottom rung), so the current
  // bracket serves the request; job.bracket == s routes the report back.
  return brackets_[static_cast<std::size_t>(current_)]->GetJob();
}

void AsyncHyperbandScheduler::ReportResult(const Job& job, double loss) {
  auto& bracket = *brackets_.at(static_cast<std::size_t>(job.bracket));
  bracket.ReportResult(job, loss);
  // Like ASHA, asynchronous Hyperband recommends on intermediate losses.
  incumbent_.Offer(job.trial_id, loss, job.to_resource);
}

void AsyncHyperbandScheduler::ReportLost(const Job& job) {
  brackets_.at(static_cast<std::size_t>(job.bracket))->ReportLost(job);
}

std::optional<Recommendation> AsyncHyperbandScheduler::Current() const {
  return incumbent_.Current();
}

Json AsyncHyperbandScheduler::Identity() const {
  Json json = JsonObject{};
  json.Set("num_brackets", Json(static_cast<std::int64_t>(brackets_.size())));
  return json;
}

Json AsyncHyperbandScheduler::Snapshot() const {
  if (!SupportsSnapshot()) return Scheduler::Snapshot();
  Json json = Identity();
  json.Set("trials", ToJson(*bank_));
  Json brackets = JsonArray{};
  for (const auto& bracket : brackets_) {
    brackets.PushBack(bracket->SnapshotState(/*include_bank=*/false));
  }
  json.Set("brackets", std::move(brackets));
  Json thresholds = JsonArray{};
  for (double threshold : budget_threshold_) {
    thresholds.PushBack(Json(threshold));
  }
  json.Set("budget_threshold", std::move(thresholds));
  json.Set("current", Json(current_));
  WriteIncumbent(incumbent_, json);
  return json;
}

void AsyncHyperbandScheduler::Restore(const Json& snapshot,
                                      RestorePolicy policy) {
  if (!SupportsSnapshot()) return Scheduler::Restore(snapshot, policy);
  HT_CHECK_MSG(bank_->size() == 0,
               "Restore requires a freshly constructed scheduler");
  CheckIdentity(snapshot, Identity());
  TrialBank bank = TrialBankFromJson(snapshot.at("trials"));
  const auto& brackets = snapshot.at("brackets").AsArray();
  HT_CHECK(brackets.size() == brackets_.size());
  // Check every bracket's in-flight jobs before any state changes.
  for (const auto& bracket : brackets) ReadInFlight(bracket, bank);
  *bank_ = std::move(bank);
  for (std::size_t s = 0; s < brackets.size(); ++s) {
    brackets_[s]->RestoreState(brackets[s], policy, /*restore_bank=*/false);
  }
  const auto& thresholds = snapshot.at("budget_threshold").AsArray();
  HT_CHECK(thresholds.size() == budget_threshold_.size());
  for (std::size_t s = 0; s < thresholds.size(); ++s) {
    budget_threshold_[s] = thresholds[s].AsDouble();
  }
  current_ = static_cast<int>(snapshot.at("current").AsInt());
  ReadIncumbent(snapshot, incumbent_);
}

}  // namespace hypertune
