// Asynchronous Hyperband (Section 3.2, last paragraph; used in Figures 3
// and 5): loops through brackets of ASHA with early-stopping rates
// s = 0 .. s_max, switching brackets when a budget corresponding to a
// hypothetical synchronous SHA bracket would be depleted.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/asha.h"
#include "core/incumbent.h"
#include "core/sampler.h"
#include "core/scheduler.h"

namespace hypertune {

struct AsyncHyperbandOptions {
  /// Bottom-rung size of the hypothetical SHA bracket at s = 0, used only
  /// to size per-bracket budgets.
  std::size_t n0 = 256;
  double r = 1;
  double R = 256;
  double eta = 4;
  bool resume_from_checkpoint = true;
  std::uint64_t seed = 1;
};

class AsyncHyperbandScheduler final : public Scheduler {
 public:
  AsyncHyperbandScheduler(std::shared_ptr<ConfigSampler> sampler,
                          AsyncHyperbandOptions options,
                          std::shared_ptr<TrialBank> bank = nullptr);

  std::optional<Job> GetJob() override;
  void ReportResult(const Job& job, double loss) override;
  void ReportLost(const Job& job) override;
  bool Finished() const override { return false; }
  std::optional<Recommendation> Current() const override;
  const TrialBank& trials() const override { return *bank_; }
  std::string name() const override { return "Hyperband (async)"; }
  void SetTelemetry(Telemetry* telemetry) override {
    for (auto& bracket : brackets_) bracket->SetTelemetry(telemetry);
  }

  /// Early-stopping rate of the ASHA bracket jobs are currently drawn from.
  int CurrentBracket() const { return current_; }
  std::size_t NumBrackets() const { return brackets_.size(); }
  const AshaScheduler& bracket(std::size_t s) const { return *brackets_.at(s); }

  /// Crash recovery: the shared trial bank, each ASHA bracket's state (bank
  /// omitted), the budget rotation thresholds, and the incumbent. The fixed
  /// bracket set and per-bracket budgets are re-derived by the constructor.
  bool SupportsSnapshot() const override {
    return brackets_.front()->SupportsSnapshot();
  }
  Json Snapshot() const override;
  void Restore(const Json& snapshot, RestorePolicy policy) override;
  using Scheduler::Restore;

 private:
  /// The options a snapshot must have been taken under (top-level keys).
  Json Identity() const;
  void AdvanceBracketIfDepleted();

  std::shared_ptr<TrialBank> bank_;
  std::vector<std::unique_ptr<AshaScheduler>> brackets_;
  /// Hypothetical synchronous-bracket budget for each s.
  std::vector<double> bracket_budget_;
  /// Dispatched-resource level at which the current visit to bracket s ends.
  std::vector<double> budget_threshold_;
  IncumbentTracker incumbent_;
  int current_ = 0;
};

}  // namespace hypertune
