// Synchronous Hyperband (Li et al. 2018): loops through SHA brackets with
// early-stopping rates s = 0 .. s_max, automating the choice of the
// early-stopping rate. Bracket s starts with n_s = max(1, floor(n0 * eta^-s))
// configurations, so every bracket consumes a comparable total budget.
//
// The incumbent accounting policy distinguishes the paper's "Hyperband
// (by rung)" and "Hyperband (by bracket)" variants (Appendix A.2, Fig. 9).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/incumbent.h"
#include "core/sampler.h"
#include "core/scheduler.h"
#include "core/sha.h"

namespace hypertune {

struct HyperbandOptions {
  /// Bottom-rung size of the most aggressive bracket (s = 0).
  std::size_t n0 = 256;
  double r = 1;
  double R = 256;
  double eta = 4;
  bool resume_from_checkpoint = true;
  /// kByBracket or kByRung (Appendix A.2); kIntermediate offers after every
  /// result like ASHA.
  IncumbentPolicy incumbent_policy = IncumbentPolicy::kByBracket;
  /// Loop back to bracket 0 after s_max (runs forever); when false one pass
  /// over the brackets is made and the scheduler finishes.
  bool loop_forever = true;
  std::uint64_t seed = 1;
};

class HyperbandScheduler final : public Scheduler {
 public:
  HyperbandScheduler(std::shared_ptr<ConfigSampler> sampler,
                     HyperbandOptions options,
                     std::shared_ptr<TrialBank> bank = nullptr);

  std::optional<Job> GetJob() override;
  void ReportResult(const Job& job, double loss) override;
  void ReportLost(const Job& job) override;
  bool Finished() const override;
  std::optional<Recommendation> Current() const override;
  const TrialBank& trials() const override { return *bank_; }
  std::string name() const override { return "Hyperband"; }
  /// Forwarded to every bracket, including ones started later.
  void SetTelemetry(Telemetry* telemetry) override;

  std::size_t NumBracketsCompleted() const { return brackets_run_.size() - 1; }

  /// Crash recovery: the shared trial bank, every bracket run so far (each
  /// a SyncShaScheduler snapshot, bank omitted), and the wrapper-level
  /// incumbent. Brackets are reconstructed with their original options and
  /// seeds, then restored in order.
  bool SupportsSnapshot() const override { return sampler_->Stateless(); }
  Json Snapshot() const override;
  void Restore(const Json& snapshot, RestorePolicy policy) override;
  using Scheduler::Restore;

 private:
  /// The options a snapshot must have been taken under ("options").
  Json Identity() const;
  void StartNextBracketIfNeeded();
  /// Appends bracket #brackets_run_.size() with its deterministic options
  /// (early-stopping rate, cohort size, seed). Shared by the live path and
  /// Restore, so restored brackets are reconstructed bit-identically.
  void PushBracket();

  std::shared_ptr<ConfigSampler> sampler_;
  HyperbandOptions options_;
  std::shared_ptr<TrialBank> bank_;
  int s_max_;
  /// All brackets ever run; jobs are routed back by the high bits of the tag.
  std::vector<std::unique_ptr<SyncShaScheduler>> brackets_run_;
  IncumbentTracker incumbent_;
  Telemetry* telemetry_ = nullptr;
  std::uint64_t seed_counter_;
};

}  // namespace hypertune
