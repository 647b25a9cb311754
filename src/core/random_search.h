// Random search: every job trains a freshly sampled configuration for the
// full resource R. The embarrassingly-parallel baseline of Figures 3 and 9.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "core/incumbent.h"
#include "core/sampler.h"
#include "core/scheduler.h"

namespace hypertune {

struct RandomSearchOptions {
  double R = 256;
  /// Optional cap on configurations (-1 = unlimited).
  std::int64_t max_trials = -1;
  std::uint64_t seed = 1;
};

class RandomSearchScheduler final : public Scheduler {
 public:
  RandomSearchScheduler(std::shared_ptr<ConfigSampler> sampler,
                        RandomSearchOptions options,
                        std::shared_ptr<TrialBank> bank = nullptr);

  std::optional<Job> GetJob() override;
  void ReportResult(const Job& job, double loss) override;
  void ReportLost(const Job& job) override;
  bool Finished() const override;
  std::optional<Recommendation> Current() const override;
  const TrialBank& trials() const override { return *bank_; }
  std::string name() const override { return "Random"; }

  /// Crash recovery: trials, in-flight jobs, counters, incumbent, and the
  /// sampling RNG (see Scheduler::Snapshot).
  bool SupportsSnapshot() const override { return sampler_->Stateless(); }
  Json Snapshot() const override;
  void Restore(const Json& snapshot, RestorePolicy policy) override;
  using Scheduler::Restore;

 private:
  /// The options a snapshot must have been taken under (top-level keys).
  Json Identity() const;

  std::shared_ptr<ConfigSampler> sampler_;
  RandomSearchOptions options_;
  std::shared_ptr<TrialBank> bank_;
  IncumbentTracker incumbent_;
  Rng rng_;
  std::int64_t trials_created_ = 0;
  /// Jobs issued and not yet reported.
  InFlightJobs in_flight_;
};

}  // namespace hypertune
