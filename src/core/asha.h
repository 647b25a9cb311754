// ASHA — the Asynchronous Successive Halving Algorithm (Algorithm 2).
//
// Whenever a worker is free, GetJob() scans rungs top-down for a promotable
// configuration (among the best floor(|rung|/eta) of a rung, not yet
// promoted); if none exists it grows the bottom rung with a freshly sampled
// configuration. Promotions therefore never wait on rung completion, which
// removes synchronous SHA's straggler bottleneck at the cost of a vanishing
// fraction of mispromotions (Section 3.3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/geometry.h"
#include "core/incumbent.h"
#include "core/rung.h"
#include "core/sampler.h"
#include "core/scheduler.h"

namespace hypertune {

struct AshaOptions {
  /// Minimum resource r (before the early-stopping rate multiplier).
  double r = 1;
  /// Maximum per-configuration resource R. Ignored in the infinite horizon.
  double R = 256;
  /// Reduction factor eta >= 2.
  double eta = 4;
  /// Minimum early-stopping rate s: the bottom rung trains to r * eta^s.
  int s = 0;
  /// When true (paper Section 3.2, iterative training), promoted trials
  /// resume from their checkpoint and only pay the resource increment;
  /// when false every job retrains from scratch.
  bool resume_from_checkpoint = true;
  /// Section 3.3: when true, promotions are never capped at R and the
  /// bracket grows upward indefinitely.
  bool infinite_horizon = false;
  /// Optional cap on the number of configurations sampled into the bottom
  /// rung (-1 = unlimited). Useful for tests and for emulating a fixed
  /// candidate pool.
  std::int64_t max_trials = -1;
  /// Seed for the configuration-sampling stream.
  std::uint64_t seed = 1;
  /// Reported by name(); lets wrappers (ASHA + model-based samplers) label
  /// themselves.
  std::string display_name = "ASHA";
};

class AshaScheduler final : public Scheduler {
 public:
  /// `bank` may be shared with sibling schedulers (asynchronous Hyperband);
  /// when null a private bank is created.
  AshaScheduler(std::shared_ptr<ConfigSampler> sampler, AshaOptions options,
                std::shared_ptr<TrialBank> bank = nullptr);

  std::optional<Job> GetJob() override;
  void ReportResult(const Job& job, double loss) override;
  void ReportLost(const Job& job) override;
  bool Finished() const override;
  std::optional<Recommendation> Current() const override;
  const TrialBank& trials() const override { return *bank_; }
  std::string name() const override { return options_.display_name; }
  void SetTelemetry(Telemetry* telemetry) override { telemetry_ = telemetry; }

  const AshaOptions& options() const { return options_; }

  /// Number of rungs currently instantiated (fixed in the finite horizon).
  std::size_t NumRungs() const { return rungs_.size(); }
  const Rung& rung(std::size_t k) const;

  /// Resource a configuration is trained to at rung k.
  Resource RungResource(int k) const;

  /// Total resource units dispatched so far (sum of job costs, counting
  /// checkpoint resume). Asynchronous Hyperband uses this to decide when a
  /// hypothetical synchronous bracket's budget is depleted.
  double ResourceDispatched() const { return resource_dispatched_; }

  /// Number of configurations this scheduler has sampled.
  std::int64_t NumTrialsCreated() const { return trials_created_; }

  /// Service-style crash recovery: captures trials, rung results, promotion
  /// marks, in-flight jobs, counters, and the sampling RNG as a JSON
  /// document. With RestorePolicy::kDropInFlight (the default) in-flight
  /// jobs are resolved as lost on Restore, exactly as if the workers died
  /// with the service process; kKeepInFlight leaves them open for a
  /// durability layer to settle.
  bool SupportsSnapshot() const override { return sampler_->Stateless(); }
  Json Snapshot() const override;
  void Restore(const Json& snapshot, RestorePolicy policy) override;
  using Scheduler::Restore;

  /// Composite-scheduler hooks (asynchronous Hyperband): snapshot without
  /// the shared trial bank / restore assuming the composite already
  /// restored it. Everyone else wants Snapshot()/Restore().
  Json SnapshotState(bool include_bank) const;
  void RestoreState(const Json& snapshot, RestorePolicy policy,
                    bool restore_bank);

 private:
  /// The options a snapshot must have been taken under ("bracket").
  Json Identity() const;
  bool IsTopRung(int k) const;
  std::optional<Job> FindPromotion();
  Job MakeJob(TrialId id, int rung);

  std::shared_ptr<ConfigSampler> sampler_;
  AshaOptions options_;
  std::shared_ptr<TrialBank> bank_;
  BracketGeometry geometry_;
  std::vector<Rung> rungs_;
  IncumbentTracker incumbent_;
  Telemetry* telemetry_ = nullptr;
  Rng rng_;
  std::int64_t trials_created_ = 0;
  double resource_dispatched_ = 0;
  /// Jobs issued and not yet reported: reports are checked against it,
  /// Snapshot captures it, and Restore resolves or re-opens it.
  InFlightJobs in_flight_;
};

}  // namespace hypertune
