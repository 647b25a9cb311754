// Synchronous Successive Halving (Algorithm 1), parallelized the "naive" way
// the paper critiques (Section 3.1, after Falkner et al. 2018): the surviving
// configurations of each rung are distributed across workers, every
// configuration in a rung must complete before the next rung starts, and a
// new bracket instance is spawned when no jobs are available in existing
// instances. Stragglers therefore stall promotions and dropped jobs shrink
// rungs — the failure modes Figures 7-8 quantify.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/geometry.h"
#include "core/incumbent.h"
#include "core/rung.h"
#include "core/sampler.h"
#include "core/scheduler.h"

namespace hypertune {

struct ShaOptions {
  /// Number of configurations in the bottom rung of each bracket.
  std::size_t n = 256;
  double r = 1;
  double R = 256;
  double eta = 4;
  int s = 0;
  bool resume_from_checkpoint = true;
  /// Spawn a fresh bracket instance when existing instances have no
  /// dispatchable work (keeps workers busy; the Falkner et al. scheme).
  /// When false the scheduler runs exactly one bracket and then finishes.
  bool spawn_new_brackets = true;
  /// When the incumbent is committed: at bracket completion (how SHA's
  /// output is defined) or at each rung completion (Appendix A.2's
  /// "by rung" accounting). kIntermediate offers after every result.
  IncumbentPolicy incumbent_policy = IncumbentPolicy::kByBracket;
  std::uint64_t seed = 1;
  /// Reported by name(); lets wrappers (BOHB = SHA + TPE sampler) label
  /// themselves.
  std::string display_name = "SHA";
};

class SyncShaScheduler final : public Scheduler {
 public:
  SyncShaScheduler(std::shared_ptr<ConfigSampler> sampler, ShaOptions options,
                   std::shared_ptr<TrialBank> bank = nullptr);

  std::optional<Job> GetJob() override;
  void ReportResult(const Job& job, double loss) override;
  void ReportLost(const Job& job) override;
  bool Finished() const override;
  std::optional<Recommendation> Current() const override;
  const TrialBank& trials() const override { return *bank_; }
  std::string name() const override { return options_.display_name; }
  void SetTelemetry(Telemetry* telemetry) override { telemetry_ = telemetry; }

  const ShaOptions& options() const { return options_; }
  const BracketGeometry& geometry() const { return geometry_; }

  std::size_t NumBracketInstances() const { return instances_.size(); }
  std::size_t NumCompletedBrackets() const { return completed_brackets_; }

  /// Resource units dispatched so far across all bracket instances.
  double ResourceDispatched() const { return resource_dispatched_; }

  /// Crash recovery: bracket instances (queues, dispatch cursors, rung
  /// results, promotion marks, frontiers), in-flight jobs, counters, the
  /// incumbent, and the sampling RNG. With kDropInFlight, dropping the
  /// in-flight jobs runs through ReportLost — shrinking rungs and settling
  /// frontiers exactly as live worker deaths would.
  bool SupportsSnapshot() const override { return sampler_->Stateless(); }
  Json Snapshot() const override;
  void Restore(const Json& snapshot, RestorePolicy policy) override;
  using Scheduler::Restore;

  /// Composite-scheduler hooks (synchronous Hyperband): snapshot without
  /// the shared trial bank / restore assuming the composite already
  /// restored it.
  Json SnapshotState(bool include_bank) const;
  void RestoreState(const Json& snapshot, RestorePolicy policy,
                    bool restore_bank);

 private:
  /// One in-flight copy of the bracket.
  struct BracketInstance {
    /// Trials scheduled to run at each rung (rung 0 is the initial sample;
    /// later rungs are filled on promotion).
    std::vector<std::vector<TrialId>> queue;
    /// Per rung: how many of `queue[k]` have been dispatched.
    std::vector<std::size_t> dispatched;
    /// Per rung: dispatched jobs not yet reported (completed or lost).
    std::vector<std::size_t> outstanding;
    /// Per rung: completed results.
    std::vector<Rung> rungs;
    /// Lowest rung that has not completed.
    int frontier = 0;
    bool complete = false;
  };

  /// The options a snapshot must have been taken under ("bracket").
  Json Identity() const;
  BracketInstance MakeInstance();
  std::optional<Job> DispatchFrom(std::size_t instance_idx);
  void OnRungSettled(std::size_t instance_idx);
  Job MakeJob(std::size_t instance_idx, TrialId id, int rung);

  std::shared_ptr<ConfigSampler> sampler_;
  ShaOptions options_;
  std::shared_ptr<TrialBank> bank_;
  BracketGeometry geometry_;
  std::vector<BracketInstance> instances_;
  IncumbentTracker incumbent_;
  Telemetry* telemetry_ = nullptr;
  Rng rng_;
  std::size_t completed_brackets_ = 0;
  double resource_dispatched_ = 0;
  /// Jobs dispatched but not yet reported (a trial runs in exactly one
  /// instance at a time). Captured by Snapshot.
  InFlightJobs in_flight_;
};

}  // namespace hypertune
