// A Fabolas-like multi-fidelity Bayesian optimizer (Klein et al. 2017).
//
// Substitution note (DESIGN.md §2): Fabolas proper couples a GP over
// (configuration, dataset fraction) with an information-theoretic
// acquisition. This implementation keeps the same information structure —
// one joint GP over [0,1]^d x fidelity learns how cheap subset evaluations
// predict full-data performance — and replaces the entropy-search
// acquisition with EI on the *predicted full-data loss*, paired with a
// cheap-heavy fidelity schedule (most evaluations at small subsets, as
// Fabolas' acquisitions select in practice). The incumbent is the evaluated
// configuration with the lowest predicted full-data loss, matching Klein et
// al.'s offline evaluation protocol (Appendix A.2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bo/acquisition.h"
#include "bo/gp.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "searchspace/space.h"

namespace hypertune {

struct FabolasOptions {
  double R = 4096;
  /// Fidelities as fractions of R, ascending; the schedule cycles through
  /// them with the given repetition counts (mostly-cheap).
  std::vector<double> fidelities = {1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0};
  std::vector<int> fidelity_repeats = {6, 3, 2, 1};
  /// Random designs (at the cheapest fidelity) before trusting the model.
  std::size_t num_initial_random = 10;
  std::size_t candidates_per_suggest = 128;
  std::size_t refit_every = 10;
  std::size_t max_gp_points = 200;
  std::uint64_t seed = 1;
};

class FabolasScheduler final : public Scheduler {
 public:
  FabolasScheduler(SearchSpace space, FabolasOptions options);

  std::optional<Job> GetJob() override;
  void ReportResult(const Job& job, double loss) override;
  void ReportLost(const Job& job) override;
  bool Finished() const override { return false; }
  /// The evaluated configuration with the lowest *predicted* full-data loss.
  std::optional<Recommendation> Current() const override;
  const TrialBank& trials() const override { return *bank_; }
  std::string name() const override { return "Fabolas"; }
  /// Forwards the sink to the GP (bo.fit_full / bo.fit_rank1 counters and
  /// the bo.fit_seconds histogram).
  void SetTelemetry(Telemetry* telemetry) override {
    gp_.SetTelemetry(telemetry);
  }
  SchedulerCost Cost() const override {
    const GpFitStats& stats = gp_.fit_stats();
    return {stats.full_fits, stats.rank1_updates, stats.fit_seconds};
  }

 private:
  /// Unit point augmented with the fidelity coordinate (log-scaled to [0,1]).
  std::vector<double> Augment(const std::vector<double>& x,
                              double fidelity) const;
  double NextFidelity();
  /// Returns true when the GP was actually refit.
  bool RefitIfStale();
  void UpdateIncumbent();

  SearchSpace space_;
  FabolasOptions options_;
  std::shared_ptr<TrialBank> bank_;
  Rng rng_;

  std::vector<std::vector<double>> observed_x_;  // augmented points
  std::vector<double> observed_y_;
  /// Unique evaluated configurations (unit points + their trial ids).
  std::vector<std::pair<TrialId, std::vector<double>>> evaluated_configs_;
  GaussianProcess gp_;
  std::size_t completions_at_fit_ = 0;
  bool fit_valid_ = false;
  std::size_t schedule_pos_ = 0;
  std::optional<Recommendation> incumbent_;
};

}  // namespace hypertune
