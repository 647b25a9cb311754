// A Vizier-like tuner: GP-bandit Bayesian optimization with expected
// improvement and constant-liar batching, evaluating every configuration at
// the full resource R (the paper compares against Vizier's default algorithm
// *without* early stopping, Section 4.3 footnote 2).
//
// Substitution note (DESIGN.md §2): Google Vizier is a closed service; this
// implements the published algorithm family it defaults to (GP bandit over
// the unit hypercube with batched suggestions). To keep the O(n^3) GP
// tractable at 500 workers the model is refit every `refit_every`
// completions on at most `max_gp_points` observations (the most recent
// window) — a standard scalability compromise that production services
// also make.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bo/acquisition.h"
#include "bo/gp.h"
#include "common/rng.h"
#include "core/incumbent.h"
#include "core/scheduler.h"
#include "searchspace/space.h"

namespace hypertune {

struct VizierOptions {
  double R = 256;
  /// Random designs before the model is trusted.
  std::size_t num_initial_random = 10;
  /// Random candidates scored by EI per suggestion.
  std::size_t candidates_per_suggest = 128;
  /// Completions between GP refits.
  std::size_t refit_every = 25;
  /// Max observations in a fit: the most recent window. Heavy-tailed
  /// outliers stay in the training set and wreck the standardized GP,
  /// reproducing the degradation the paper reports on PTB (Section 4.3).
  std::size_t max_gp_points = 200;
  /// Losses are clipped here before entering the model; the paper tried
  /// capping PTB perplexities at 1000 to help Vizier (Section 4.3).
  double loss_cap = std::numeric_limits<double>::infinity();
  std::uint64_t seed = 1;
};

class VizierScheduler final : public Scheduler {
 public:
  VizierScheduler(SearchSpace space, VizierOptions options);

  std::optional<Job> GetJob() override;
  void ReportResult(const Job& job, double loss) override;
  void ReportLost(const Job& job) override;
  bool Finished() const override { return false; }
  std::optional<Recommendation> Current() const override;
  const TrialBank& trials() const override { return *bank_; }
  std::string name() const override { return "Vizier"; }
  /// Forwards the sink to the GP (bo.fit_full / bo.fit_rank1 counters and
  /// the bo.fit_seconds histogram).
  void SetTelemetry(Telemetry* telemetry) override {
    gp_.SetTelemetry(telemetry);
  }
  SchedulerCost Cost() const override {
    const GpFitStats& stats = gp_.fit_stats();
    return {stats.full_fits, stats.rank1_updates, stats.fit_seconds};
  }

  std::size_t NumCompleted() const { return completed_x_.size(); }

 private:
  void RefitIfStale();
  std::vector<double> SuggestPoint();

  SearchSpace space_;
  VizierOptions options_;
  std::shared_ptr<TrialBank> bank_;
  IncumbentTracker incumbent_;
  Rng rng_;

  std::vector<std::vector<double>> completed_x_;
  std::vector<double> completed_y_;
  /// Points dispatched but unreported; fed to the GP with the constant-liar
  /// target so parallel suggestions spread out.
  std::vector<std::vector<double>> pending_x_;
  GaussianProcess gp_;
  std::size_t completions_at_fit_ = 0;
  bool fit_valid_ = false;
  double best_loss_ = std::numeric_limits<double>::infinity();
};

}  // namespace hypertune
