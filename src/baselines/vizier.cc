#include "baselines/vizier.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace hypertune {

VizierScheduler::VizierScheduler(SearchSpace space, VizierOptions options)
    : space_(std::move(space)),
      options_(options),
      bank_(std::make_shared<TrialBank>()),
      rng_(options.seed) {
  HT_CHECK(options_.R > 0);
  HT_CHECK(options_.num_initial_random >= 2);
  HT_CHECK(options_.candidates_per_suggest > 0);
  HT_CHECK(options_.refit_every > 0);
  HT_CHECK(options_.max_gp_points >= 10);
}

void VizierScheduler::RefitIfStale() {
  if (completed_y_.size() < options_.num_initial_random) return;
  if (fit_valid_ &&
      completed_y_.size() - completions_at_fit_ < options_.refit_every) {
    return;
  }

  std::vector<std::size_t> chosen;
  const std::size_t n = completed_y_.size();
  if (n <= options_.max_gp_points) {
    chosen.resize(n);
    for (std::size_t i = 0; i < n; ++i) chosen[i] = i;
  } else {
    // The most recent window, outliers and all — a GP fit on raw
    // heavy-tailed losses degrades exactly as the paper reports for Vizier
    // on PTB (Section 4.3).
    for (std::size_t i = n - options_.max_gp_points; i < n; ++i) {
      chosen.push_back(i);
    }
  }

  std::vector<std::vector<double>> x;
  std::vector<double> y;
  x.reserve(chosen.size() + pending_x_.size());
  y.reserve(chosen.size() + pending_x_.size());
  for (std::size_t i : chosen) {
    x.push_back(completed_x_[i]);
    y.push_back(completed_y_[i]);
  }
  // Constant liar: pending points pinned at the mean observed loss, so
  // parallel suggestions repel each other. With hundreds of workers the
  // pending set alone would dominate the O(n^3) fit, so only the most
  // recent liars (the ones EI would otherwise re-suggest) are included.
  const double liar = Mean(y);
  const std::size_t max_liars = options_.max_gp_points / 2;
  const std::size_t start =
      pending_x_.size() > max_liars ? pending_x_.size() - max_liars : 0;
  for (std::size_t i = start; i < pending_x_.size(); ++i) {
    x.push_back(pending_x_[i]);
    y.push_back(liar);
  }
  gp_.Fit(std::move(x), std::move(y));
  completions_at_fit_ = completed_y_.size();
  fit_valid_ = true;
}

std::vector<double> VizierScheduler::SuggestPoint() {
  RefitIfStale();
  const std::size_t d = space_.NumParams();
  if (!fit_valid_) {
    std::vector<double> u(d);
    for (auto& v : u) v = rng_.Uniform();
    return u;
  }
  return SuggestByEi(gp_, d, best_loss_, options_.candidates_per_suggest,
                     rng_);
}

std::optional<Job> VizierScheduler::GetJob() {
  const auto point = SuggestPoint();
  Configuration config = space_.FromUnitVector(point);
  const TrialId id = bank_->Create(std::move(config), /*bracket=*/0);
  Trial& trial = bank_->Get(id);
  trial.status = TrialStatus::kRunning;
  // Pending under the actual unit encoding of the (possibly snapped-to-grid)
  // configuration, not the raw suggestion.
  pending_x_.push_back(space_.ToUnitVector(trial.config));

  Job job;
  job.trial_id = id;
  job.config = trial.config;
  job.from_resource = 0;
  job.to_resource = options_.R;
  job.tag = pending_x_.size() - 1;  // not used for routing; informational
  return job;
}

void VizierScheduler::ReportResult(const Job& job, double loss) {
  Trial& trial = bank_->Get(job.trial_id);
  trial.status = TrialStatus::kCompleted;
  bank_->RecordObservation(job.trial_id, job.to_resource, loss);
  incumbent_.Offer(job.trial_id, loss, job.to_resource);

  const auto point = space_.ToUnitVector(trial.config);
  const auto it = std::find(pending_x_.begin(), pending_x_.end(), point);
  if (it != pending_x_.end()) pending_x_.erase(it);

  const double capped = std::min(loss, options_.loss_cap);
  completed_x_.push_back(point);
  completed_y_.push_back(capped);
  best_loss_ = std::min(best_loss_, capped);
}

void VizierScheduler::ReportLost(const Job& job) {
  Trial& trial = bank_->Get(job.trial_id);
  trial.status = TrialStatus::kLost;
  const auto point = space_.ToUnitVector(trial.config);
  const auto it = std::find(pending_x_.begin(), pending_x_.end(), point);
  if (it != pending_x_.end()) pending_x_.erase(it);
}

std::optional<Recommendation> VizierScheduler::Current() const {
  return incumbent_.Current();
}

}  // namespace hypertune
