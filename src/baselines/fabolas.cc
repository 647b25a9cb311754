#include "baselines/fabolas.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace hypertune {

FabolasScheduler::FabolasScheduler(SearchSpace space, FabolasOptions options)
    : space_(std::move(space)),
      options_(options),
      bank_(std::make_shared<TrialBank>()),
      rng_(options.seed) {
  HT_CHECK(options_.R > 0);
  HT_CHECK(!options_.fidelities.empty());
  HT_CHECK(options_.fidelities.size() == options_.fidelity_repeats.size());
  HT_CHECK(std::is_sorted(options_.fidelities.begin(),
                          options_.fidelities.end()));
  HT_CHECK(options_.fidelities.back() == 1.0);
  for (double f : options_.fidelities) HT_CHECK(f > 0 && f <= 1.0);
  for (int reps : options_.fidelity_repeats) HT_CHECK(reps > 0);
}

std::vector<double> FabolasScheduler::Augment(const std::vector<double>& x,
                                              double fidelity) const {
  std::vector<double> augmented = x;
  const double f_min = options_.fidelities.front();
  // log-scale fidelity to [0,1]: cheapest -> 0, full data -> 1.
  augmented.push_back(std::log(fidelity / f_min) / std::log(1.0 / f_min));
  return augmented;
}

double FabolasScheduler::NextFidelity() {
  int total = 0;
  for (int reps : options_.fidelity_repeats) total += reps;
  const auto pos = static_cast<int>(schedule_pos_++ % static_cast<std::size_t>(total));
  int acc = 0;
  for (std::size_t i = 0; i < options_.fidelities.size(); ++i) {
    acc += options_.fidelity_repeats[i];
    if (pos < acc) return options_.fidelities[i];
  }
  return 1.0;
}

bool FabolasScheduler::RefitIfStale() {
  if (observed_y_.size() < options_.num_initial_random) return false;
  if (fit_valid_ &&
      observed_y_.size() - completions_at_fit_ < options_.refit_every) {
    return false;
  }
  std::vector<std::vector<double>> x = observed_x_;
  std::vector<double> y = observed_y_;
  if (x.size() > options_.max_gp_points) {
    // Keep the best and the most recent halves.
    const auto order = ArgsortAscending(y);
    std::vector<std::size_t> keep;
    const std::size_t half = options_.max_gp_points / 2;
    keep.assign(order.begin(),
                order.begin() + static_cast<std::ptrdiff_t>(half));
    for (std::size_t i = y.size(); i-- > 0 && keep.size() < options_.max_gp_points;) {
      if (std::find(keep.begin(), keep.end(), i) == keep.end()) keep.push_back(i);
    }
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i : keep) {
      xs.push_back(x[i]);
      ys.push_back(y[i]);
    }
    x = std::move(xs);
    y = std::move(ys);
  }
  gp_.Fit(std::move(x), std::move(y));
  completions_at_fit_ = observed_y_.size();
  fit_valid_ = true;
  return true;
}

std::optional<Job> FabolasScheduler::GetJob() {
  if (RefitIfStale()) UpdateIncumbent();
  const std::size_t d = space_.NumParams();
  std::vector<double> point(d);
  if (!fit_valid_) {
    for (auto& u : point) u = rng_.Uniform();
  } else {
    // EI on the predicted full-data loss; the incumbent caches the best
    // predicted value under the current fit (recomputing it per suggestion
    // would rescan every evaluated configuration).
    const double best_predicted =
        incumbent_ ? incumbent_->loss
                   : std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> candidates(
        options_.candidates_per_suggest, std::vector<double>(d));
    std::vector<std::vector<double>> augmented;
    augmented.reserve(candidates.size());
    for (auto& candidate : candidates) {
      for (auto& u : candidate) u = rng_.Uniform();
      augmented.push_back(Augment(candidate, 1.0));
    }
    const auto scores = ScoreEiBatch(gp_, augmented, best_predicted);
    point = std::move(candidates[ArgMaxScore(scores)]);
  }

  const double fidelity = fit_valid_ ? NextFidelity() : options_.fidelities[0];
  Configuration config = space_.FromUnitVector(point);
  const TrialId id = bank_->Create(std::move(config), /*bracket=*/0);
  Trial& trial = bank_->Get(id);
  trial.status = TrialStatus::kRunning;
  evaluated_configs_.emplace_back(id, space_.ToUnitVector(trial.config));

  Job job;
  job.trial_id = id;
  job.config = trial.config;
  job.from_resource = 0;  // subset training is always a full retrain
  job.to_resource = fidelity * options_.R;
  return job;
}

void FabolasScheduler::UpdateIncumbent() {
  if (!fit_valid_ || evaluated_configs_.empty()) return;
  // One batched prediction over every evaluated configuration instead of
  // |configs| scalar solves.
  std::vector<std::vector<double>> augmented;
  augmented.reserve(evaluated_configs_.size());
  for (const auto& [id, x] : evaluated_configs_) {
    augmented.push_back(Augment(x, 1.0));
  }
  const auto predictions = gp_.PredictBatch(augmented);
  double best = std::numeric_limits<double>::infinity();
  TrialId best_id = -1;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i].mean < best) {
      best = predictions[i].mean;
      best_id = evaluated_configs_[i].first;
    }
  }
  if (best_id >= 0) incumbent_ = Recommendation{best_id, best, options_.R};
}

void FabolasScheduler::ReportResult(const Job& job, double loss) {
  Trial& trial = bank_->Get(job.trial_id);
  trial.status = TrialStatus::kCompleted;
  bank_->RecordObservation(job.trial_id, job.to_resource, loss);

  const double fidelity = job.to_resource / options_.R;
  observed_x_.push_back(
      Augment(space_.ToUnitVector(trial.config), fidelity));
  observed_y_.push_back(loss);

  // Re-ranking every evaluated configuration under the GP is O(|configs| *
  // n^2); do it only when the model actually changed.
  if (RefitIfStale()) UpdateIncumbent();
  // Before the model is trusted, recommend the best cheap observation.
  if (!incumbent_ || !fit_valid_) {
    if (!incumbent_ || loss < incumbent_->loss) {
      incumbent_ = Recommendation{job.trial_id, loss, job.to_resource};
    }
  }
}

void FabolasScheduler::ReportLost(const Job& job) {
  bank_->Get(job.trial_id).status = TrialStatus::kLost;
  std::erase_if(evaluated_configs_,
                [&](const auto& kv) { return kv.first == job.trial_id; });
}

std::optional<Recommendation> FabolasScheduler::Current() const {
  return incumbent_;
}

}  // namespace hypertune
