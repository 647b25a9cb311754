#include "bo/tpe.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace hypertune {

namespace {

/// Candidates drawn from the good KDE per suggestion.
constexpr std::size_t kNumCandidates = 32;
/// BOHB widens KDE bandwidths by this factor to keep exploring.
constexpr double kBandwidthFactor = 3.0;

}  // namespace

TpeSampler::TpeSampler(SearchSpace space, TpeOptions options)
    : space_(std::move(space)), options_(options) {
  HT_CHECK(options_.top_fraction > 0 && options_.top_fraction < 1);
  HT_CHECK(options_.random_fraction >= 0 && options_.random_fraction <= 1);
}

std::size_t TpeSampler::MinPoints() const {
  if (options_.min_points > 0) return options_.min_points;
  return space_.NumParams() + 1;
}

double TpeSampler::ModelResource() const {
  // Need enough points that both the good and bad sets are non-trivial.
  for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
    const std::size_t n = it->second.points.size();
    const auto n_good = static_cast<std::size_t>(
        std::ceil(options_.top_fraction * static_cast<double>(n)));
    if (n_good >= MinPoints() && n - n_good >= MinPoints()) return it->first;
  }
  return -1;
}

void TpeSampler::Observe(const Configuration& config, double resource,
                         double loss) {
  if (!std::isfinite(loss)) return;
  auto& level = levels_[resource];
  level.points.push_back(space_.ToUnitVector(config));
  level.losses.push_back(loss);
  level.model.reset();  // densities are stale; rebuild on next Sample
}

const TpeSampler::LevelModel& TpeSampler::ModelFor(LevelData& level) const {
  if (level.model != nullptr) return *level.model;

  const auto order = ArgsortAscending(level.losses);
  const auto n = order.size();
  const auto n_good = static_cast<std::size_t>(
      std::ceil(options_.top_fraction * static_cast<double>(n)));
  std::vector<std::vector<double>> good, bad;
  good.reserve(n_good);
  bad.reserve(n - n_good);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n_good) {
      good.push_back(level.points[order[i]]);
    } else {
      bad.push_back(level.points[order[i]]);
    }
  }
  level.model = std::make_unique<LevelModel>(LevelModel{
      KernelDensityEstimator(std::move(good), kBandwidthFactor),
      KernelDensityEstimator(std::move(bad), kBandwidthFactor)});
  return *level.model;
}

Configuration TpeSampler::Sample(Rng& rng) {
  const double model_resource = ModelResource();
  if (model_resource < 0 || rng.Bernoulli(options_.random_fraction)) {
    return space_.Sample(rng);
  }
  // The KDE pair only changes when new observations land at the level, but
  // BOHB samples between every pair of completions — cache it.
  const LevelModel& model = ModelFor(levels_.at(model_resource));
  const KernelDensityEstimator& good_kde = model.good;
  const KernelDensityEstimator& bad_kde = model.bad;

  std::vector<double> best_point;
  double best_ratio = -1;
  for (std::size_t c = 0; c < kNumCandidates; ++c) {
    auto candidate = good_kde.Sample(rng);
    const double g = good_kde.Pdf(candidate);
    const double b = std::max(bad_kde.Pdf(candidate), 1e-32);
    const double ratio = g / b;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_point = std::move(candidate);
    }
  }
  return space_.FromUnitVector(best_point);
}

}  // namespace hypertune
