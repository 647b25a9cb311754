#include "bo/acquisition.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace hypertune {

double NormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

double ExpectedImprovement(double mean, double variance, double best) {
  HT_CHECK(variance >= 0);
  const double sigma = std::sqrt(variance);
  if (sigma < 1e-12) return std::max(best - mean, 0.0);
  const double z = (best - mean) / sigma;
  return (best - mean) * NormalCdf(z) + sigma * NormalPdf(z);
}

std::vector<double> ScoreEiBatch(
    const GaussianProcess& gp, std::span<const std::vector<double>> candidates,
    double best_observed) {
  const auto predictions = gp.PredictBatch(candidates);
  std::vector<double> scores(predictions.size());
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    scores[i] = ExpectedImprovement(predictions[i].mean,
                                    predictions[i].variance, best_observed);
  }
  return scores;
}

std::size_t ArgMaxScore(std::span<const double> scores) {
  HT_CHECK(!scores.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return best;
}

std::vector<double> SuggestByEi(const GaussianProcess& gp, std::size_t dim,
                                double best_observed,
                                std::size_t num_candidates, Rng& rng) {
  HT_CHECK(dim > 0 && num_candidates > 0);
  // Draw all candidates first (same stream order as scoring them one by
  // one), then score in one batched pass.
  std::vector<std::vector<double>> candidates(num_candidates,
                                              std::vector<double>(dim));
  for (auto& candidate : candidates) {
    for (auto& u : candidate) u = rng.Uniform();
  }
  const auto scores = ScoreEiBatch(gp, candidates, best_observed);
  return candidates[ArgMaxScore(scores)];
}

}  // namespace hypertune
