// Acquisition functions and candidate-search helpers for GP-based tuners.
#pragma once

#include <span>
#include <vector>

#include "bo/gp.h"
#include "common/rng.h"

namespace hypertune {

/// Standard normal pdf / cdf (Abramowitz–Stegun-quality erf-based cdf).
double NormalPdf(double z);
double NormalCdf(double z);

/// Expected improvement of a *minimization* objective below `best` for a
/// Gaussian posterior N(mean, variance). Zero variance yields
/// max(best - mean, 0).
double ExpectedImprovement(double mean, double variance, double best);

/// EI of every candidate under the GP posterior, computed with one batched
/// prediction (one multi-RHS solve). Each candidate's score is
/// bit-identical to the scalar-Predict result.
std::vector<double> ScoreEiBatch(const GaussianProcess& gp,
                                 std::span<const std::vector<double>> candidates,
                                 double best_observed);

/// Index of the maximum score; ties resolve to the lowest index (matching a
/// first-strictly-greater sequential scan). Requires non-empty scores.
std::size_t ArgMaxScore(std::span<const double> scores);

/// Maximizes EI over `num_candidates` uniform random points in [0,1]^dim
/// (random-search acquisition optimization, as production GP services do at
/// scale). Returns the best candidate point.
std::vector<double> SuggestByEi(const GaussianProcess& gp, std::size_t dim,
                                double best_observed,
                                std::size_t num_candidates, Rng& rng);

}  // namespace hypertune
