// The GP's covariance kernel over the unit hypercube: Matern 5/2, the
// standard choice for hyperparameter response surfaces (twice
// differentiable but less smooth than RBF), as Vizier-style GP bandits use.
//
// The kernel is stationary and isotropic: k(a, b) is a function of the
// squared distance |a - b|^2 alone. The GP exploits this by computing the
// pairwise squared-distance matrix once per fit and evaluating every
// lengthscale in its grid through FromSquaredDistance — the distances never
// need recomputing when only the lengthscale changes.
#pragma once

#include <span>

namespace hypertune {

/// Unit signal variance: (1 + sqrt(5) d + 5 d^2 / 3) exp(-sqrt(5) d) with
/// d = |a - b| / lengthscale.
class Matern52Kernel {
 public:
  explicit Matern52Kernel(double lengthscale);

  /// k(a, b) as a function of d2 = |a - b|^2. This is the primitive;
  /// operator() is the convenience wrapper that computes d2 first.
  double FromSquaredDistance(double d2) const;

  double operator()(std::span<const double> a, std::span<const double> b) const;

 private:
  double lengthscale_;
};

}  // namespace hypertune
