// Product-Gaussian kernel density estimation over the unit hypercube —
// the density model behind BOHB's TPE-style sampler.
#pragma once

#include <vector>

#include "common/rng.h"

namespace hypertune {

class KernelDensityEstimator {
 public:
  /// Fits per-dimension bandwidths with Scott's rule (n^(-1/(d+4)) * std,
  /// scaled by `bandwidth_factor` and floored at 1e-3) over the given
  /// unit-cube points.
  explicit KernelDensityEstimator(std::vector<std::vector<double>> points,
                                  double bandwidth_factor = 1.0);

  std::size_t NumPoints() const { return points_.size(); }
  std::size_t Dim() const { return bandwidths_.size(); }
  const std::vector<double>& bandwidths() const { return bandwidths_; }

  /// Density at x (mixture of product Gaussians centered at the points).
  double Pdf(const std::vector<double>& x) const;

  /// Draws a sample: pick a kernel center uniformly, add per-dimension
  /// Gaussian noise, clamp to [0,1].
  std::vector<double> Sample(Rng& rng) const;

 private:
  std::vector<std::vector<double>> points_;
  std::vector<double> bandwidths_;
};

}  // namespace hypertune
