#include "bo/kde.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "common/stats.h"

namespace hypertune {

namespace {

constexpr double kMinBandwidth = 1e-3;

}  // namespace

KernelDensityEstimator::KernelDensityEstimator(
    std::vector<std::vector<double>> points, double bandwidth_factor)
    : points_(std::move(points)) {
  HT_CHECK_MSG(!points_.empty(), "KDE needs at least one point");
  HT_CHECK(bandwidth_factor > 0);
  const std::size_t d = points_.front().size();
  HT_CHECK(d > 0);
  for (const auto& p : points_) HT_CHECK(p.size() == d);

  const double n = static_cast<double>(points_.size());
  const double scott = std::pow(n, -1.0 / (static_cast<double>(d) + 4.0));
  bandwidths_.resize(d);
  std::vector<double> column(points_.size());
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < points_.size(); ++i) column[i] = points_[i][j];
    const double sd = Stddev(column);
    bandwidths_[j] =
        std::max(kMinBandwidth, bandwidth_factor * scott * std::max(sd, 0.05));
  }
}

double KernelDensityEstimator::Pdf(const std::vector<double>& x) const {
  HT_CHECK(x.size() == Dim());
  const double norm_1d = 1.0 / std::sqrt(2.0 * std::numbers::pi);
  double total = 0;
  for (const auto& center : points_) {
    double k = 1.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double z = (x[j] - center[j]) / bandwidths_[j];
      k *= norm_1d / bandwidths_[j] * std::exp(-0.5 * z * z);
    }
    total += k;
  }
  return total / static_cast<double>(points_.size());
}

std::vector<double> KernelDensityEstimator::Sample(Rng& rng) const {
  const auto& center = points_[rng.Index(points_.size())];
  std::vector<double> x(Dim());
  for (std::size_t j = 0; j < Dim(); ++j) {
    x[j] = std::clamp(center[j] + rng.Normal(0.0, bandwidths_[j]), 0.0, 1.0);
  }
  return x;
}

}  // namespace hypertune
