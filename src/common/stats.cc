#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace hypertune {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return ss / static_cast<double>(xs.size() - 1);
}

double Stddev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

double Quantile(std::span<const double> xs, double q) {
  HT_CHECK(!xs.empty());
  HT_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of range: " << q);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Median(std::span<const double> xs) { return Quantile(xs, 0.5); }

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::Variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

std::vector<std::size_t> ArgsortAscending(std::span<const double> xs) {
  std::vector<std::size_t> idx(xs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  return idx;
}

std::vector<double> Ranks(std::span<const double> xs) {
  const auto order = ArgsortAscending(xs);
  std::vector<double> ranks(xs.size());
  std::size_t i = 0;
  while (i < order.size()) {
    // Tie group [i, j): all equal values share the average rank.
    std::size_t j = i + 1;
    while (j < order.size() && xs[order[j]] == xs[order[i]]) ++j;
    const double average_rank =
        (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k < j; ++k) ranks[order[k]] = average_rank;
    i = j;
  }
  return ranks;
}

double SpearmanCorrelation(std::span<const double> xs,
                           std::span<const double> ys) {
  HT_CHECK_MSG(xs.size() == ys.size() && xs.size() >= 2,
               "Spearman needs two equal-length samples of size >= 2");
  const auto rx = Ranks(xs);
  const auto ry = Ranks(ys);
  const double mx = Mean(rx);
  const double my = Mean(ry);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  if (sxx < 1e-12 || syy < 1e-12) return 0.0;  // constant input
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace hypertune
