// Small statistics helpers shared by the simulator, tuners, and analysis.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hypertune {

/// Arithmetic mean; 0 for an empty span.
double Mean(std::span<const double> xs);

/// Sample variance (n-1 denominator); 0 for fewer than two elements.
double Variance(std::span<const double> xs);

/// Sample standard deviation.
double Stddev(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1]. Requires a non-empty span.
/// Matches numpy's default ("linear") method so paper-style quartile bands
/// are comparable.
double Quantile(std::span<const double> xs, double q);

/// Median shorthand.
double Median(std::span<const double> xs);

/// Welford running accumulator for streaming mean/variance.
class RunningStats {
 public:
  void Add(double x);
  std::size_t Count() const { return n_; }
  double Mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance; 0 with fewer than two observations.
  double Variance() const;
  double Min() const { return min_; }
  double Max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Returns the indices that would sort `xs` ascending (stable).
std::vector<std::size_t> ArgsortAscending(std::span<const double> xs);

/// Fractional ranks (average rank for ties), 1-based.
std::vector<double> Ranks(std::span<const double> xs);

/// Spearman rank correlation in [-1, 1]; requires two spans of equal size
/// >= 2. Returns 0 when either input is constant.
double SpearmanCorrelation(std::span<const double> xs,
                           std::span<const double> ys);

}  // namespace hypertune
