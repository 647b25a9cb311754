// Best-metric-so-far trajectories: the quantity every figure in the paper
// plots (test error / perplexity of the incumbent configuration vs time).
#pragma once

#include <vector>

#include "core/trial.h"
#include "sim/driver.h"
#include "surrogate/benchmark.h"

namespace hypertune {

/// A right-continuous step function of metric over time.
class Trajectory {
 public:
  /// Points must be added in non-decreasing time order.
  void Add(double time, double metric);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  /// Value of the last point with time <= t; NaN before the first point.
  double At(double t) const;

  /// First time the trajectory reaches `target` or below; NaN if never.
  double TimeToReach(double target) const;

  const std::vector<std::pair<double, double>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;  // (time, metric)
};

/// Maps a driver run's recommendation history to the *test* metric of the
/// recommended configuration at its recommended resource — the offline
/// evaluation step of Appendix A.2.
Trajectory TestMetricTrajectory(const DriverResult& result,
                                const TrialBank& trials,
                                const SyntheticBenchmark& benchmark);

}  // namespace hypertune
