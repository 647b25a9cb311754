#include "analysis/trajectory.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace hypertune {

void Trajectory::Add(double time, double metric) {
  HT_CHECK_MSG(points_.empty() || time >= points_.back().first,
               "trajectory points must be time-ordered");
  points_.emplace_back(time, metric);
}

double Trajectory::At(double t) const {
  double value = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [time, metric] : points_) {
    if (time > t) break;
    value = metric;
  }
  return value;
}

double Trajectory::TimeToReach(double target) const {
  for (const auto& [time, metric] : points_) {
    if (metric <= target) return time;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

Trajectory TestMetricTrajectory(const DriverResult& result,
                                const TrialBank& trials,
                                const SyntheticBenchmark& benchmark) {
  Trajectory trajectory;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& rec : result.recommendations) {
    const Trial& trial = trials.Get(rec.trial_id);
    const double metric = benchmark.TestMetric(trial.config, rec.resource);
    // The incumbent can switch to a config whose *test* metric is worse
    // (validation noise); keep the running best to match "best found so
    // far" reporting.
    best = std::min(best, metric);
    trajectory.Add(rec.time, best);
  }
  return trajectory;
}

}  // namespace hypertune
