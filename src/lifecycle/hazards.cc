#include "lifecycle/hazards.h"

#include <cmath>

#include "common/check.h"
#include "core/trial_json.h"

namespace hypertune {

HazardModel::HazardModel(HazardOptions options) : options_(options) {
  HT_CHECK_MSG(options_.straggler_std >= 0.0,
               "straggler_std must be >= 0, got " << options_.straggler_std);
  HT_CHECK_MSG(options_.drop_probability >= 0.0 &&
                   options_.drop_probability < 1.0,
               "drop_probability must be in [0, 1), got "
                   << options_.drop_probability);
  if (options_.drop_probability > 0.0) {
    drop_rate_ = -std::log1p(-options_.drop_probability);
  }
}

double HazardModel::StragglerMultiplier(Rng& rng) const {
  if (options_.straggler_std == 0.0) return 1.0;
  return 1.0 + std::abs(rng.Normal(0.0, options_.straggler_std));
}

std::optional<double> HazardModel::DropTime(double duration, Rng& rng) const {
  if (drop_rate_ == 0.0) return std::nullopt;
  const double t = rng.Exponential(drop_rate_);
  if (t < duration) return t;
  return std::nullopt;
}

HazardInjector::HazardInjector(HazardOptions options, std::uint64_t seed)
    : model_(options), rng_(seed) {}

bool HazardInjector::enabled() const {
  const HazardOptions& options = model_.options();
  return options.straggler_std > 0.0 || options.drop_probability > 0.0;
}

HazardPlan HazardInjector::Plan(double base_duration) {
  HazardPlan plan;
  plan.duration = base_duration * model_.StragglerMultiplier(rng_);
  plan.drop_after = model_.DropTime(plan.duration, rng_);
  if (observer_) observer_(base_duration, plan);
  return plan;
}

Json HazardInjector::Snapshot() const {
  Json json = JsonObject{};
  WriteRng(rng_, json);
  return json;
}

void HazardInjector::Restore(const Json& snapshot) { ReadRng(snapshot, rng_); }

}  // namespace hypertune
