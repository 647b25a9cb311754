// PBT explore-phase perturbation, as described in the paper's Appendix A.3:
// with probability 3/4 each inherited hyperparameter is perturbed by a factor
// of 1.2 or 0.8 (ordered choices step to an adjacent option), and with
// probability 1/4 it is resampled uniformly. Parameters that change the
// network architecture can be frozen (vanilla PBT cannot mutate them because
// inherited weights would become invalid).
#pragma once

#include <functional>
#include <string_view>

#include "common/rng.h"
#include "searchspace/space.h"

namespace hypertune {

struct PbtExploreOptions {
  /// Probability of perturbing (vs. resampling) each parameter.
  double perturb_probability = 0.75;
  /// Returns true for parameters that must not be mutated (architecture
  /// parameters). Defaults to freezing nothing.
  std::function<bool(std::string_view)> frozen = nullptr;
};

/// Applies the explore step to every non-frozen parameter of `config`.
/// The returned configuration is always contained in `space`.
Configuration PbtExplore(const SearchSpace& space, const Configuration& config,
                         const PbtExploreOptions& options, Rng& rng);

}  // namespace hypertune
