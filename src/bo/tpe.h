// TPE-style model-based configuration sampler, following BOHB (Falkner et
// al. 2018): per resource level, split observations into "good" (best
// top_fraction) and "bad", fit a KDE to each, and sample configurations
// maximizing the density ratio good(x)/bad(x). Modeling always uses the
// highest resource level with enough observations; until then (and with
// probability `random_fraction` forever) sampling is uniform.
//
// Plugged into SyncShaScheduler this reproduces BOHB; plugged into
// AshaScheduler it gives the "ASHA + adaptive sampling" extension the
// paper's conclusion sketches.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "bo/kde.h"
#include "core/sampler.h"

namespace hypertune {

struct TpeOptions {
  /// Fraction of observations (per resource level) labeled "good".
  double top_fraction = 0.15;
  /// Probability of falling back to a uniform random sample (BOHB default).
  double random_fraction = 1.0 / 3.0;
  /// Minimum observations at a level before its model is used; defaults to
  /// dim + 1 when 0.
  std::size_t min_points = 0;
};

class TpeSampler final : public ConfigSampler {
 public:
  TpeSampler(SearchSpace space, TpeOptions options = {});

  Configuration Sample(Rng& rng) override;
  void Observe(const Configuration& config, double resource,
               double loss) override;

  const SearchSpace& space() const { return space_; }

  /// Highest resource level currently holding a usable model (-1 if none);
  /// exposed for tests.
  double ModelResource() const;

 private:
  struct LevelModel {
    KernelDensityEstimator good;
    KernelDensityEstimator bad;
  };
  struct LevelData {
    std::vector<std::vector<double>> points;
    std::vector<double> losses;
    /// Good/bad KDEs fitted to the current points; rebuilt lazily on the
    /// next Sample after an observation lands at this level. Caching only
    /// skips recomputation of identical density models, so sampling
    /// decisions are unchanged.
    std::unique_ptr<LevelModel> model;
  };

  std::size_t MinPoints() const;
  /// The cached (or freshly built) KDE pair for one level's data.
  const LevelModel& ModelFor(LevelData& level) const;

  SearchSpace space_;
  TpeOptions options_;
  std::map<double, LevelData> levels_;
};

}  // namespace hypertune
