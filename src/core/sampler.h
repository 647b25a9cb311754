// Pluggable configuration proposal strategy.
//
// SHA/ASHA draw new configurations at the bottom rung; *how* they are drawn
// is orthogonal to the promotion scheme. Random sampling gives the paper's
// SHA/ASHA; plugging in the TPE-style model from src/bo gives BOHB (which
// "differs only in how configurations are sampled", Section 4.1).
#pragma once

#include <memory>

#include "common/rng.h"
#include "searchspace/space.h"

namespace hypertune {

class ConfigSampler {
 public:
  virtual ~ConfigSampler() = default;

  /// Proposes the next configuration to evaluate.
  virtual Configuration Sample(Rng& rng) = 0;

  /// Feeds back an evaluation so model-based samplers can adapt.
  /// Resource is the level the loss was measured at.
  virtual void Observe(const Configuration& config, double resource,
                       double loss) {
    (void)config;
    (void)resource;
    (void)loss;
  }

  /// True when Sample draws only from the Rng it is handed and Observe
  /// keeps nothing, so a scheduler snapshot — which carries that Rng —
  /// restores the sampler exactly. Samplers with state of their own (a
  /// model's observations, a sequence index) return false, and their
  /// schedulers report SupportsSnapshot() == false.
  virtual bool Stateless() const { return false; }
};

/// Uniform random sampling from the search space (the paper's default).
class RandomConfigSampler final : public ConfigSampler {
 public:
  explicit RandomConfigSampler(SearchSpace space) : space_(std::move(space)) {}

  Configuration Sample(Rng& rng) override { return space_.Sample(rng); }
  bool Stateless() const override { return true; }

  const SearchSpace& space() const { return space_; }

 private:
  SearchSpace space_;
};

std::shared_ptr<ConfigSampler> MakeRandomSampler(SearchSpace space);

}  // namespace hypertune
