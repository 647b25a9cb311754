#include "searchspace/perturb.h"

#include <array>

#include "common/check.h"

namespace hypertune {

namespace {

/// Multiplicative factors chosen uniformly when perturbing (Appendix A.3).
constexpr std::array<double, 2> kPerturbFactors = {1.2, 0.8};

}  // namespace

Configuration PbtExplore(const SearchSpace& space, const Configuration& config,
                         const PbtExploreOptions& options, Rng& rng) {
  HT_CHECK_MSG(space.Contains(config),
               "PbtExplore: configuration {" << config.ToString()
                                             << "} not in space");
  HT_CHECK(options.perturb_probability >= 0.0 &&
           options.perturb_probability <= 1.0);

  Configuration out;
  for (std::size_t i = 0; i < space.NumParams(); ++i) {
    const std::string& name = space.name(i);
    const Domain& dom = space.domain(i);
    const ParamValue& current = config.Get(name);
    if (options.frozen && options.frozen(name)) {
      out.Set(name, current);
      continue;
    }
    if (rng.Bernoulli(options.perturb_probability)) {
      const double factor = kPerturbFactors[rng.Index(kPerturbFactors.size())];
      out.Set(name, dom.Perturb(current, factor, rng));
    } else {
      out.Set(name, dom.Sample(rng));
    }
  }
  return out;
}

}  // namespace hypertune
