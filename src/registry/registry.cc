#include "registry/registry.h"

#include "baselines/bohb.h"
#include "baselines/fabolas.h"
#include "baselines/lc_stop.h"
#include "baselines/median_rule.h"
#include "baselines/pbt.h"
#include "baselines/vizier.h"
#include "common/check.h"
#include "core/asha.h"
#include "core/async_hyperband.h"
#include "core/grid_search.h"
#include "core/quasirandom.h"
#include "core/hyperband.h"
#include "core/random_search.h"
#include "core/sha.h"
#include "searchspace/spaces.h"

namespace hypertune {

namespace {

/// Incumbent policy named by a synchronous tuner's suffix: none counts by
/// rung (the stronger synchronous policy), `_intermediate` and
/// `_by_bracket` select the other two Appendix A.2 accountings.
IncumbentPolicy PolicyFor(const std::string& name) {
  if (name.ends_with("_intermediate")) return IncumbentPolicy::kIntermediate;
  if (name.ends_with("_by_bracket")) return IncumbentPolicy::kByBracket;
  return IncumbentPolicy::kByRung;
}

}  // namespace

std::vector<std::string> TunerNames() {
  return {"asha",
          "asha_tpe",
          "asha_halton",
          "asha_infinite",
          "sha",
          "sha_intermediate",
          "sha_by_bracket",
          "hyperband",
          "hyperband_intermediate",
          "hyperband_by_bracket",
          "async_hyperband",
          "random",
          "halton",
          "grid",
          "bohb",
          "pbt",
          "vizier",
          "vizier_capped",
          "fabolas",
          "median_rule",
          "lc_stop"};
}

std::unique_ptr<Scheduler> MakeTunerByName(const std::string& name,
                                           const SyntheticBenchmark& benchmark,
                                           const TunerParams& params) {
  return MakeTuner(name,
                   {.space = &benchmark.space(),
                    .R = benchmark.R(),
                    .resumable = benchmark.spec().resumable,
                    .random_guess_loss = benchmark.spec().random_guess_loss},
                   params);
}

std::unique_ptr<Scheduler> MakeTuner(const std::string& name,
                                     const TunerEnv& env,
                                     const TunerParams& params) {
  HT_CHECK_MSG(env.space != nullptr, "TunerEnv needs a search space");
  const double R = env.R;
  const double r = params.r.value_or(R / params.r_divisor);
  const bool resume = params.resume && env.resumable;
  const SearchSpace& space = *env.space;

  if (name == "asha" || name == "asha_tpe" || name == "asha_halton" ||
      name == "asha_infinite") {
    AshaOptions options;
    options.r = r;
    options.R = R;
    options.eta = params.eta;
    options.s = params.s;
    options.seed = params.seed;
    options.resume_from_checkpoint = resume;
    options.infinite_horizon = name == "asha_infinite";
    options.max_trials = params.max_trials;
    if (name == "asha_tpe") return MakeAshaTpe(space, options, TpeOptions{});
    if (name == "asha_halton") {
      options.display_name = "ASHA+Halton";
      return std::make_unique<AshaScheduler>(
          std::make_shared<HaltonSampler>(space), options);
    }
    return std::make_unique<AshaScheduler>(MakeRandomSampler(space), options);
  }
  if (name == "sha" || name == "sha_intermediate" ||
      name == "sha_by_bracket") {
    ShaOptions options;
    options.n = params.n;
    options.r = r;
    options.R = R;
    options.eta = params.eta;
    options.s = params.s;
    options.seed = params.seed;
    options.resume_from_checkpoint = resume;
    options.incumbent_policy = PolicyFor(name);
    options.spawn_new_brackets = params.spawn_new_brackets;
    return std::make_unique<SyncShaScheduler>(MakeRandomSampler(space),
                                              options);
  }
  if (name == "hyperband" || name == "hyperband_intermediate" ||
      name == "hyperband_by_bracket") {
    HyperbandOptions options;
    options.n0 = params.n;
    options.r = r;
    options.R = R;
    options.eta = params.eta;
    options.seed = params.seed;
    options.resume_from_checkpoint = resume;
    options.incumbent_policy = PolicyFor(name);
    return std::make_unique<HyperbandScheduler>(MakeRandomSampler(space),
                                                options);
  }
  if (name == "async_hyperband") {
    AsyncHyperbandOptions options;
    options.n0 = params.n;
    options.r = r;
    options.R = R;
    options.eta = params.eta;
    options.seed = params.seed;
    options.resume_from_checkpoint = resume;
    return std::make_unique<AsyncHyperbandScheduler>(MakeRandomSampler(space),
                                                     options);
  }
  if (name == "random" || name == "halton") {
    RandomSearchOptions options;
    options.R = R;
    options.max_trials = params.max_trials;
    options.seed = params.seed;
    auto sampler = name == "halton"
                       ? std::shared_ptr<ConfigSampler>(
                             std::make_shared<HaltonSampler>(space))
                       : MakeRandomSampler(space);
    return std::make_unique<RandomSearchScheduler>(std::move(sampler),
                                                   options);
  }
  if (name == "grid") {
    GridSearchOptions options;
    options.R = R;
    options.resolution = params.grid_resolution;
    return std::make_unique<GridSearchScheduler>(space, options);
  }
  if (name == "bohb") {
    BohbOptions options;
    options.sha.n = params.n;
    options.sha.r = r;
    options.sha.R = R;
    options.sha.eta = params.eta;
    options.sha.s = params.s;
    options.sha.seed = params.seed;
    options.sha.resume_from_checkpoint = resume;
    options.sha.incumbent_policy = IncumbentPolicy::kByRung;
    return MakeBohb(space, options);
  }
  if (name == "pbt") {
    PbtOptions options;
    options.population_size = params.population;
    options.step_resource = R / params.step_divisor;
    options.max_resource = R;
    options.sync_window = 2.0 * options.step_resource;
    options.seed = params.seed;
    options.random_guess_loss = env.random_guess_loss * 0.98;
    // Vanilla PBT cannot mutate the architecture: inherited weights would
    // no longer fit it (Appendix A.3). Spaces without these names are
    // unaffected.
    options.explore.frozen = spaces::IsSmallCnnArchParam;
    return std::make_unique<PbtScheduler>(space, options);
  }
  if (name == "vizier" || name == "vizier_capped") {
    VizierOptions options;
    options.R = R;
    options.seed = params.seed;
    if (name == "vizier_capped") options.loss_cap = 1000.0;  // Section 4.3
    return std::make_unique<VizierScheduler>(space, options);
  }
  if (name == "fabolas") {
    FabolasOptions options;
    options.R = R;
    options.seed = params.seed;
    return std::make_unique<FabolasScheduler>(space, options);
  }
  if (name == "lc_stop") {
    LcStopOptions options;
    options.R = R;
    options.step_resource = R / params.step_divisor;
    options.seed = params.seed;
    return std::make_unique<LcStopScheduler>(MakeRandomSampler(space),
                                             options);
  }
  if (name == "median_rule") {
    MedianRuleOptions options;
    options.R = R;
    options.step_resource = R / params.step_divisor;
    options.seed = params.seed;
    return std::make_unique<MedianRuleScheduler>(MakeRandomSampler(space),
                                                 options);
  }
  throw CheckError("unknown tuner '" + name + "'; known tuners: " + [] {
    std::string all;
    for (const auto& known : TunerNames()) {
      if (!all.empty()) all += ", ";
      all += known;
    }
    return all;
  }());
}

}  // namespace hypertune
