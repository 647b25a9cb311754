// The stock StudySchedulerFactory: builds a study's scheduler from its creation
// config over one fixed search space. Deployments with richer needs (per
// study search spaces, custom scheduler kinds) supply their own factory;
// this one covers the CLI, the smoke tools, and the tests.

#include <algorithm>
#include <array>
#include <memory>
#include <string_view>
#include <utility>

#include "core/asha.h"
#include "core/async_hyperband.h"
#include "core/random_search.h"
#include "core/sampler.h"
#include "core/sha.h"
#include "study/study_manager.h"

namespace hypertune {

namespace {

/// Every key the factory reads. Any other key is refused rather than
/// ignored: a misspelt knob would otherwise fall back to its default and
/// size the study silently wrong.
constexpr std::array<std::string_view, 8> kConfigKeys = {
    "kind", "seed", "r", "R", "eta", "max_trials", "n", "n0"};

bool OnlyKnownKeys(const Json& config) {
  return std::ranges::all_of(config.AsObject(), [](const auto& entry) {
    return std::ranges::find(kConfigKeys, entry.first) != kConfigKeys.end();
  });
}

std::int64_t GetInt(const Json& config, const char* key, std::int64_t fallback) {
  return config.Has(key) ? config.at(key).AsInt() : fallback;
}

double GetDouble(const Json& config, const char* key, double fallback) {
  return config.Has(key) ? config.at(key).AsDouble() : fallback;
}

}  // namespace

StudySchedulerFactory MakeStudySchedulerFactory(SearchSpace space) {
  // The factory is copied into every call, so the space is shared, not
  // rebuilt per study.
  return [space = std::move(space)](
             const Json& config) -> std::unique_ptr<Scheduler> {
    if (!config.IsObject() || !OnlyKnownKeys(config)) return nullptr;
    const std::string kind =
        config.Has("kind") ? config.at("kind").AsString() : "random";
    const auto seed = static_cast<std::uint64_t>(GetInt(config, "seed", 1));
    if (kind == "asha") {
      AshaOptions options;
      options.r = GetDouble(config, "r", 1);
      options.R = GetDouble(config, "R", 81);
      options.eta = GetDouble(config, "eta", 3);
      options.max_trials = GetInt(config, "max_trials", 300);
      options.seed = seed;
      return std::make_unique<AshaScheduler>(MakeRandomSampler(space),
                                             options);
    }
    if (kind == "sha") {
      ShaOptions options;
      options.n = static_cast<int>(GetInt(config, "n", 81));
      options.r = GetDouble(config, "r", 1);
      options.R = GetDouble(config, "R", 81);
      options.eta = GetDouble(config, "eta", 3);
      options.spawn_new_brackets = false;
      options.seed = seed;
      return std::make_unique<SyncShaScheduler>(MakeRandomSampler(space),
                                                options);
    }
    if (kind == "hyperband") {
      AsyncHyperbandOptions options;
      options.n0 = static_cast<int>(GetInt(config, "n0", 81));
      options.r = GetDouble(config, "r", 1);
      options.R = GetDouble(config, "R", 81);
      options.eta = GetDouble(config, "eta", 3);
      options.seed = seed;
      return std::make_unique<AsyncHyperbandScheduler>(
          MakeRandomSampler(space), options);
    }
    if (kind == "random") {
      RandomSearchOptions options;
      options.R = GetDouble(config, "R", 81);
      options.max_trials = GetInt(config, "max_trials", -1);
      options.seed = seed;
      return std::make_unique<RandomSearchScheduler>(MakeRandomSampler(space),
                                                     options);
    }
    return nullptr;  // unknown kind: reject
  };
}

}  // namespace hypertune
