// The stock StudySchedulerFactory: validates a study's creation config once
// and builds the registry tuner it names with MakeTuner, so served and
// offline runs share one tuner vocabulary.

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "registry/registry.h"
#include "study/study_manager.h"

namespace hypertune {

namespace {

/// Every key the factory knows; a "tuner" config reads all of them but the
/// legacy "n0". Any other key is refused rather than ignored: a misspelt
/// knob would otherwise fall back to its default and size the study
/// silently wrong.
constexpr std::array<std::string_view, 9> kConfigKeys = {
    "tuner", "kind", "seed", "r", "R", "eta", "max_trials", "n", "n0"};

/// A legacy "kind" keeps its old served meaning, so study.json files written
/// with kinds recover and decide as before ("sha" is by-bracket, as
/// ShaOptions defaults). It type-checks only the keys it reads: one it
/// ignores was accepted whatever its value, and may sit in a study.json.
struct LegacyKind {
  std::string_view kind;
  std::string_view tuner;
  std::int64_t max_trials;
  bool spawn_new_brackets;
  std::array<std::string_view, 5> reads;
};

constexpr std::array<LegacyKind, 4> kLegacyKinds = {{
    {"asha", "asha", 300, true, {"seed", "r", "R", "eta", "max_trials"}},
    {"sha", "sha_by_bracket", -1, false, {"seed", "r", "R", "eta", "n"}},
    {"hyperband", "async_hyperband", -1, true, {"seed", "r", "R", "eta", "n0"}},
    {"random", "random", -1, true, {"seed", "R", "max_trials"}},
}};

/// The bigpicture extract_* shape: copies config[key] into `dest` when the
/// key is present. An absent key keeps the default; a present one of the
/// wrong type refuses the config (false).
template <typename T>
bool Extract(const Json& config, std::string_view key, T& dest) {
  if (!config.Has(key)) return true;
  const Json& value = config.at(key);
  if constexpr (std::is_same_v<T, std::string>) {
    if (!value.IsString()) return false;
    dest = value.AsString();
  } else {
    if (!value.IsNumber()) return false;
    const double number = value.AsDouble();
    if constexpr (std::is_integral_v<T>) {
      // In int64 range first: converting a larger double is undefined.
      if (!(std::abs(number) < 0x1p63) || std::floor(number) != number) {
        return false;
      }
      dest = static_cast<T>(value.AsInt());
    } else {
      dest = number;
    }
  }
  return true;
}

}  // namespace

StudySchedulerFactory MakeStudySchedulerFactory(SearchSpace space,
                                                bool resumable,
                                                double random_guess_loss) {
  // The factory is copied into every call, so the space is shared, not
  // rebuilt per study.
  return [space = std::move(space), resumable, random_guess_loss](
             const Json& config) -> std::unique_ptr<Scheduler> {
    const auto known = [](const auto& entry) {
      return std::ranges::find(kConfigKeys, entry.first) != kConfigKeys.end();
    };
    if (!config.IsObject() || !std::ranges::all_of(config.AsObject(), known) ||
        (config.Has("tuner") && config.Has("kind"))) {
      return nullptr;
    }
    std::string name;
    TunerParams params;
    TunerEnv env{.space = &space,
                 .R = 81,
                 .resumable = resumable,
                 .random_guess_loss = random_guess_loss};
    std::span<const std::string_view> reads = kConfigKeys;
    if (config.Has("tuner")) {
      if (!Extract(config, "tuner", name) || config.Has("n0") ||
          std::ranges::count(TunerNames(), name) == 0) {
        return nullptr;
      }
    } else {
      std::string kind = "random";
      if (!Extract(config, "kind", kind)) return nullptr;
      const auto legacy =
          std::ranges::find(kLegacyKinds, kind, &LegacyKind::kind);
      if (legacy == kLegacyKinds.end()) return nullptr;
      name = legacy->tuner;
      reads = legacy->reads;
      params.max_trials = legacy->max_trials;
      params.spawn_new_brackets = legacy->spawn_new_brackets;
      // Legacy kinds always resumed from checkpoints.
      env = {.space = &space, .R = 81};
    }
    const auto read = [&](std::string_view key, auto& dest) {
      return std::ranges::count(reads, key) == 0 || Extract(config, key, dest);
    };
    // The served sizing defaults; "n" and "n0" both size n.
    params.r = 1;
    params.eta = 3;
    params.n = 81;
    if (!read("seed", params.seed) || !read("r", *params.r) ||
        !read("R", env.R) || !read("eta", params.eta) || !read("n", params.n) ||
        !read("n0", params.n) || !read("max_trials", params.max_trials)) {
      return nullptr;
    }
    return MakeTuner(name, env, params);
  };
}

}  // namespace hypertune
