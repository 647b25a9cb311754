// Name-based tuner registry: builds any of the library's schedulers from a
// string name plus a small common parameter set, sized against a benchmark.
// The one way the benches, the experiment runner, the sweep engine, the CLI
// and served studies (MakeStudySchedulerFactory) build a tuner.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "surrogate/benchmark.h"

namespace hypertune {

struct TunerParams {
  /// Successive-halving reduction factor.
  double eta = 4;
  /// Minimum resource as a fraction of R: r = R / r_divisor.
  double r_divisor = 256;
  /// Minimum resource given absolutely (served study configs); overrides
  /// r_divisor, since R / (R / r) does not always round back to r.
  std::optional<double> r;
  /// Bracket size for synchronous SHA/BOHB and n0 for Hyperband variants.
  std::size_t n = 256;
  /// Minimum early-stopping rate.
  int s = 0;
  /// PBT population size.
  std::size_t population = 25;
  /// PBT explore/exploit interval as R / step_divisor (also the median
  /// rule's step).
  double step_divisor = 30;
  /// Grid-search points per dimension.
  std::size_t grid_resolution = 4;
  std::uint64_t seed = 1;
  /// Resume from checkpoints where the benchmark supports it.
  bool resume = true;
  /// Cap on configurations for ASHA and random search (-1 = unlimited).
  std::int64_t max_trials = -1;
  /// False: synchronous SHA serves one bracket and opens no new one.
  bool spawn_new_brackets = true;
};

/// Known names: asha, asha_tpe, asha_halton, asha_infinite, sha,
/// sha_intermediate, sha_by_bracket, hyperband, hyperband_intermediate,
/// hyperband_by_bracket, async_hyperband, random, halton, grid, bohb, pbt,
/// vizier, vizier_capped, fabolas, median_rule, lc_stop.
///
/// A suffix names a variant: `_intermediate` / `_by_bracket` set the
/// incumbent policy (plain `sha` and `hyperband` count by rung, Appendix
/// A.2), `asha_infinite` never caps promotions at R (Section 3.3). `pbt`
/// always freezes the Table 1 architecture parameters (Appendix A.3).
std::vector<std::string> TunerNames();

/// What tuner construction actually reads off a benchmark, supplied
/// directly — the sweep engine sizes tuners against TabularBenchmark (or
/// anything else with a space and an R) through this.
struct TunerEnv {
  /// Not owned; must outlive the tuner.
  const SearchSpace* space = nullptr;
  /// Maximum per-configuration resource.
  double R = 1;
  /// Whether the benchmark supports checkpoint resume (ANDed with
  /// TunerParams::resume).
  bool resumable = true;
  /// Loss of an untrained model (PBT's sync trigger; unused elsewhere).
  double random_guess_loss = 1.0;
};

/// Builds the named tuner sized for `env`; throws CheckError for unknown
/// names.
std::unique_ptr<Scheduler> MakeTuner(const std::string& name,
                                     const TunerEnv& env,
                                     const TunerParams& params);

/// Builds the named tuner sized for `benchmark`; throws CheckError for
/// unknown names.
std::unique_ptr<Scheduler> MakeTunerByName(const std::string& name,
                                           const SyntheticBenchmark& benchmark,
                                           const TunerParams& params);

}  // namespace hypertune
