// Regenerates Figure 5: the large-scale benchmark — tuning an LSTM on PTB
// with 500 workers for 6 x time(R), comparing ASHA, asynchronous Hyperband
// (looping brackets s=0..3), and a Vizier-like GP-bandit service without
// early stopping. Paper settings: eta=4, r=R/64, s=0. The x-axis is in
// units of the average time to train one configuration for R.
//
// Paper checks: ASHA and async Hyperband find a good configuration in
// ~1 x time(R) and reach perplexity < 80 about 3x faster than Vizier;
// async Hyperband initially lags ASHA and catches up around 1.5 x time(R).
#include <cmath>
#include <iostream>

#include "bench_util.h"

using namespace hypertune;
using namespace hypertune::bench;

int main() {
  const double time_r = benchmarks::PtbLstm(1)->MeanTimeOfR();

  ExperimentOptions options;
  options.num_trials = 5;
  options.num_workers = 500;
  options.time_limit = 6.0 * time_r;
  options.grid_points = 24;

  // Async Hyperband loops brackets s = 0..3 (r spans R/64 .. R) — n0 sized
  // so bracket budgets match a hypothetical n=256-ish SHA run.
  const std::vector<Method> methods{
      {"ASHA", "asha", {.r_divisor = 64}},
      {"Hyperband (async)", "async_hyperband", {.r_divisor = 64}},
      {"Vizier", "vizier", {}},
  };

  Banner("Figure 5: LSTM on PTB — 500 workers, 6 x time(R)",
         {"eta=4, r=R/64, s=0; 5 trials; x-axis in units of time(R) = " +
          FormatDouble(time_r, 3)});
  auto results = RunAndPrint("ptb_lstm", methods, options, "virtual time",
                             "perplexity", 2);

  // Rescale the time axis into units of time(R) for the headline table.
  std::cout << "\nTime to reach perplexity 80 (in units of time(R)):\n";
  TextTable ttt({"method", "mean over reaching trials", "trials reaching",
                 "censored mean (never = horizon)"});
  for (const auto& method : results) {
    double total = 0;
    double censored_total = 0;
    int reached = 0;
    for (const auto& trajectory : method.trajectories) {
      const double t = trajectory.TimeToReach(80.0);
      if (!std::isnan(t)) {
        total += t;
        censored_total += t;
        ++reached;
      } else {
        censored_total += options.time_limit;  // still above 80 at the end
      }
    }
    const auto n = method.trajectories.size();
    ttt.AddRow({method.method,
                reached == 0 ? std::string("never")
                             : FormatDouble(total / reached / time_r, 2),
                std::to_string(reached) + "/" + std::to_string(n),
                FormatDouble(censored_total / static_cast<double>(n) / time_r,
                             2)});
  }
  std::cout << ttt.ToMarkdown();
  return 0;
}
