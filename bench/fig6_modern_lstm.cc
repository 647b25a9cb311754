// Regenerates Figure 6: tuning the near state-of-the-art AWD-LSTM with
// DropConnect (Merity et al. 2018) on PTB — ASHA vs PBT with 16 workers
// (one p2.16xlarge in the paper), 5 trials. ASHA: eta=4, r=1 epoch,
// R=256 epochs, s=0. PBT: population 20, explore/exploit every 8 epochs.
//
// Paper check: PBT leads early; ASHA catches up and finds a better final
// configuration (non-overlapping min/max ranges at the end).
#include <iostream>

#include "bench_util.h"

using namespace hypertune;
using namespace hypertune::bench;

int main() {
  ExperimentOptions options;
  options.num_trials = 5;
  options.num_workers = 16;
  options.time_limit = 1400;  // minutes
  options.grid_points = 14;

  const std::vector<Method> methods{
      // 256 epochs / 8-epoch steps
      {"PBT", "pbt", {.population = 20, .step_divisor = 32}},
      {"ASHA", "asha", {}},  // r = 1 epoch
  };

  Banner("Figure 6: AWD-LSTM with DropConnect on PTB — 16 workers",
         {"ASHA: eta=4, r=1 epoch, R=256 epochs; PBT: population 20, "
          "explore/exploit every 8 epochs",
          "5 trials, 1400 minutes"});
  const auto results = RunAndPrint("awd_lstm", methods, options, "minutes",
                                   "validation perplexity", 2);

  // Report the end-of-run min/max overlap the paper highlights.
  const auto& pbt = results[0].series;
  const auto& asha = results[1].series;
  const auto last = pbt.times.size() - 1;
  std::cout << "\nFinal ranges: PBT [" << FormatMetric(pbt.min[last], 2)
            << ", " << FormatMetric(pbt.max[last], 2) << "], ASHA ["
            << FormatMetric(asha.min[last], 2) << ", "
            << FormatMetric(asha.max[last], 2) << "]\n";
  return 0;
}
