// Regenerates Figure 3: sequential experiments (1 worker) on the two
// CIFAR-10 benchmarks — test error of the incumbent vs wall-clock minutes
// for SHA, Hyperband, Random, PBT, ASHA, asynchronous Hyperband, and BOHB,
// averaged over 10 trials.
//
// Paper settings (Appendix A.3): n=256, eta=4, s=0, r=R/256, R=30000 SGD
// iterations; Hyperband loops 5 brackets; PBT population 25 with
// explore/exploit every 1000 iterations, architecture parameters frozen.
// These are the registry's TunerParams defaults.
#include <iostream>

#include "bench_util.h"

using namespace hypertune;
using namespace hypertune::bench;

int main() {
  ExperimentOptions options;
  options.num_trials = 10;
  options.num_workers = 1;
  options.time_limit = 2500;  // minutes
  options.grid_points = 25;

  const std::vector<Method> methods{
      {"SHA", "sha", {}},
      {"Hyperband", "hyperband_intermediate", {}},
      {"Random", "random", {}},
      {"PBT", "pbt", {}},
      {"ASHA", "asha", {}},
      {"Hyperband (async)", "async_hyperband", {}},
      {"BOHB", "bohb", {}},
  };

  Banner("Figure 3 (left): CIFAR-10, small cuda-convnet model — sequential",
         {"1 worker, 2500 minutes, 10 trials; n=256, eta=4, s=0, r=R/256"});
  RunAndPrint("cifar_convnet", methods, options, "minutes", "test error");

  Banner("Figure 3 (right): CIFAR-10, small CNN architecture tuning task — "
         "sequential",
         {"1 worker, 2500 minutes, 10 trials; n=256, eta=4, s=0, r=R/256"});
  RunAndPrint("cifar_arch", methods, options, "minutes", "test error");

  std::cout << "\nPaper check: all SHA variants and Hyperband beat PBT on "
               "benchmark 1 and beat Random\non both; asynchrony does not "
               "consequentially change ASHA vs SHA.\n";
  return 0;
}
