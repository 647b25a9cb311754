// Ablation: the reduction factor eta and the minimum early-stopping rate s.
//
// Section 2 / Section 4.1 of the paper: "the appropriate choice of early
// stopping rate is problem dependent", but "aggressive early-stopping works
// well for a wide variety of tuning tasks" — the brackets with the most
// aggressive rates performed best, which is why ASHA defaults to s=0 and
// why Hyperband's conservative brackets mostly add overhead.
#include <iostream>

#include "bench_util.h"

using namespace hypertune;
using namespace hypertune::bench;

int main() {
  ExperimentOptions options;
  options.num_trials = 5;
  options.num_workers = 25;
  options.time_limit = 150;
  options.grid_points = 10;

  Banner("Ablation: eta and early-stopping rate s (ASHA on the Table-1 "
         "architecture task)",
         {"25 workers, 150 minutes, 5 trials; r = R/256"});

  std::vector<Method> methods;
  for (double eta : {2.0, 4.0}) {
    for (int s : {0, 1, 2}) {
      methods.push_back(
          {"eta=" + FormatDouble(eta, 0) + ", s=" + std::to_string(s), "asha",
           {.eta = eta, .s = s}});
    }
  }

  RunAndPrint("cifar_arch", methods, options, "minutes", "test error");
  std::cout << "\nExpected: aggressive early stopping (s=0) reaches good "
               "configurations first;\nhigher s wastes budget training "
               "mediocre configurations longer.\n";
  return 0;
}
