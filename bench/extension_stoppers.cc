// Extension bench: alternative early-stopping rules and samplers around the
// successive-halving core —
//   * median stopping rule (Vizier's performance-curve option, paper
//     footnote 2),
//   * learning-curve extrapolation stopping (Domhan et al., related work),
//   * quasi-random (Halton) sampling for random search and for ASHA's
//     bottom rung.
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

  Banner("Extension: early-stopping rules vs ASHA (cuda-convnet task, 25 "
         "workers, 150 min)",
         {"median_rule and lc_stop prune against cohort statistics / "
          "extrapolated curves;",
          "ASHA prunes by rank within rungs"});
  RunAndPrint("cifar_convnet",
              {{"ASHA", "asha", {}},
               {"MedianRule", "median_rule", {}},
               {"LCStop", "lc_stop", {}},
               {"Random", "random", {}}},
              options, "minutes", "test error");

  Banner("Extension: quasi-random (Halton) sampling",
         {"same budgets; Halton spreads the bottom rung more evenly"});
  RunAndPrint("cifar_convnet",
              {{"Random search", "random", {}},
               {"Halton search", "halton", {}},
               {"ASHA", "asha", {}},
               {"ASHA+Halton", "asha_halton", {}}},
              options, "minutes", "test error");

  return 0;
}
