// Extensions the paper's conclusion sketches, plus the remaining design
// toggles:
//   * ASHA + adaptive selection — plugging the BOHB-style TPE sampler into
//     ASHA's bottom rung ("combining ASHA with adaptive selection methods");
//   * infinite-horizon ASHA (Section 3.3) — promotions never capped at R;
//   * incumbent accounting policies (Appendix A.2) on synchronous SHA.
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

  Banner("Extension: ASHA + adaptive selection (TPE sampler) vs ASHA vs "
         "BOHB",
         {"Table-1 architecture task; 25 workers, 150 minutes, 5 trials"});
  RunAndPrint("cifar_arch",
              {{"ASHA", "asha", {}},
               {"ASHA+TPE", "asha_tpe", {}},
               {"BOHB", "bohb", {}}},
              options, "minutes", "test error");

  Banner("Extension: infinite-horizon ASHA (Section 3.3)",
         {"promotions never capped at R; the top rung keeps growing",
          "incumbent judged at the resource actually reached"});
  RunAndPrint("cifar_arch",
              {{"ASHA (finite)", "asha", {}},
               {"ASHA (infinite horizon)", "asha_infinite", {}}},
              options, "minutes", "test error");

  Banner("Ablation: incumbent accounting on synchronous SHA (Appendix A.2)",
         {"the same runs scored three ways; by-bracket only updates when a "
          "bracket completes"});
  RunAndPrint("cifar_convnet",
              {{"SHA (intermediate)", "sha_intermediate", {}},
               {"SHA (by rung)", "sha", {}},
               {"SHA (by bracket)", "sha_by_bracket", {}}},
              options, "minutes", "test error");

  return 0;
}
