// Ablation: checkpoint resume vs retraining from scratch (Section 3.2's
// "when training is iterative, ASHA can return an answer in time(R)").
// Promotions that resume only pay the resource increment; without
// checkpoints every promotion retrains from zero, inflating the effective
// budget by up to eta/(eta-1).
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

  Banner("Ablation: checkpoint resume vs retrain-from-scratch (ASHA, "
         "Table-1 architecture task)",
         {"25 workers, 150 minutes, 5 trials; eta=4, r=R/256"});

  const std::vector<Method> methods{
      {"ASHA (resume)", "asha", {.resume = true}},
      {"ASHA (scratch)", "asha", {.resume = false}},
  };
  const auto results =
      RunAndPrint("cifar_arch", methods, options, "minutes", "test error");

  std::cout << "\nJobs completed per run: resume "
            << FormatDouble(results[0].mean_jobs_completed, 0) << " vs scratch "
            << FormatDouble(results[1].mean_jobs_completed, 0)
            << " — resume converts retraining time into extra exploration.\n";
  return 0;
}
