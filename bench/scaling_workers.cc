// Worker-scaling sweep: "ASHA scales linearly with the number of workers in
// distributed settings" (paper abstract / Section 4.2). Measures the time
// for ASHA to reach a target test error on the Table-1 architecture task as
// the worker count grows, and reports the speedup relative to 1 worker.
#include <cmath>
#include <iostream>

#include "bench_util.h"

using namespace hypertune;
using namespace hypertune::bench;

int main() {
  constexpr double kTargetError = 0.215;
  const std::vector<int> worker_counts{1, 5, 25, 125};
  constexpr int kTrials = 5;

  Banner("Scaling: ASHA time-to-target vs worker count",
         {"Table-1 architecture task; target test error " +
              FormatDouble(kTargetError, 3),
          "mean over " + std::to_string(kTrials) + " trials"});

  TextTable table({"workers", "mean time to target (min)", "speedup vs 1",
                   "linear speedup would be"});
  double t1 = 0;
  for (int workers : worker_counts) {
    ExperimentOptions options;
    options.num_trials = kTrials;
    options.num_workers = workers;
    // Long horizon for the single worker; shorter as workers grow.
    options.time_limit = workers == 1 ? 3000 : 3000.0 / workers * 8;
    options.grid_points = 40;
    const auto result =
        RunExperiment("cifar_arch", {"ASHA", "asha", {}}, options);
    const double t = MeanTimeToReach(result.trajectories, kTargetError);
    if (workers == 1) t1 = t;
    table.AddRow({std::to_string(workers),
                  std::isnan(t) ? std::string("never") : FormatDouble(t, 1),
                  std::isnan(t) || std::isnan(t1)
                      ? std::string("-")
                      : FormatDouble(t1 / t, 1) + "x",
                  FormatDouble(static_cast<double>(workers), 0) + "x"});
    std::cerr << "  " << workers << " workers done\n";
  }
  std::cout << table.ToMarkdown()
            << "\nExpected: near-linear speedups while the search is "
               "worker-bound; sub-linear once\nthe task is easy enough that "
               "few configurations suffice (the paper's 10x on\nbenchmark 1 "
               "vs linear on benchmark 2).\n";
  return 0;
}
