// Regenerates Figure 4: limited-scale distributed experiments — 25 workers
// for 150 minutes on the two CIFAR-10 benchmarks, ASHA vs PBT vs
// synchronous SHA vs BOHB, 5 trials. The paper's reference lines: the time
// to train the most expensive model for R (dotted black) and the point
// where 25 workers have done as much work as the sequential experiment
// (dotted blue).
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"

using namespace hypertune;
using namespace hypertune::bench;

namespace {

void ReferenceLines(SyntheticBenchmark& bench) {
  Rng rng(123);
  double max_time = 0;
  for (int i = 0; i < 500; ++i) {
    const auto config = bench.spec().space.Sample(rng);
    max_time = std::max(max_time, bench.Duration(config, 0, bench.R()));
  }
  std::cout << "  reference: time to train the most expensive model for R ~ "
            << FormatDouble(max_time, 1) << " min; mean time(R) ~ "
            << FormatDouble(bench.MeanTimeOfR(), 1) << " min\n";
}

}  // namespace

int main() {
  ExperimentOptions options;
  options.num_trials = 5;
  options.num_workers = 25;
  options.time_limit = 150;  // minutes
  options.grid_points = 15;

  // PBT freezes the architecture parameters of the right-hand task
  // (Appendix A.3).
  const std::vector<Method> methods{
      {"ASHA", "asha", {}},
      {"PBT", "pbt", {}},
      {"SHA", "sha", {}},
      {"BOHB", "bohb", {}},
  };

  Banner("Figure 4 (left): CIFAR-10, small cuda-convnet model — 25 workers",
         {"25 workers, 150 minutes, 5 trials"});
  ReferenceLines(*benchmarks::CifarConvnet(1));
  RunAndPrint("cifar_convnet", methods, options, "minutes", "test error");

  Banner("Figure 4 (right): CIFAR-10, small CNN architecture task — 25 "
         "workers",
         {"25 workers, 150 minutes, 5 trials; high training-time variance"});
  ReferenceLines(*benchmarks::CifarArch(1));
  RunAndPrint("cifar_arch", methods, options, "minutes", "test error");

  std::cout << "\nPaper check: ASHA finds a good configuration ~1.5x faster "
               "than SHA/BOHB on benchmark 1\nand much faster on benchmark 2 "
               "(training-time variance makes synchronous rungs straggle).\n";
  return 0;
}
