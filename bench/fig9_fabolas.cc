// Regenerates Figure 9 (Appendix A.2): the sequential comparison with
// Fabolas on four tasks — SVM on vehicle, SVM on MNIST, CIFAR-10
// cuda-convnet, and the SVHN small-CNN task — for Hyperband with by-rung
// incumbent accounting, Hyperband with by-bracket accounting, a
// Fabolas-like multi-fidelity GP, and random search. eta=4 for Hyperband
// (Appendix A.2); 1 worker; 10 trials.
//
// Paper check: Hyperband (by rung) is competitive with Fabolas and usually
// finds a better configuration with lower variance; most of Hyperband's
// progress comes from its most aggressive bracket.
#include <iostream>

#include "bench_util.h"

using namespace hypertune;
using namespace hypertune::bench;

namespace {

void RunTask(const std::string& title, const std::string& benchmark_name,
             double horizon_minutes, std::size_t n0, double r_divisor) {
  ExperimentOptions options;
  options.num_trials = 10;
  options.num_workers = 1;
  options.time_limit = horizon_minutes;
  options.grid_points = 16;

  const TunerParams hyperband{.r_divisor = r_divisor, .n = n0};
  const std::vector<Method> methods{
      {"Hyperband (by rung)", "hyperband", hyperband},
      {"Hyperband (by bracket)", "hyperband_by_bracket", hyperband},
      {"Fabolas", "fabolas", {}},
      {"Random", "random", {}},
  };

  Banner(title, {"1 worker, " + FormatDouble(horizon_minutes, 0) +
                     " minutes, 10 trials, eta=4"});
  RunAndPrint(benchmark_name, methods, options, "minutes", "test error");
}

}  // namespace

int main() {
  RunTask("Figure 9a: SVM on vehicle", "svm_vehicle", 800, 64, 64);
  RunTask("Figure 9b: SVM on MNIST", "svm_mnist", 800, 64, 64);
  RunTask("Figure 9c: CIFAR-10, small cuda-convnet model", "cifar_convnet",
          2500, 256, 256);
  RunTask("Figure 9d: SVHN, small CNN architecture task", "svhn_cnn", 2500,
          256, 256);
  return 0;
}
