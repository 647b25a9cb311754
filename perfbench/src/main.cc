// perfbench — hypertune's end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload serve-durable|sweep-golden|sweep-fleet512
//             --seed N --seconds S --trace 0|1
//             [--repo-root DIR] [--work-dir DIR] [--bench-dir DIR]
//
// Prints one JSON object as the last line of stdout:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// layers the workload runs (--trace 1); perfbench/run.py orders them as
// BENCHMARK.json declares. Exits 1 when an output check failed, 2 on bad
// usage.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-durable|sweep-golden|"
               "sweep-fleet512 --seed N --seconds S --trace 0|1\n"
               "                 [--repo-root DIR] [--work-dir DIR] "
               "[--bench-dir DIR]\n");
  return 2;
}

/// The workload's metrics as one JSON object; a non-finite value fails the
/// run (and is written as 0 to keep the line parseable).
std::string MetricsJson(RunResult& result) {
  std::string json = "{";
  for (const Metric& metric : result.metrics) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      result.Fail("non-finite metric " + metric.name);
      value = 0;
    }
    char text[256];
    std::snprintf(text, sizeof(text),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", metric.name.c_str(), value,
                  metric.unit.c_str());
    json += text;
  }
  return json + "}";
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--repo-root") {
      options.repo_root = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--bench-dir") {
      options.bench_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();

  RunResult result;
  if (options.workload == "serve-durable") {
    result = RunServe(options);
  } else if (options.workload == "sweep-golden" ||
             options.workload == "sweep-fleet512") {
    result = RunSweepWorkload(options);
  } else {
    return Usage();
  }

  if (options.trace) {
    const std::string dir = options.work_dir + "/traces";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".jsonl";
    if (GlobalTracer().WriteJsonl(path)) {
      std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
    } else {
      result.Fail("cannot write " + path);
    }
  }

  if (result.attempted == 0) result.attempted = 1;
  const std::string metrics = MetricsJson(result);
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
