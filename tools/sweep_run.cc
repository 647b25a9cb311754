// sweep_run — the parallel sweep engine's CLI driver (src/sweep).
//
//   sweep_run --json <out> [--text <out>] [--tables-dir <dir>] [--threads N]
//             [--tasks a,b] [--schedulers x,y] [--seeds 1,2,3] [--fleets 4,16]
//             [--rows N] [--fidelities F] [--table-seed S] [--max-jobs J]
//             [--time-limit T] [--budget FULL_TRAINS] [--resamples B]
//
// The default stop criterion is --budget 20: every cell gets virtual time
// worth 20 average full trainings of its benchmark, the paper's equal-time
// footing (a benchmark's absolute R scale cancels out).
//
// Packs one HTTB0001 table per task into --tables-dir (deterministic in
// --table-seed), mmaps each once, fans the (task x scheduler x seed x
// fleet) grid across --threads workers, and writes the htsweep-report-v1
// JSON to --json ("-" = stdout). The JSON is byte-identical at any thread
// count — CI diffs it against tools/golden/sweep_report.json. The text
// rendering goes to --text or stdout; wall-clock throughput goes to stderr
// so nothing nondeterministic can leak into the diffed artifact.
//
// --table <name>=<file> (repeatable) skips packing and mmaps pre-packed
// tables instead, replacing the --tasks axis. This is how CI reproduces
// the golden report bit-for-bit on any machine: packing evaluates the
// synthetic benchmarks through libm (pow/exp), whose last-ulp rounding is
// libc-specific, but everything downstream of a packed table — scheduler
// decisions, the simulator clock, rank/regret/bootstrap statistics — is
// pure arithmetic, so sweeps over the committed golden tables
// (tools/golden/tables/*.httb) are machine-independent.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "surrogate/benchmarks.h"
#include "surrogate/table.h"
#include "sweep/engine.h"
#include "sweep/report.h"

namespace hypertune {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: sweep_run --json <out> [--text <out>] [--tables-dir <dir>]\n"
      "                 [--table name=file ...]\n"
      "                 [--threads N] [--tasks a,b] [--schedulers x,y]\n"
      "                 [--seeds 1,2,3] [--fleets 4,16] [--rows N]\n"
      "                 [--fidelities F] [--table-seed S] [--max-jobs J]\n"
      "                 [--time-limit T] [--budget FULL_TRAINS]"
      " [--resamples B]\n");
  return 2;
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int Main(int argc, char** argv) {
  std::string json_path, text_path, tables_dir = ".";
  std::vector<std::string> tasks = {"cifar_convnet", "ptb_lstm"};
  std::vector<std::string> schedulers = {"asha", "sha", "hyperband", "random"};
  std::vector<std::pair<std::string, std::string>> table_files;
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  std::vector<int> fleets = {4, 16};
  std::uint32_t rows = 2048;
  std::size_t fidelities = 9;
  std::uint64_t table_seed = 1;
  SweepSpec spec;
  spec.full_train_budget = 20;
  SweepOptions options;
  SweepReportOptions report_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      HT_CHECK_MSG(i + 1 < argc, arg << " needs a value");
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = next();
    } else if (arg == "--text") {
      text_path = next();
    } else if (arg == "--tables-dir") {
      tables_dir = next();
    } else if (arg == "--threads") {
      options.threads = std::stoi(next());
    } else if (arg == "--tasks") {
      tasks = SplitList(next());
    } else if (arg == "--table") {
      const std::string value = next();
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        return Usage();
      }
      table_files.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else if (arg == "--schedulers") {
      schedulers = SplitList(next());
    } else if (arg == "--seeds") {
      seeds.clear();
      for (const auto& s : SplitList(next())) seeds.push_back(std::stoull(s));
    } else if (arg == "--fleets") {
      fleets.clear();
      for (const auto& f : SplitList(next())) fleets.push_back(std::stoi(f));
    } else if (arg == "--rows") {
      rows = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--fidelities") {
      fidelities = std::stoul(next());
    } else if (arg == "--table-seed") {
      table_seed = std::stoull(next());
    } else if (arg == "--max-jobs") {
      spec.max_jobs = std::stoul(next());
    } else if (arg == "--time-limit") {
      spec.time_limit = std::stod(next());
    } else if (arg == "--budget") {
      spec.full_train_budget = std::stod(next());
    } else if (arg == "--resamples") {
      report_options.bootstrap_resamples = std::stoul(next());
    } else {
      return Usage();
    }
  }
  if (json_path.empty()) return Usage();

  // One mmap'd table per benchmark — every sweep thread shares the one
  // mapping. Either load pre-packed files (--table) or pack each task now.
  std::vector<std::unique_ptr<TabularBenchmark>> tables;
  if (!table_files.empty()) {
    for (const auto& [name, path] : table_files) {
      tables.push_back(TabularBenchmark::FromFile(path));
      spec.benchmarks.push_back({name, tables.back().get()});
    }
  } else {
    for (const auto& task : tasks) {
      auto bench = benchmarks::ByName(task, table_seed);
      const std::string bytes =
          PackTable(TabulateBenchmark(*bench, rows, fidelities, table_seed));
      const std::string path = tables_dir + "/" + task + ".httb";
      HT_CHECK_MSG(WriteFile(path, bytes), "cannot write " << path);
      tables.push_back(TabularBenchmark::FromFile(path));
      spec.benchmarks.push_back({task, tables.back().get()});
    }
  }
  spec.schedulers = schedulers;
  spec.seeds = seeds;
  spec.fleets = fleets;

  SweepThroughput throughput;
  const auto results = RunSweep(spec, options, &throughput);
  const Json report = BuildSweepReport(spec, results, report_options);

  const std::string json = report.Dump(2) + "\n";
  if (json_path == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    HT_CHECK_MSG(WriteFile(json_path, json), "cannot write " << json_path);
  }
  const std::string text = SweepReportText(report);
  if (text_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    HT_CHECK_MSG(WriteFile(text_path, text), "cannot write " << text_path);
  }
  std::fprintf(stderr,
               "sweep_run: %zu cells, %llu simulated jobs, %d threads, "
               "%.3fs wall (%.0f cells/s)\n",
               throughput.cells,
               static_cast<unsigned long long>(throughput.jobs),
               options.threads, throughput.wall_seconds,
               throughput.wall_seconds > 0
                   ? static_cast<double>(throughput.cells) /
                         throughput.wall_seconds
                   : 0.0);
  return 0;
}

}  // namespace
}  // namespace hypertune

int main(int argc, char** argv) {
  try {
    return hypertune::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_run: %s\n", e.what());
    return 1;
  }
}
