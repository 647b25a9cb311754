// Shared plumbing for the perfbench workloads: run options, the result a
// workload hands back to main, and small measurement helpers (sample
// statistics, /proc readers, file digests).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Root of the hypertune checkout (tools/golden lives under it).
  std::string repo_root = ".";
  /// Where this benchmark may write: serve state dirs, trace files.
  std::string work_dir = ".bench_build";
  /// The benchmark's own directory (committed digests).
  std::string bench_dir = "perfbench";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check failures; empty means every check passed.
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) { check_failures.push_back(std::move(why)); }
};

RunResult RunServe(const RunOptions& options);
RunResult RunSweepWorkload(const RunOptions& options);

// ---- measurement helpers (bench.cc) ----

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double MedianOf(std::vector<double> samples);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Thread ids of this process (/proc/self/task).
std::vector<pid_t> ListThreads();

/// Per-thread kernel counters from /proc/self/task/<tid>/{stat,status,io}.
struct ThreadCounters {
  /// utime + stime, nanoseconds (clock-tick resolution).
  std::int64_t cpu_ns = 0;
  std::int64_t voluntary_switches = 0;
  std::int64_t involuntary_switches = 0;
  /// write-family syscalls and the bytes they passed (sockets use
  /// send/recv, which these do not count).
  std::int64_t write_calls = 0;
  std::int64_t write_bytes = 0;
};
ThreadCounters ReadThreadCounters(pid_t tid);

/// Hypervisor steal time, in clock ticks, summed over `cpus` (every CPU
/// when empty), from /proc/stat.
std::int64_t StealTicks(const std::vector<int>& cpus);

bool ReadFile(const std::string& path, std::string* out);
/// FNV-1a 64 of `bytes`, as 16 lowercase hex digits.
std::string Digest(const std::string& bytes);

}  // namespace perfbench
