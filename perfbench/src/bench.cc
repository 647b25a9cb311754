#include "bench.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double MedianOf(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<pid_t> ListThreads() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) tids.push_back(tid);
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

namespace {

// "key: value" lines (status, io) -> value of `key`, or 0.
std::int64_t FieldOf(const std::string& text, const std::string& key) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtoll(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

ThreadCounters ReadThreadCounters(pid_t tid) {
  const std::string base = "/proc/self/task/" + std::to_string(tid) + "/";
  ThreadCounters counters;
  std::string text;
  if (ReadFile(base + "stat", &text)) {
    // Fields after the parenthesized comm: state is field 3, utime 14,
    // stime 15 (1-based, per proc(5)).
    const std::size_t close = text.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(text.substr(close + 2));
      std::string field;
      long long utime = 0, stime = 0;
      for (int index = 3; fields >> field; ++index) {
        if (index == 14) utime = std::atoll(field.c_str());
        if (index == 15) {
          stime = std::atoll(field.c_str());
          break;
        }
      }
      const long ticks = sysconf(_SC_CLK_TCK);
      counters.cpu_ns = (utime + stime) * (1000000000LL / ticks);
    }
  }
  if (ReadFile(base + "status", &text)) {
    counters.voluntary_switches = FieldOf(text, "voluntary_ctxt_switches");
    counters.involuntary_switches =
        FieldOf(text, "nonvoluntary_ctxt_switches");
  }
  if (ReadFile(base + "io", &text)) {
    counters.write_calls = FieldOf(text, "syscw");
    counters.write_bytes = FieldOf(text, "wchar");
  }
  return counters;
}

std::int64_t StealTicks(const std::vector<int>& cpus) {
  std::string text;
  if (!ReadFile("/proc/stat", &text)) return 0;
  std::istringstream lines(text);
  std::string line;
  std::int64_t total = 0;
  while (std::getline(lines, line)) {
    if (line.compare(0, 3, "cpu") != 0) break;
    const bool aggregate = line[3] == ' ';
    if (cpus.empty() != aggregate) continue;
    if (!aggregate &&
        std::find(cpus.begin(), cpus.end(), std::atoi(line.c_str() + 3)) ==
            cpus.end()) {
      continue;
    }
    // cpuN user nice system idle iowait irq softirq steal ...
    std::istringstream fields(line);
    std::string field;
    for (int index = 0; fields >> field; ++index) {
      if (index == 8) {
        total += std::atoll(field.c_str());
        break;
      }
    }
  }
  return total;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string Digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

}  // namespace perfbench
