// In-memory spans recorded from the benchmark's own files, around calls
// into each hypertune layer (codec, study routing, schedulers, table
// lookups, the simulation driver, sweep cells).
//
// Each traced thread owns a Lane: a stack of open spans plus per-kind
// totals. Closing a span adds its duration to its parent's child time, so
// a span's self time (duration minus the part its child spans cover) is
// known the moment it closes. The first kMaxLoggedSpans spans are also
// kept as records (name, start, end, parent, request id) and written out
// as JSON lines when the run ends.
//
// Untraced runs attach no lanes, and a Span on a thread without a lane
// does nothing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t NowNs();
std::int64_t ThreadCpuNs();

enum class SpanKind : std::uint8_t {
  kCodecEncode,
  kCodecFeed,
  kCodecDecode,
  kStudyRequestJob,
  kStudyRequestAny,
  kStudyHeartbeat,
  kStudyReport,
  kStudyAdmin,
  kStudyTick,
  kSchedulerGetJob,
  kSchedulerReport,
  kSurrogateLookup,
  kSweepCell,
  kSweepCellSetup,
  kSimRun,
  kCount,
};

const char* SpanName(SpanKind kind);

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t wall_ns = 0;
  /// Wall time minus the time covered by child spans.
  std::int64_t self_ns = 0;
  /// Thread CPU time; only spans opened with cpu timing accumulate it.
  std::int64_t cpu_ns = 0;
};

using Totals =
    std::array<SpanTotals, static_cast<std::size_t>(SpanKind::kCount)>;

inline const SpanTotals& Of(const Totals& totals, SpanKind kind) {
  return totals[static_cast<std::size_t>(kind)];
}

class Tracer {
 public:
  static constexpr std::size_t kMaxLoggedSpans = 1 << 17;

  /// Gives the calling thread a fresh lane. Call before its first span.
  void AttachThisThread(const std::string& label);
  /// Detaches the calling thread (its lane's data stays with the tracer).
  static void DetachThisThread();

  /// Sums every lane. Only valid once the traced threads are joined or
  /// quiescent.
  Totals Sum() const;
  /// Writes every logged span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

  struct Lane;  // defined in trace.cc

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::size_t logged_ = 0;  // guarded by mu_
  std::int64_t epoch_ns_ = NowNs();
};

Tracer& GlobalTracer();

/// RAII span on the calling thread's lane. `request` 0 inherits the
/// parent's request id.
class Span {
 public:
  explicit Span(SpanKind kind, std::uint64_t request = 0,
                bool cpu_time = false);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Lane* lane_ = nullptr;
};

}  // namespace perfbench
