// The shared trial-lifecycle core: the lease → run → outcome state machine
// every execution backend adapts.
//
// Algorithm 2 of the paper describes one job lifecycle — a free worker
// leases a job, runs it, and either reports a loss or loses the job — and
// the repo used to implement it three times (SimulationDriver,
// ThreadPoolExecutor, TuningServer), each with its own record type and its
// own (or missing) outcome guards. TrialLifecycle implements it once:
//
//   * leasing: Acquire() pulls the next job from the Scheduler and opens a
//     lease with a dense id (1, 2, ...);
//   * outcome validation: every lease resolves exactly once — a double
//     report, a report after a loss, or a resolve of an unknown lease is a
//     CheckError; losses must be finite;
//   * recording: each resolution appends one RunRecord;
//   * incumbent trajectory: after each resolution the scheduler's current
//     recommendation is recorded whenever it changes (optionally emitted as
//     a "recommendation" trace instant);
//   * telemetry: job spans are named and emitted here (see EmitJobSpan),
//     either inside Complete/Lose (single-threaded backends) or by the
//     backend outside its serialization lock (the thread pool). Spans,
//     recommendation instants and counter bumps reach the sink at the
//     moment the lease resolves; nothing is buffered.
//
// Thread-safety: TrialLifecycle has the same contract as Scheduler — NOT
// thread-safe; concurrent backends serialize Acquire/Complete/Lose behind
// the same lock that guards their scheduler calls. EmitJobSpan is a free
// function touching only the (thread-safe) Telemetry sink, so it may be
// called outside that lock. See DESIGN.md §6 for the full contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/scheduler.h"
#include "lifecycle/run_record.h"

namespace hypertune {

class Telemetry;
class Counter;

/// The open-lease guard set. Lease ids are dense (1, 2, ...), so membership
/// lives in a bitmap: Insert/Erase are O(1) with no hashing or node
/// allocation — the resolve-side check costs two word ops on the simulator
/// hot path. Iteration order is ascending by construction, which is the
/// order snapshots want.
class OpenLeaseSet {
 public:
  /// No-op when `id` is already present (matching set semantics).
  void Insert(std::uint64_t id) {
    const std::size_t word = static_cast<std::size_t>(id / 64);
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    count_ += (words_[word] & bit) == 0;
    words_[word] |= bit;
  }

  /// Clears `id`; returns whether it was present.
  bool Erase(std::uint64_t id) {
    const std::size_t word = static_cast<std::size_t>(id / 64);
    if (word >= words_.size()) return false;
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((words_[word] & bit) == 0) return false;
    words_[word] &= ~bit;
    --count_;
    return true;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// All open ids in ascending order.
  std::vector<std::uint64_t> SortedIds() const;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

/// A job pulled from the scheduler together with its open lease.
struct LeasedJob {
  std::uint64_t lease_id = 0;
  Job job;
};

/// When and where a leased job executed, in the backend's clock domain.
struct RunTiming {
  double start = 0;
  double end = 0;
  double queue_wait = 0;
  int worker = -1;
};

struct LifecycleOptions {
  /// Optional observability sink (not owned; must outlive the lifecycle).
  Telemetry* telemetry = nullptr;
  /// Emit one job span (see EmitJobSpan) per resolution inside
  /// Complete/Lose, plus a "recommendation" trace instant on each incumbent
  /// change when track_recommendations is on. Backends that must emit
  /// outside their lock leave this off and call EmitJobSpan themselves.
  bool emit_spans = false;
  /// Counter bumped per completion / loss (null disables). Resolved
  /// lazily on first use so an all-zero counter never appears in metrics
  /// snapshots (preserving pre-refactor output).
  const char* completed_counter = nullptr;
  const char* lost_counter = nullptr;
  /// Record the scheduler's recommendation after each resolution whenever
  /// it changes (the incumbent trajectory the paper's figures plot).
  bool track_recommendations = false;
  /// Append one RunRecord per resolution. Throughput harnesses that only
  /// need counters (bench/micro_sim) turn this off; records() /
  /// TakeRecords() then stay empty.
  bool record_runs = true;
};

/// Rejects non-finite losses (NaN, +/-inf) with a CheckError. Exposed so
/// protocol layers can validate before mutating any state.
void ValidateReportedLoss(double loss);

/// Appends the canonical span name "t<trial>:r<rung>" to `out` (cleared
/// first) without allocating temporaries — hot paths reuse one buffer.
void AppendJobSpanName(std::string& out, const Job& job);

/// Emits one job span on the executing worker's track, with arguments
/// trial, rung, bracket, from_resource, to_resource and loss (or
/// dropped: true). `scratch` (optional) is reused for the span name. Safe
/// to call from any thread.
void EmitJobSpan(Telemetry* telemetry, const Job& job, bool lost, double loss,
                 const RunTiming& timing, std::string* scratch = nullptr);

class TrialLifecycle final {
 public:
  TrialLifecycle(Scheduler& scheduler, LifecycleOptions options);

  TrialLifecycle(const TrialLifecycle&) = delete;
  TrialLifecycle& operator=(const TrialLifecycle&) = delete;

  /// Pulls the next job from the scheduler and opens its lease; nullopt
  /// when the scheduler has no work right now.
  std::optional<LeasedJob> Acquire();

  /// Acquire into a caller-owned slot: writes the lease into `out` (reusing
  /// its Configuration capacity — the simulator keeps one slot per worker)
  /// instead of materializing a fresh optional. Returns false, leaving
  /// `out` untouched, when no work is available.
  bool AcquireInto(LeasedJob& out);

  /// Resolves a lease with a (finite) loss: validates exactly-once,
  /// reports to the scheduler, records, and updates the recommendation
  /// trajectory. CheckError on double-resolve or non-finite loss.
  void Complete(const LeasedJob& lease, double loss, const RunTiming& timing);

  /// Resolves a lease as lost (drop, crash, lease expiry, stranded
  /// prefetch). Same exactly-once guard as Complete.
  void Lose(const LeasedJob& lease, const RunTiming& timing);

  std::size_t completed_jobs() const { return completed_; }
  std::size_t lost_jobs() const { return lost_; }
  /// Leases acquired but not yet resolved.
  std::size_t pending_leases() const { return pending_.size(); }

  const std::vector<RunRecord>& records() const { return records_; }
  std::vector<RunRecord> TakeRecords() { return std::move(records_); }
  const std::vector<RecommendationPoint>& recommendations() const {
    return recommendations_;
  }
  std::vector<RecommendationPoint> TakeRecommendations() {
    return std::move(recommendations_);
  }

  /// Crash recovery: open lease ids, the dense lease-id counter, resolved
  /// records, the recommendation trajectory, and the outcome counts. The
  /// jobs behind open leases are not stored here — the scheduler snapshots
  /// them (Scheduler::Snapshot) and the backend re-associates lease ids to
  /// jobs on restore.
  Json Snapshot() const;
  /// Restores into a freshly constructed lifecycle (no leases issued).
  /// Does not touch the scheduler — restore it separately.
  void Restore(const Json& snapshot);

 private:
  void Resolve(const LeasedJob& lease, bool lost, double loss,
               const RunTiming& timing);
  void NoteRecommendation(double now);

  Scheduler& scheduler_;
  LifecycleOptions options_;
  OpenLeaseSet pending_;
  std::uint64_t next_lease_id_ = 1;
  std::vector<RunRecord> records_;
  std::vector<RecommendationPoint> recommendations_;
  std::size_t completed_ = 0;
  std::size_t lost_ = 0;
  // Lazily resolved instruments (see LifecycleOptions).
  Counter* completed_counter_ = nullptr;
  Counter* lost_counter_ = nullptr;
  std::string span_name_;  // reused across emissions
};

}  // namespace hypertune
