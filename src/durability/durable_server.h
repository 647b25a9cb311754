// DurableServer: crash recovery for the tuning service.
//
// Wraps a TuningServer with the snapshot + write-ahead-journal scheme from
// DESIGN.md §7. On-disk layout inside DurabilityOptions::dir:
//
//   snapshot-%06u.json   full server state at the start of generation g
//                        (absent for generation 0 — a fresh server)
//   wal-%06u.log         every scheduler-mutating event since that snapshot
//
// The invariant: snapshot(g) + replay(wal(g)) == the live server at the
// moment of the last journaled event. Every mutation is applied to the
// in-memory server first and journaled immediately after (within the same
// message), so a crash loses at most the mutations of the message being
// handled — and the chaos harness (tools/chaos_recovery.cc) kills servers
// at message boundaries to prove the recovered decision sequence is
// byte-identical to an uninterrupted run.
//
// Snapshots compact the journal: after `snapshot_every` journaled records
// the server state is written to snapshot-(g+1) (atomically, via
// write-then-rename), a fresh wal-(g+1) is started, and older generations
// are pruned. Recovery picks the highest generation present, restores its
// snapshot (if any), replays its journal tail — truncating a torn or
// CRC-corrupt tail rather than parsing it — and reopens the journal for
// appending. A crash between writing snapshot-(g+1) and creating
// wal-(g+1) is also covered: the snapshot alone identifies the
// generation, and recovery starts it an empty journal.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "common/json.h"
#include "durability/wal.h"
#include "service/server.h"

namespace hypertune {

class Telemetry;

/// retry_after (seconds) in grant denials while degraded.
inline constexpr double kDegradedRetryAfter = 5.0;

struct DurabilityOptions {
  /// Directory holding snapshots and journals. Created if absent.
  std::string dir;
  /// Journal fsync policy (see wal.h).
  SyncPolicy sync = SyncPolicy::kEveryN;
  std::size_t sync_every = 64;
  /// Take a compacting snapshot after this many journaled records.
  std::size_t snapshot_every = 1024;
  /// File-op seam for journal + snapshot writes (fault injection); null =
  /// real syscalls.
  FileOps* file_ops = nullptr;
  /// Optional observability sink for degraded-mode counters (not owned).
  Telemetry* telemetry = nullptr;
};

/// Atomic, durable file write through the FileOps seam: write a tmp file,
/// fsync it, then rename it over `path`, so `path` is only ever replaced by
/// a fully durable file — neither a crash nor an injected ENOSPC can leave
/// a torn one where recovery would trust it. False on failure, with the tmp
/// file removed. The rename itself is not made durable (no directory
/// fsync).
bool WriteFileDurably(FileOps& ops, const std::string& path,
                      const std::string& content);

/// Counters for the degraded read-only mode (see class comment).
struct DurabilityStats {
  std::size_t journal_write_failures = 0;
  std::size_t journal_sync_failures = 0;
  std::size_t snapshot_failures = 0;
  std::size_t degraded_entered = 0;
  std::size_t degraded_exited = 0;
  /// Records buffered in memory while the journal was unwritable (each is
  /// re-appended when the journal resumes).
  std::size_t records_buffered = 0;
  /// request_job / request_jobs denied while degraded.
  std::size_t grants_denied = 0;
};

/// A TuningServer that survives crashes. Construction either starts fresh
/// (empty state dir) or recovers: restore the latest snapshot, replay the
/// journal tail, reopen the journal. The wrapped server and scheduler must
/// be freshly constructed with the same deterministic configuration the
/// crashed process used — the journal stores decisions, not configuration.
///
/// Degraded read-only mode: when a journal write or fsync fails (full
/// disk, dying device), the server does NOT crash. It stops granting new
/// work (request_job[s] get {"type":"no_job","degraded":true} with a
/// retry_after), keeps absorbing heartbeats and reports — their journal
/// records are buffered in memory, in order — and probes the journal at
/// every subsequent message/tick. Once an append succeeds again the
/// buffered records are flushed, the journal is fsynced, and the server
/// exits degraded mode. The mode trades the no-loss guarantee for
/// availability *of already-leased work only*: a crash while degraded
/// loses the buffered records, which is why nothing new is granted until
/// durability returns. Snapshot-write failures are softer — counted and
/// retried at the next boundary — because the current generation's
/// snapshot+journal remain the recovery story throughout.
class DurableServer final : public MessageService, public LeaseEventSink {
 public:
  /// `server_options.journal` must be unset; DurableServer installs itself.
  /// CheckError unless `scheduler.SupportsSnapshot()`: compaction
  /// snapshots it.
  DurableServer(Scheduler& scheduler, ServerOptions server_options,
                DurabilityOptions durability);

  /// Forwards to TuningServer::HandleMessage, then snapshots if due.
  Json HandleMessage(const Json& message, double now) override;
  /// Forwards to TuningServer::Tick (expiries get journaled via the sink),
  /// then snapshots if due.
  void Tick(double now) override;

  /// Journals an auxiliary (audit-only) record — e.g. the simulator's
  /// hazard fate draws. Replay ignores these; they exist so a post-mortem
  /// can reconstruct *why* a run unfolded as it did, not just *what* the
  /// scheduler decided.
  void JournalAuxiliary(const Json& event);

  /// Journals a control record that IS replayed (unlike auxiliaries) and
  /// applies it to the live server. The only kind today is the study
  /// manager's "shift" (a resume-time lease-deadline shift; see
  /// TuningServer::ShiftDeadlines) — journaled so a post-crash replay
  /// reproduces the shifted deadlines instead of expiring frozen leases.
  void JournalControl(const Json& event);

  /// Forces a compacting snapshot now (also fsyncs the journal first).
  void TakeSnapshot();

  TuningServer& server() { return server_; }
  const TuningServer& server() const { return server_; }

  /// True when construction found prior state and recovered from it.
  bool recovered() const { return recovered_; }
  /// Current snapshot generation (0 = never snapshotted).
  std::uint64_t generation() const { return generation_; }
  /// Journal events replayed during recovery (0 when starting fresh).
  std::size_t replayed_events() const { return replayed_events_; }
  /// True when recovery found (and truncated) a torn/corrupt journal tail.
  bool journal_tail_truncated() const { return journal_tail_truncated_; }

  /// True while the journal is unwritable and grants are being denied.
  bool degraded() const { return degraded_; }
  /// Journal records currently buffered in memory (degraded mode only).
  std::size_t buffered_records() const { return buffered_.size(); }
  DurabilityStats durability_stats() const { return stats_; }

  // LeaseEventSink — invoked by the wrapped server after each mutation.
  void OnGrant(std::uint64_t job_id, std::uint64_t worker, const Job& job,
               double now) override;
  void OnReport(std::uint64_t job_id, double loss, double now) override;
  void OnRenew(std::uint64_t job_id, double now) override;
  void OnExpire(std::uint64_t job_id, double now) override;

 private:
  std::string SnapshotPath(std::uint64_t generation) const;
  std::string JournalPath(std::uint64_t generation) const;
  /// Restores snapshot + journal tail from the highest generation on disk;
  /// returns false when the dir holds no prior state.
  bool Recover();
  void JournalRecord(Json record);
  void MaybeSnapshot();
  /// Deletes snapshots/journals of generations before `keep`.
  void PruneBefore(std::uint64_t keep);

  void Count(const char* name);
  void EnterDegraded();
  /// Degraded-mode probe: re-append buffered records, fsync, and exit the
  /// mode once everything lands. Cheap no-op when not degraded.
  void TryResumeJournal();
  WalWriteOptions WalOptions() const;

  static ServerOptions WithJournal(ServerOptions options,
                                   LeaseEventSink* sink);

  TuningServer server_;
  DurabilityOptions durability_;
  std::optional<JournalWriter> writer_;
  std::uint64_t generation_ = 0;
  std::size_t records_since_snapshot_ = 0;
  bool recovered_ = false;
  std::size_t replayed_events_ = 0;
  bool journal_tail_truncated_ = false;
  bool degraded_ = false;
  /// Journal payloads awaiting re-append, oldest first (order is the
  /// replay order, so it must be preserved exactly).
  std::deque<std::string> buffered_;
  DurabilityStats stats_;
};

}  // namespace hypertune
