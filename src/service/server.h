// The tuning service: the distributed-systems shell around a Scheduler.
//
// The paper's system runs as a service that hands jobs to remote workers
// (25 AWS machines, 500 Google workers). This module implements that
// protocol layer over a JSON wire format:
//
//   worker -> {"type":"request_job","worker":W}
//   server <- {"type":"job","job_id":J,"job":{...}} | {"type":"no_job"}
//   worker -> {"type":"request_jobs","worker":W,"count":K}   (batched lease)
//   server <- {"type":"jobs","jobs":[{"job_id":J,"job":{...}},...]}
//           | {"type":"no_job"}
//   worker -> {"type":"heartbeat","worker":W,"job_id":J}   (extends lease)
//   worker -> {"type":"report","worker":W,"job_id":J,"loss":L}
//   server <- {"type":"ack"} | {"type":"error","message":...}
//
// Every assignment carries a *lease*: if neither a heartbeat nor a report
// arrives before the lease deadline, the server declares the job lost and
// tells the scheduler (ReportLost) — the mechanism that turns crashed or
// partitioned workers into the "dropped jobs" ASHA tolerates (Appendix
// A.1). Late reports for expired leases are acknowledged but ignored
// (at-most-once accounting).
//
// The server is an adapter over the shared trial-lifecycle core
// (src/lifecycle): TrialLifecycle issues the lease ids (== the protocol's
// job ids), guards every outcome (a lease resolves exactly once; losses
// are finite), and records one RunRecord per resolved job — the server
// contributes the wire format, the deadline bookkeeping, and the
// lease-lifecycle telemetry events. run_records() exposes the unified log.
//
// Scaling contract (Figure 5 regime — hundreds to thousands of workers on
// one server): expiry checks ride a lazy-deletion deadline min-heap, so a
// message costs O(log L) amortized in the number of live leases instead of
// a full lease rescan; heartbeat renewals push a fresh heap entry, and
// every Tick discards the stale ones that have reached the top against the
// authoritative lease map, due or not. Batched `request_jobs` leases up to
// K jobs in one round-trip (one expiry sweep, one reply array), cutting
// per-job protocol overhead for prefetching workers. The single-job
// `request_job` path is bit-compatible with the pre-heap server: same
// replies, same telemetry events, same scheduler call sequence.
//
// The server is the one owner of lease state. Each lease event — grant,
// report, renewal, expiry, resume-time deadline shift — is one private
// mutation that applies the event, emits its telemetry, and hands its
// journal record to ServerOptions::journal; ReplayJournalEvent parses the
// same records back into the same mutations (DESIGN.md §7).
//
// The server is single-threaded and clock-agnostic: callers pass `now`
// into every entry point, so it runs identically under the simulator's
// virtual time, a test harness, or a wall-clock polling loop.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/scheduler.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/run_record.h"

namespace hypertune {

class Telemetry;

/// Where a server's journal records go. TuningServer builds one record per
/// lease event (kinds "grant", "report", "renew", "expire", "shift"), hands
/// it here right after applying the event within the same message, and
/// parses the same records back in ReplayJournalEvent. The durability layer
/// (src/durability) implements this to append them to its write-ahead
/// journal.
class JournalSink {
 public:
  virtual ~JournalSink() = default;
  virtual void JournalRecord(Json record) = 0;
};

/// The transport-agnostic face of the tuning service: one protocol message
/// in, one reply out, plus the idle-tick hook a timer drives so leases
/// expire when no messages arrive. TuningServer and DurableServer both
/// implement it; transports (in-process harnesses, src/net's TCP server)
/// target this interface and never care which one they front.
///
/// Implementations are single-threaded: a transport must call
/// HandleMessage/Tick from one thread at a time.
class MessageService {
 public:
  virtual ~MessageService() = default;
  /// Handles one worker message at protocol time `now`, returning the reply.
  virtual Json HandleMessage(const Json& message, double now) = 0;
  /// Expires overdue leases at protocol time `now`.
  virtual void Tick(double now) = 0;
};

// The reply vocabulary every MessageService layer and transport shares.
// Key order is wire contract: the codec's golden frames pin it.

/// {"type":"error","message":text}
Json ErrorReply(const std::string& text);
/// {"type":"ack"}
Json AckReply();
/// {"type":"no_job","retry_after":retry_after}; overload and degraded
/// denials append their "shed" / "degraded" flag.
Json NoJobReply(double retry_after);
/// True for request_job / request_jobs — the requests for new work that
/// overload shedding and degraded mode deny. False for anything else,
/// including a message that is not an object.
bool IsGrantRequest(const Json& message);

/// Upper bound on `count` in a batched request_jobs message; larger
/// requests are clamped (a hostile client must not lease the world).
inline constexpr std::size_t kMaxBatch = 1024;

struct ServerOptions {
  /// A job lease lasts this long past the last heartbeat/assignment.
  double lease_timeout = 60;
  /// Optional observability sink (not owned; must outlive the server).
  /// When set, the server emits lease lifecycle events (granted / renewed /
  /// expired), report/stale-report/malformed-message events — all stamped
  /// with the caller-provided `now`, so traces stay deterministic under
  /// virtual time — and mirrors ServerStats into counters. The server also
  /// advances the sink's virtual clock (when it has one) to `now` on every
  /// message, so scheduler events emitted inside GetJob/Report line up.
  Telemetry* telemetry = nullptr;
  /// Record the scheduler's recommendation whenever it changes (the
  /// incumbent trajectory the paper's figures plot; see
  /// run_recommendations()). Off by default — trajectory points cost a
  /// vector push per change.
  bool track_recommendations = false;
  /// Optional write-ahead journal sink (not owned; must outlive the
  /// server). Receives one record after every lease event — granted,
  /// reported, renewed, expired, deadlines shifted — so a durability layer
  /// can journal them and replay after a crash.
  JournalSink* journal = nullptr;
  /// Multi-tenant label: when non-empty, every lease lifecycle event this
  /// server emits carries a `"study"` argument so traces from co-hosted
  /// studies (src/study) can be told apart. Empty (the default) emits the
  /// exact single-tenant event shapes — the decision goldens depend on it.
  std::string study_label;
};

struct ServerStats {
  std::size_t jobs_assigned = 0;
  std::size_t jobs_completed = 0;
  std::size_t leases_expired = 0;
  std::size_t stale_reports_ignored = 0;
  std::size_t malformed_messages = 0;
  std::size_t active_leases = 0;
  /// Live + stale entries in the deadline heap (stale entries are lazily
  /// discarded; the gap to active_leases measures renewal churn).
  std::size_t deadline_heap_entries = 0;
};

class TuningServer : public MessageService {
 public:
  TuningServer(Scheduler& scheduler, ServerOptions options);

  /// Handles one worker message and returns the reply. Malformed messages
  /// get {"type":"error"} replies rather than exceptions (a bad client must
  /// not take down the service).
  Json HandleMessage(const Json& message, double now) override;

  /// Expires overdue leases (call periodically; HandleMessage also calls
  /// it, so a busy service needs no separate timer — an idle one does: see
  /// NetServerOptions::tick_interval). Also drops stale heap tops (renewed
  /// or resolved leases) whether or not they are due, so the deadline heap
  /// stays near the live-lease count. O(E log L) for E expiries and stale
  /// tops — a no-op sweep touches only the heap top.
  void Tick(double now) override;

  /// Shifts every open lease deadline by `delta`, rebuilds the expiry heap
  /// and journals a "shift" record stamped `now`. The study manager calls
  /// this on resume so a suspension freezes leases (workers were not dead,
  /// the study was paused) instead of expiring them en masse on the first
  /// post-resume tick — and so recovery replays the same shift. O(L log L).
  void ShiftDeadlines(double delta, double now);

  /// Freezes the expiry clock: Tick becomes a no-op until unfrozen. The
  /// study manager freezes suspended studies — every HandleMessage ticks
  /// internally, so without this a report arriving mid-suspension would
  /// expire the very leases the suspension promised to keep frozen.
  void SetFrozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

  ServerStats stats() const;

  /// The scheduler's current recommendation (what the service would return
  /// to a "best configuration so far" query).
  std::optional<Recommendation> Current() const { return scheduler_.Current(); }

  /// The unified lifecycle log: one RunRecord per resolved lease (reported
  /// jobs and expired leases), timestamped in protocol time. start_time is
  /// the grant time, end_time the report/expiry time.
  const std::vector<RunRecord>& run_records() const {
    return lifecycle_.records();
  }

  /// The incumbent trajectory (empty unless
  /// ServerOptions::track_recommendations is set).
  const std::vector<RecommendationPoint>& run_recommendations() const {
    return lifecycle_.recommendations();
  }

  /// Crash recovery (see DESIGN.md §7): captures the scheduler (via
  /// Scheduler::Snapshot), the lifecycle core, every open lease (with its
  /// job, worker, deadline, and grant time), and the protocol stats.
  Json Snapshot() const;

  /// Restores a snapshot into a freshly constructed server whose scheduler
  /// is also freshly constructed. In-flight leases stay open
  /// (RestorePolicy::kKeepInFlight); the caller then replays the journal
  /// tail and lets Tick re-expire whatever the dead workers never finish.
  void Restore(const Json& snapshot);

  /// Applies one journaled record during recovery, through the same
  /// mutation the live event ran. Grants are replayed by re-derivation: the
  /// restored scheduler is asked for its next job, and the result is
  /// checked against the journaled job id and trial — divergence is a
  /// CheckError, not a silent corruption, and so is a record for an unknown
  /// lease. "hazard" records are audit-only and skipped. No telemetry or
  /// journal output is emitted while replaying.
  void ReplayJournalEvent(const Json& event);

 private:
  struct Lease {
    LeasedJob leased;
    std::uint64_t worker = 0;
    double deadline = 0;
    /// When the lease was granted (RunRecord::start_time).
    double granted_at = 0;
  };

  /// One (deadline, job) entry in the lazy-deletion expiry heap. Renewals
  /// push a fresh entry instead of re-keying; an entry is stale when its
  /// lease is gone or carries another authoritative deadline.
  struct DeadlineEntry {
    double deadline = 0;
    std::uint64_t job_id = 0;
    bool operator>(const DeadlineEntry& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return job_id > other.job_id;
    }
  };

  using LeaseMap = std::map<std::uint64_t, Lease>;

  Json HandleRequestJob(const Json& message, double now);
  Json HandleRequestJobs(const Json& message, double now);
  Json HandleReport(const Json& message, double now);
  Json HandleHeartbeat(const Json& message, double now);

  // One mutation per lease event. The live handlers and ReplayJournalEvent
  // both run these; each emits its telemetry event and journal record
  // unless replaying. The protocol job id IS the lifecycle lease id.

  /// Leases the scheduler's next job to `worker` and opens its lease;
  /// nullptr when the scheduler has nothing to hand out.
  const Lease* OpenLease(std::uint64_t worker, double now);
  /// Resolves the lease with its reported loss.
  void CompleteLease(LeaseMap::iterator it, double loss, double now);
  /// Resolves the lease as lost (its deadline passed).
  void ExpireLease(LeaseMap::iterator it, double now);
  /// Moves the lease's deadline to `now + lease_timeout`.
  void RenewLease(LeaseMap::iterator it, double now);

  /// The telemetry sink for live events; null while replaying.
  Telemetry* live_telemetry() const {
    return replaying_ ? nullptr : options_.telemetry;
  }
  /// The journal sink for live events; null while replaying.
  JournalSink* live_journal() const {
    return replaying_ ? nullptr : options_.journal;
  }

  Scheduler& scheduler_;
  ServerOptions options_;
  /// The shared lease→run→outcome core (leasing, exactly-once validation,
  /// RunRecords). Single-threaded like the server itself.
  TrialLifecycle lifecycle_;
  LeaseMap leases_;  // job_id -> lease (authoritative)
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  ServerStats stats_;
  bool frozen_ = false;
  /// True while ReplayJournalEvent applies a record.
  bool replaying_ = false;
};

}  // namespace hypertune
