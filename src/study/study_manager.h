// StudyManager: one tuning service hosting thousands of concurrent studies.
//
// The paper's deployment regime (and Vizier's, which it extends) is
// tuning-as-a-service: one server multiplexes many users' experiments, each
// with its own scheduler, trial lifecycle, and durability generation. Every
// layer below this one — TuningServer (src/service), DurableServer
// (src/durability), NetServer (src/net) — hosts exactly one study;
// StudyManager is the multi-tenant shell that routes protocol messages to
// named studies and adds the admin vocabulary:
//
//   {"type":"create_study","study":S,"config":{...},"max_leases":Q}
//   {"type":"suspend_study","study":S}   (grants stop, leases freeze)
//   {"type":"resume_study","study":S}    (deadlines shift by the pause)
//   {"type":"delete_study","study":S}    (tombstone-first, then the dir)
//   {"type":"list_studies"}              -> {"type":"studies",...}
//
// Lease messages (request_job / request_jobs / heartbeat / report) carry an
// optional "study" field. An absent field routes to the study named
// "default", so a single-tenant client speaks the exact pre-manager
// protocol; the study "*" asks for work from ANY ready study, allocated
// round-robin: one name-ordered cursor walks the ready studies, so N*K
// single "*" grants over K ready studies give each exactly N, and a batch
// of K gives each one. Each granted entry names the study its report must
// route back to.
//
// One study index: studies live in one name-ordered map with one
// lease-deadline index (a lazy-deletion min-heap of per-study earliest
// deadlines, so an idle Tick touches only the studies actually due) and one
// "*" cursor. Like every MessageService, the manager is single-threaded:
// its transport (NetServer's poll thread) calls it from one thread at a
// time, so it takes no locks.
//
// Durability (root non-empty): each study persists under
// <root>/studies/<name>/ — `study.json` (the factory config; the journal
// stores decisions, not configuration), `state.json` (suspension), and the
// standard DurableServer snapshot-%06g.json + wal-%06g.log generations.
// Recovery restores every study found on disk; deletion writes a tombstone
// marker durably *before* destroying anything, so a crash mid-delete
// finishes the delete on recovery instead of resurrecting half a study.
//
// Suspension semantics: a suspended study grants nothing (no_job), still
// accepts reports and heartbeats (a paused study must not discard finished
// work), and is skipped by Tick — its leases are frozen, not expired. On
// resume, every open deadline shifts by the pause duration (journaled as a
// "shift" control record so recovery reproduces it).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/scheduler.h"
#include "durability/durable_server.h"
#include "searchspace/space.h"
#include "service/server.h"

namespace hypertune {

class Telemetry;

/// Builds a study's scheduler from its creation config. The factory is the
/// deployment's policy hook: it decides which scheduler kinds and search
/// spaces studies may request. Must be deterministic (recovery re-invokes
/// it with the persisted config). Returns nullptr to reject the config.
using StudySchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(const Json& config)>;

/// The stock factory over one fixed search space. Config keys: "kind"
/// ("asha" | "sha" | "hyperband" | "random", default "random"), "seed",
/// and the kind's knobs ("r", "R", "eta", "max_trials", "n", "n0") with
/// the same defaults the decision-identity scenario uses (r=1, R=81,
/// eta=3). Unknown kinds and any other key are rejected.
StudySchedulerFactory MakeStudySchedulerFactory(SearchSpace space);

struct StudyManagerOptions {
  /// Per-study server template. `journal` must be unset (DurableServer
  /// installs its own) and `study_label` is overwritten with each study's
  /// name.
  ServerOptions server;
  /// When non-empty, studies are durable under <root>/studies/<name>/ and
  /// construction recovers every study already on disk.
  std::string durability_root;
  /// Journal fsync policy for durable studies (see wal.h).
  SyncPolicy sync = SyncPolicy::kEveryN;
  std::size_t sync_every = 64;
  std::size_t snapshot_every = 1024;
  /// Quota applied to studies created without an explicit max_leases
  /// (0 = unlimited).
  std::size_t default_max_leases = 0;
  /// Create the study named "default" — where study-less messages route,
  /// the single-tenant compatibility path — at construction with this
  /// config (skipped when recovery already restored it). Null = no
  /// auto-creation; study-less messages then error until someone creates
  /// the default study.
  Json default_config;
  /// Optional observability sink (not owned; must outlive the manager).
  Telemetry* telemetry = nullptr;
};

/// One row of list_studies / ListStudies().
struct StudyInfo {
  std::string name;
  bool suspended = false;
  std::size_t max_leases = 0;
  std::size_t active_leases = 0;
  std::size_t jobs_assigned = 0;
  std::size_t jobs_completed = 0;
};

struct StudyManagerStats {
  std::size_t studies = 0;
  std::size_t created = 0;
  std::size_t deleted = 0;
  std::size_t suspended = 0;
  std::size_t resumed = 0;
  std::size_t recovered = 0;
  /// Half-finished deletions completed during recovery (tombstone found).
  std::size_t tombstones_completed = 0;
  std::size_t unknown_study_errors = 0;
  /// Scoped requests denied (or clamped to zero) by a study quota.
  std::size_t quota_denials = 0;
};

class StudyManager final : public MessageService {
 public:
  StudyManager(StudySchedulerFactory factory, StudyManagerOptions options);
  ~StudyManager() override;

  StudyManager(const StudyManager&) = delete;
  StudyManager& operator=(const StudyManager&) = delete;

  /// Routes one protocol message: admin verbs are handled here, lease
  /// messages go to the study named by the "study" field (absent = the
  /// default study, "*" = round-robin across all ready studies). Unknown
  /// studies and malformed messages get {"type":"error"} replies.
  Json HandleMessage(const Json& message, double now) override;

  /// Expires overdue leases across all studies. Suspended studies are
  /// skipped — their leases are frozen (satellite contract: an idle-expiry
  /// timer upstream must never expire a paused study's leases). Cost is
  /// O(due studies), not O(studies): a lazy min-heap of per-study earliest
  /// deadlines touches only the studies whose heap entries are due.
  void Tick(double now) override;

  // Typed admin API (the wire verbs call straight into these).
  /// Creates a study. Fails (returns false) on duplicate names, invalid
  /// names (allowed: [A-Za-z0-9._-]{1,128}, not "." / ".."), or a config
  /// the factory rejects. `max_leases` nullopt = options default. In
  /// durable mode, a scheduler without SupportsSnapshot() is a CheckError,
  /// raised before anything is written under the study's directory.
  bool CreateStudy(const std::string& name, const Json& config, double now,
                   std::optional<std::size_t> max_leases = std::nullopt);
  /// Stops grants and freezes leases. Idempotent; false if unknown.
  bool SuspendStudy(const std::string& name, double now);
  /// Unfreezes: shifts every open deadline by the pause duration (journaled
  /// for durable studies). Idempotent; false if unknown.
  bool ResumeStudy(const std::string& name, double now);
  /// Tombstones (durable studies) and destroys the study. False if unknown.
  bool DeleteStudy(const std::string& name, double now);
  /// All studies, sorted by name.
  std::vector<StudyInfo> ListStudies() const;

  StudyManagerStats stats() const;
  std::size_t study_count() const;

  /// Harness/test introspection: the study's underlying server/scheduler,
  /// or nullptr if unknown.
  TuningServer* FindServer(const std::string& name);
  Scheduler* FindScheduler(const std::string& name);

 private:
  struct Study {
    std::string name;
    Json config;
    std::size_t max_leases = 0;
    std::unique_ptr<Scheduler> scheduler;
    // Exactly one of `plain` / `durable` is set; `service` and `server`
    // point into whichever owns the TuningServer.
    std::unique_ptr<TuningServer> plain;
    std::unique_ptr<DurableServer> durable;
    MessageService* service = nullptr;
    TuningServer* server = nullptr;
    bool suspended = false;
    double suspended_at = 0;
    /// The smallest deadline currently queued for this study in the tick
    /// index (valid => exactly one live entry at that deadline exists;
    /// later duplicates are discarded as stale on pop). Keeps the index at
    /// ~one entry per study instead of one per message.
    double indexed_deadline = 0;
    bool indexed_valid = false;
  };

  /// One (deadline, study) entry in the lazy-deletion tick index.
  struct DeadlineEntry {
    double deadline = 0;
    std::string study;
    bool operator>(const DeadlineEntry& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return study > other.study;
    }
  };

  Study* Find(const std::string& name);
  /// Pushes the study's current earliest lease deadline into the tick
  /// index.
  void IndexDeadline(Study& study);
  std::string StudyDir(const std::string& name) const;
  bool durable() const { return !options_.durability_root.empty(); }
  /// Builds the Study object (scheduler via factory + server stack).
  /// Returns nullptr when the factory rejects the config. `dir` empty for
  /// in-memory studies.
  std::unique_ptr<Study> BuildStudy(const std::string& name, Json config,
                                    std::size_t max_leases);
  /// Scans <root>/studies at construction: completes tombstoned deletions,
  /// recovers everything else.
  void RecoverStudies();
  void WriteStateFile(const Study& study) const;
  void EmitAdminEvent(const char* event, const char* counter,
                      const std::string& study, double now);

  Json HandleAdmin(const std::string& type, const Json& message, double now);
  Json HandleScoped(const std::string& type, const Json& message,
                    const std::string& study, double now);
  Json HandleAnyStudy(const std::string& type, const Json& message,
                      double now);

  StudySchedulerFactory factory_;
  StudyManagerOptions options_;
  std::map<std::string, std::unique_ptr<Study>> studies_;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  /// "*" cursor: the name the next grant probe starts from (names at/after
  /// it, wrapping). Deleted names are fine — probes lower_bound.
  std::string next_study_;
  StudyManagerStats stats_;
};

}  // namespace hypertune
