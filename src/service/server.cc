#include "service/server.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/trial_json.h"
#include "telemetry/telemetry.h"

namespace hypertune {

TuningServer::TuningServer(Scheduler& scheduler, ServerOptions options)
    : scheduler_(scheduler),
      options_(options),
      // The lifecycle core contributes leasing (the protocol's job ids ARE
      // its lease ids), exactly-once outcome validation, and RunRecords.
      // The server emits its own protocol-level telemetry (lease_granted /
      // job_reported / lease_expired events and server.* counters), so the
      // core's span/counter emission stays off.
      lifecycle_(scheduler,
                 LifecycleOptions{
                     .track_recommendations = options.track_recommendations}) {
  HT_CHECK(options_.lease_timeout > 0);
}

Json ErrorReply(const std::string& text) {
  Json reply = JsonObject{};
  reply.Set("type", Json("error"));
  reply.Set("message", Json(text));
  return reply;
}

Json AckReply() {
  Json reply = JsonObject{};
  reply.Set("type", Json("ack"));
  return reply;
}

Json NoJobReply(double retry_after) {
  Json reply = JsonObject{};
  reply.Set("type", Json("no_job"));
  reply.Set("retry_after", Json(retry_after));
  return reply;
}

bool IsGrantRequest(const Json& message) {
  if (!message.Has("type")) return false;
  const Json& type = message.at("type");
  return type.IsString() && (type.AsString() == "request_job" ||
                             type.AsString() == "request_jobs");
}

ServerStats TuningServer::stats() const {
  ServerStats stats = stats_;
  stats.active_leases = leases_.size();
  stats.deadline_heap_entries = deadlines_.size();
  return stats;
}

namespace {

Json LeaseArgs(std::uint64_t job_id, std::uint64_t worker, TrialId trial,
               const std::string& study_label) {
  Json args = JsonObject{};
  args.Set("job_id", Json(static_cast<std::int64_t>(job_id)));
  args.Set("worker", Json(static_cast<std::int64_t>(worker)));
  args.Set("trial", Json(trial));
  // Multi-tenant deployments tag lease events with their study; the
  // single-tenant shape (no "study" key) is pinned by the trace goldens.
  if (!study_label.empty()) args.Set("study", Json(study_label));
  return args;
}

/// A journal record's common head: {"kind":kind,"job_id":job_id}. Each
/// mutation appends its own fields and "now" last; the key order is the
/// journal's byte format.
Json LeaseRecord(const char* kind, std::uint64_t job_id) {
  Json record = JsonObject{};
  record.Set("kind", Json(kind));
  record.Set("job_id", Json(static_cast<std::int64_t>(job_id)));
  return record;
}

}  // namespace

void TuningServer::Tick(double now) {
  if (frozen_) return;  // suspended study: leases are frozen, not expiring
  // Pop heap tops until the front is a live entry that is not yet due. An
  // entry is live while it carries its lease's authoritative deadline;
  // renewals and resolutions leave stale entries behind, and dropping them
  // here whether or not they are due keeps the heap near the live-lease
  // count between expiries.
  std::vector<std::uint64_t> due;
  while (!deadlines_.empty()) {
    const DeadlineEntry& top = deadlines_.top();
    const auto it = leases_.find(top.job_id);
    if (it != leases_.end() && it->second.deadline == top.deadline) {
      if (top.deadline > now) break;
      due.push_back(top.job_id);
    }
    deadlines_.pop();
  }
  // Expire in ascending job id — the order the pre-heap full-scan server
  // expired in — so traces and scheduler call sequences stay identical. Two
  // renewals at one instant leave two identical entries, hence unique.
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());
  for (const std::uint64_t job_id : due) {
    // The worker is presumed dead or partitioned: its work is gone.
    ExpireLease(leases_.find(job_id), now);
  }
}

void TuningServer::ShiftDeadlines(double delta, double now) {
  // Rebuilding from the lease map also drops every stale heap entry, so a
  // long suspension doesn't resurface pre-suspension ghosts afterwards.
  std::vector<DeadlineEntry> entries;
  entries.reserve(leases_.size());
  for (auto& [job_id, lease] : leases_) {
    lease.deadline += delta;
    entries.push_back({lease.deadline, job_id});
  }
  deadlines_ = decltype(deadlines_)(std::greater<DeadlineEntry>{},
                                    std::move(entries));
  if (JournalSink* journal = live_journal()) {
    Json record = JsonObject{};
    record.Set("kind", Json("shift"));
    record.Set("delta", Json(delta));
    record.Set("now", Json(now));
    journal->JournalRecord(std::move(record));
  }
}

const TuningServer::Lease* TuningServer::OpenLease(std::uint64_t worker,
                                                   double now) {
  auto leased = lifecycle_.Acquire();
  if (!leased) return nullptr;
  // Lease ids are dense from 1 in grant order — exactly the job-id sequence
  // the pre-lifecycle server minted itself, so the wire format is unchanged.
  const std::uint64_t job_id = leased->lease_id;
  const double deadline = now + options_.lease_timeout;
  const Lease& lease =
      leases_.insert_or_assign(job_id,
                               Lease{*std::move(leased), worker, deadline, now})
          .first->second;
  deadlines_.push({deadline, job_id});
  ++stats_.jobs_assigned;
  const Job& job = lease.leased.job;
  if (Telemetry* telemetry = live_telemetry()) {
    Json args = LeaseArgs(job_id, worker, job.trial_id, options_.study_label);
    args.Set("rung", Json(job.rung));
    args.Set("deadline", Json(deadline));
    telemetry->EventAt(now, "lease_granted", "lease", std::move(args));
    telemetry->Count("server.jobs_assigned");
  }
  if (JournalSink* journal = live_journal()) {
    Json record = LeaseRecord("grant", job_id);
    record.Set("worker", Json(static_cast<std::int64_t>(worker)));
    // The job itself is re-derived from the restored scheduler on replay;
    // the trial id rides along so divergence fails loudly.
    record.Set("trial", Json(job.trial_id));
    record.Set("now", Json(now));
    journal->JournalRecord(std::move(record));
  }
  return &lease;
}

void TuningServer::CompleteLease(LeaseMap::iterator it, double loss,
                                 double now) {
  const std::uint64_t job_id = it->first;
  const Lease& lease = it->second;
  if (Telemetry* telemetry = live_telemetry()) {
    Json args = LeaseArgs(job_id, lease.worker, lease.leased.job.trial_id,
                          options_.study_label);
    args.Set("loss", Json(loss));
    telemetry->EventAt(now, "job_reported", "lease", std::move(args));
    telemetry->Count("server.jobs_completed");
  }
  lifecycle_.Complete(lease.leased, loss,
                      RunTiming{lease.granted_at, now, 0,
                                static_cast<int>(lease.worker)});
  // The heap entry for this lease goes stale; Tick drops it once it
  // reaches the top.
  leases_.erase(it);
  ++stats_.jobs_completed;
  if (JournalSink* journal = live_journal()) {
    Json record = LeaseRecord("report", job_id);
    record.Set("loss", Json(loss));
    record.Set("now", Json(now));
    journal->JournalRecord(std::move(record));
  }
}

void TuningServer::ExpireLease(LeaseMap::iterator it, double now) {
  const std::uint64_t job_id = it->first;
  const Lease& lease = it->second;
  if (Telemetry* telemetry = live_telemetry()) {
    telemetry->EventAt(now, "lease_expired", "lease",
                       LeaseArgs(job_id, lease.worker,
                                 lease.leased.job.trial_id,
                                 options_.study_label));
    telemetry->Count("server.leases_expired");
  }
  lifecycle_.Lose(lease.leased, RunTiming{lease.granted_at, now, 0,
                                          static_cast<int>(lease.worker)});
  leases_.erase(it);
  ++stats_.leases_expired;
  if (JournalSink* journal = live_journal()) {
    Json record = LeaseRecord("expire", job_id);
    record.Set("now", Json(now));
    journal->JournalRecord(std::move(record));
  }
}

void TuningServer::RenewLease(LeaseMap::iterator it, double now) {
  const std::uint64_t job_id = it->first;
  Lease& lease = it->second;
  lease.deadline = now + options_.lease_timeout;
  // The previous entry stays in the heap until Tick finds it stale.
  deadlines_.push({lease.deadline, job_id});
  if (Telemetry* telemetry = live_telemetry()) {
    telemetry->EventAt(now, "lease_renewed", "lease",
                       LeaseArgs(job_id, lease.worker,
                                 lease.leased.job.trial_id,
                                 options_.study_label));
    telemetry->Count("server.leases_renewed");
  }
  if (JournalSink* journal = live_journal()) {
    Json record = LeaseRecord("renew", job_id);
    record.Set("now", Json(now));
    journal->JournalRecord(std::move(record));
  }
}

Json TuningServer::HandleRequestJob(const Json& message, double now) {
  const auto worker = static_cast<std::uint64_t>(message.at("worker").AsInt());
  const Lease* lease = OpenLease(worker, now);
  // Synchronous tuners stall at rung barriers; tell the worker when to
  // retry rather than leaving it to guess.
  if (lease == nullptr) return NoJobReply(options_.lease_timeout / 4);

  Json reply = JsonObject{};
  reply.Set("type", Json("job"));
  reply.Set("job_id", Json(static_cast<std::int64_t>(lease->leased.lease_id)));
  reply.Set("job", ToJson(lease->leased.job));
  reply.Set("lease_timeout", Json(options_.lease_timeout));
  return reply;
}

Json TuningServer::HandleRequestJobs(const Json& message, double now) {
  const auto worker = static_cast<std::uint64_t>(message.at("worker").AsInt());
  const auto requested = message.at("count").AsInt();
  HT_CHECK_MSG(requested >= 1, "request_jobs count must be >= 1, got "
                                   << requested);
  const std::size_t count =
      std::min(static_cast<std::size_t>(requested), kMaxBatch);

  Json jobs = JsonArray{};
  std::size_t granted_count = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Lease* lease = OpenLease(worker, now);
    if (lease == nullptr) break;  // scheduler dry (barrier stall / trial cap)
    Json entry = JsonObject{};
    entry.Set("job_id",
              Json(static_cast<std::int64_t>(lease->leased.lease_id)));
    entry.Set("job", ToJson(lease->leased.job));
    jobs.PushBack(std::move(entry));
    ++granted_count;
  }
  if (granted_count == 0) return NoJobReply(options_.lease_timeout / 4);

  Json reply = JsonObject{};
  reply.Set("type", Json("jobs"));
  reply.Set("jobs", std::move(jobs));
  reply.Set("lease_timeout", Json(options_.lease_timeout));
  // Short fill: tell the worker when to come back for the remainder.
  if (granted_count < count) {
    reply.Set("retry_after", Json(options_.lease_timeout / 4));
  }
  return reply;
}

Json TuningServer::HandleReport(const Json& message, double now) {
  const auto job_id = static_cast<std::uint64_t>(message.at("job_id").AsInt());
  const auto it = leases_.find(job_id);
  if (it == leases_.end()) {
    // Lease already expired (we reported the job lost) or never existed:
    // acknowledge so the worker moves on, but ignore the data — the
    // scheduler already accounted for this job. Stale reports never reach
    // the lifecycle core, so its exactly-once guard is defense in depth
    // here, not the front line.
    ++stats_.stale_reports_ignored;
    if (options_.telemetry != nullptr) {
      Json args = JsonObject{};
      args.Set("job_id", Json(static_cast<std::int64_t>(job_id)));
      options_.telemetry->EventAt(now, "stale_report", "lease",
                                  std::move(args));
      options_.telemetry->Count("server.stale_reports_ignored");
    }
    Json reply = AckReply();
    reply.Set("stale", Json(true));
    return reply;
  }
  // Validate the payload *before* mutating lease state, so a report missing
  // its loss — or carrying a non-finite one — leaves the lease intact for
  // the worker's retry and earns an error reply, not a crash.
  const double loss = message.at("loss").AsDouble();
  ValidateReportedLoss(loss);
  CompleteLease(it, loss, now);
  return AckReply();
}

Json TuningServer::HandleHeartbeat(const Json& message, double now) {
  const auto job_id = static_cast<std::uint64_t>(message.at("job_id").AsInt());
  const auto it = leases_.find(job_id);
  if (it == leases_.end()) {
    // Tell the worker its lease is gone so it can abandon the stale job.
    Json reply = JsonObject{};
    reply.Set("type", Json("lease_lost"));
    return reply;
  }
  RenewLease(it, now);
  return AckReply();
}

Json TuningServer::HandleMessage(const Json& message, double now) {
  // Align the sink's virtual clock with protocol time so scheduler events
  // emitted inside GetJob/Report carry the same timestamps as ours.
  if (options_.telemetry != nullptr) options_.telemetry->AdvanceTo(now);
  Tick(now);
  const auto malformed = [&](const std::string& text) {
    ++stats_.malformed_messages;
    if (options_.telemetry != nullptr) {
      Json args = JsonObject{};
      args.Set("message", Json(text));
      options_.telemetry->EventAt(now, "malformed_message", "server",
                                  std::move(args));
      options_.telemetry->Count("server.malformed_messages");
    }
    return ErrorReply(text);
  };
  try {
    const std::string& type = message.at("type").AsString();
    if (type == "request_job") return HandleRequestJob(message, now);
    if (type == "request_jobs") return HandleRequestJobs(message, now);
    if (type == "report") return HandleReport(message, now);
    if (type == "heartbeat") return HandleHeartbeat(message, now);
    return malformed("unknown message type '" + type + "'");
  } catch (const CheckError& error) {
    return malformed(error.what());
  } catch (const std::exception& error) {
    // Defense in depth: any other exception a hostile payload provokes is
    // still an error reply (with accounting), never a dead service.
    return malformed(error.what());
  }
}

Json TuningServer::Snapshot() const {
  Json json = JsonObject{};
  json.Set("scheduler", scheduler_.Snapshot());
  json.Set("lifecycle", lifecycle_.Snapshot());
  Json leases = JsonArray{};
  for (const auto& [job_id, lease] : leases_) {
    Json entry = JsonObject{};
    entry.Set("job_id", Json(static_cast<std::int64_t>(job_id)));
    entry.Set("worker", Json(static_cast<std::int64_t>(lease.worker)));
    entry.Set("deadline", Json(lease.deadline));
    entry.Set("granted_at", Json(lease.granted_at));
    entry.Set("job", ToJson(lease.leased.job));
    leases.PushBack(std::move(entry));
  }
  json.Set("leases", std::move(leases));
  Json stats = JsonObject{};
  stats.Set("jobs_assigned",
            Json(static_cast<std::int64_t>(stats_.jobs_assigned)));
  stats.Set("jobs_completed",
            Json(static_cast<std::int64_t>(stats_.jobs_completed)));
  stats.Set("leases_expired",
            Json(static_cast<std::int64_t>(stats_.leases_expired)));
  stats.Set("stale_reports_ignored",
            Json(static_cast<std::int64_t>(stats_.stale_reports_ignored)));
  stats.Set("malformed_messages",
            Json(static_cast<std::int64_t>(stats_.malformed_messages)));
  json.Set("stats", std::move(stats));
  return json;
}

void TuningServer::Restore(const Json& snapshot) {
  HT_CHECK_MSG(leases_.empty() && lifecycle_.records().empty() &&
                   stats_.jobs_assigned == 0,
               "Restore requires a freshly constructed server");
  // In-flight leases survive the crash on paper; the journal tail and the
  // deadline clock decide their real fate after Restore.
  scheduler_.Restore(snapshot.at("scheduler"), RestorePolicy::kKeepInFlight);
  lifecycle_.Restore(snapshot.at("lifecycle"));
  for (const auto& entry : snapshot.at("leases").AsArray()) {
    const auto job_id =
        static_cast<std::uint64_t>(entry.at("job_id").AsInt());
    Lease lease;
    lease.leased.lease_id = job_id;
    lease.leased.job = JobFromJson(entry.at("job"));
    lease.worker = static_cast<std::uint64_t>(entry.at("worker").AsInt());
    lease.deadline = entry.at("deadline").AsDouble();
    lease.granted_at = entry.at("granted_at").AsDouble();
    deadlines_.push({lease.deadline, job_id});
    leases_[job_id] = std::move(lease);
  }
  const Json& stats = snapshot.at("stats");
  stats_.jobs_assigned =
      static_cast<std::size_t>(stats.at("jobs_assigned").AsInt());
  stats_.jobs_completed =
      static_cast<std::size_t>(stats.at("jobs_completed").AsInt());
  stats_.leases_expired =
      static_cast<std::size_t>(stats.at("leases_expired").AsInt());
  stats_.stale_reports_ignored =
      static_cast<std::size_t>(stats.at("stale_reports_ignored").AsInt());
  stats_.malformed_messages =
      static_cast<std::size_t>(stats.at("malformed_messages").AsInt());
}

void TuningServer::ReplayJournalEvent(const Json& event) {
  const std::string& kind = event.at("kind").AsString();
  if (kind == "hazard") return;  // audit-only record; worker state survives
  const double now = event.at("now").AsDouble();
  replaying_ = true;
  struct ReplayScope {
    bool& replaying;
    ~ReplayScope() { replaying = false; }
  } scope{replaying_};
  if (kind == "shift") {
    // A resume shifted every open deadline by the suspension's duration.
    // Without replaying it, leases granted before a pre-crash suspension
    // would expire spuriously on the first post-recovery tick.
    ShiftDeadlines(event.at("delta").AsDouble(), now);
    return;
  }
  if (kind != "grant" && kind != "report" && kind != "renew" &&
      kind != "expire") {
    throw CheckError("journal replay: unknown event kind '" + kind + "'");
  }
  const auto job_id = static_cast<std::uint64_t>(event.at("job_id").AsInt());
  if (kind == "grant") {
    // Replay by re-derivation: the restored scheduler must produce exactly
    // the job the live server granted. The journal carries the expected
    // identity so divergence fails loudly here rather than corrupting the
    // run downstream.
    const Lease* lease = OpenLease(
        static_cast<std::uint64_t>(event.at("worker").AsInt()), now);
    HT_CHECK_MSG(lease != nullptr,
                 "journal replay: scheduler had no job for grant " << job_id);
    HT_CHECK_MSG(lease->leased.lease_id == job_id &&
                     lease->leased.job.trial_id == event.at("trial").AsInt(),
                 "journal replay diverged at grant "
                     << job_id << ": re-derived lease "
                     << lease->leased.lease_id << " trial "
                     << lease->leased.job.trial_id);
    return;
  }
  const auto it = leases_.find(job_id);
  HT_CHECK_MSG(it != leases_.end(),
               "journal replay: " << kind << " for unknown lease " << job_id);
  if (kind == "report") {
    CompleteLease(it, event.at("loss").AsDouble(), now);
  } else if (kind == "renew") {
    RenewLease(it, now);
  } else {
    ExpireLease(it, now);
  }
}

}  // namespace hypertune
