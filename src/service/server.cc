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

}  // namespace

void TuningServer::Tick(double now) {
  if (frozen_) return;  // suspended study: leases are frozen, not expiring
  // Drain due heap entries, discarding stale ones (renewed leases leave
  // their superseded deadlines behind; expired leases may leave renewal
  // entries). The lease map is authoritative: an entry only expires a
  // lease whose *current* deadline is due.
  std::vector<std::pair<std::uint64_t, Lease>> expired;
  while (!deadlines_.empty() && deadlines_.top().deadline <= now) {
    const DeadlineEntry due = deadlines_.top();
    deadlines_.pop();
    const auto it = leases_.find(due.job_id);
    if (it == leases_.end()) continue;      // lease reported or expired: stale
    if (it->second.deadline > now) continue;  // renewed: stale entry
    expired.emplace_back(due.job_id, std::move(it->second));
    leases_.erase(it);
  }
  if (expired.empty()) return;
  // Process in ascending job id — the order the pre-heap full-scan server
  // expired in — so traces and scheduler call sequences stay identical.
  std::sort(expired.begin(), expired.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [job_id, lease] : expired) {
    // The worker is presumed dead or partitioned: its work is gone.
    if (options_.telemetry != nullptr) {
      options_.telemetry->EventAt(
          now, "lease_expired", "lease",
          LeaseArgs(job_id, lease.worker, lease.leased.job.trial_id,
                    options_.study_label));
      options_.telemetry->Count("server.leases_expired");
    }
    lifecycle_.Lose(lease.leased, RunTiming{lease.granted_at, now, 0,
                                            static_cast<int>(lease.worker)});
    ++stats_.leases_expired;
    if (options_.journal != nullptr) options_.journal->OnExpire(job_id, now);
  }
}

std::optional<double> TuningServer::EarliestDeadline() {
  // Pop stale tops (renewed or resolved leases) until the heap front agrees
  // with the authoritative lease map; what remains is the true next expiry.
  while (!deadlines_.empty()) {
    const DeadlineEntry& top = deadlines_.top();
    const auto it = leases_.find(top.job_id);
    if (it != leases_.end() && it->second.deadline == top.deadline) {
      return top.deadline;
    }
    deadlines_.pop();
  }
  return std::nullopt;
}

void TuningServer::ShiftDeadlines(double delta) {
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
}

std::optional<std::pair<std::uint64_t, Job>> TuningServer::GrantLease(
    std::uint64_t worker, double now) {
  auto leased = lifecycle_.Acquire();
  if (!leased) return std::nullopt;
  // Lease ids are dense from 1 in grant order — exactly the job-id sequence
  // the pre-lifecycle server minted itself, so the wire format is unchanged.
  const std::uint64_t job_id = leased->lease_id;
  const Job job = leased->job;
  const double deadline = now + options_.lease_timeout;
  leases_[job_id] = Lease{*std::move(leased), worker, deadline, now};
  deadlines_.push({deadline, job_id});
  ++stats_.jobs_assigned;
  if (options_.telemetry != nullptr) {
    Json args = LeaseArgs(job_id, worker, job.trial_id, options_.study_label);
    args.Set("rung", Json(job.rung));
    args.Set("deadline", Json(deadline));
    options_.telemetry->EventAt(now, "lease_granted", "lease",
                                std::move(args));
    options_.telemetry->Count("server.jobs_assigned");
  }
  if (options_.journal != nullptr) {
    options_.journal->OnGrant(job_id, worker, job, now);
  }
  return std::make_pair(job_id, job);
}

Json TuningServer::HandleRequestJob(const Json& message, double now) {
  const auto worker = static_cast<std::uint64_t>(message.at("worker").AsInt());
  auto granted = GrantLease(worker, now);
  // Synchronous tuners stall at rung barriers; tell the worker when to
  // retry rather than leaving it to guess.
  if (!granted) return NoJobReply(options_.lease_timeout / 4);

  Json reply = JsonObject{};
  reply.Set("type", Json("job"));
  reply.Set("job_id", Json(static_cast<std::int64_t>(granted->first)));
  reply.Set("job", ToJson(granted->second));
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
    auto granted = GrantLease(worker, now);
    if (!granted) break;  // scheduler dry (barrier stall / trial cap): stop
    Json entry = JsonObject{};
    entry.Set("job_id", Json(static_cast<std::int64_t>(granted->first)));
    entry.Set("job", ToJson(granted->second));
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
  if (options_.telemetry != nullptr) {
    Json args =
        LeaseArgs(job_id, it->second.worker, it->second.leased.job.trial_id,
                  options_.study_label);
    args.Set("loss", Json(loss));
    options_.telemetry->EventAt(now, "job_reported", "lease",
                                std::move(args));
    options_.telemetry->Count("server.jobs_completed");
  }
  lifecycle_.Complete(it->second.leased, loss,
                      RunTiming{it->second.granted_at, now, 0,
                                static_cast<int>(it->second.worker)});
  // The heap entry for this lease goes stale and is discarded when it
  // surfaces — lazy deletion keeps reports O(log L)-free entirely.
  leases_.erase(it);
  ++stats_.jobs_completed;
  if (options_.journal != nullptr) {
    options_.journal->OnReport(job_id, loss, now);
  }
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
  const double deadline = now + options_.lease_timeout;
  it->second.deadline = deadline;
  // Lazy deletion: the previous entry stays in the heap and is skipped
  // against the authoritative deadline when it comes due.
  deadlines_.push({deadline, job_id});
  if (options_.telemetry != nullptr) {
    options_.telemetry->EventAt(
        now, "lease_renewed", "lease",
        LeaseArgs(job_id, it->second.worker, it->second.leased.job.trial_id,
                  options_.study_label));
    options_.telemetry->Count("server.leases_renewed");
  }
  if (options_.journal != nullptr) options_.journal->OnRenew(job_id, now);
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
  const double now = event.at("now").AsDouble();
  if (kind == "grant") {
    const auto job_id =
        static_cast<std::uint64_t>(event.at("job_id").AsInt());
    const auto worker =
        static_cast<std::uint64_t>(event.at("worker").AsInt());
    // Replay by re-derivation: the restored scheduler must produce exactly
    // the job the live server granted. The journal carries the expected
    // identity so divergence fails loudly here rather than corrupting the
    // run downstream.
    auto leased = lifecycle_.Acquire();
    HT_CHECK_MSG(leased.has_value(),
                 "journal replay: scheduler had no job for grant "
                     << job_id);
    HT_CHECK_MSG(leased->lease_id == job_id &&
                     leased->job.trial_id == event.at("trial").AsInt(),
                 "journal replay diverged at grant "
                     << job_id << ": re-derived lease " << leased->lease_id
                     << " trial " << leased->job.trial_id);
    const double deadline = now + options_.lease_timeout;
    leases_[job_id] = Lease{*std::move(leased), worker, deadline, now};
    deadlines_.push({deadline, job_id});
    ++stats_.jobs_assigned;
    return;
  }
  if (kind == "report") {
    const auto job_id =
        static_cast<std::uint64_t>(event.at("job_id").AsInt());
    const auto it = leases_.find(job_id);
    HT_CHECK_MSG(it != leases_.end(),
                 "journal replay: report for unknown lease " << job_id);
    lifecycle_.Complete(it->second.leased, event.at("loss").AsDouble(),
                        RunTiming{it->second.granted_at, now, 0,
                                  static_cast<int>(it->second.worker)});
    leases_.erase(it);
    ++stats_.jobs_completed;
    return;
  }
  if (kind == "renew") {
    const auto job_id =
        static_cast<std::uint64_t>(event.at("job_id").AsInt());
    const auto it = leases_.find(job_id);
    HT_CHECK_MSG(it != leases_.end(),
                 "journal replay: renew for unknown lease " << job_id);
    const double deadline = now + options_.lease_timeout;
    it->second.deadline = deadline;
    deadlines_.push({deadline, job_id});
    return;
  }
  if (kind == "expire") {
    const auto job_id =
        static_cast<std::uint64_t>(event.at("job_id").AsInt());
    const auto it = leases_.find(job_id);
    HT_CHECK_MSG(it != leases_.end(),
                 "journal replay: expiry for unknown lease " << job_id);
    lifecycle_.Lose(it->second.leased,
                    RunTiming{it->second.granted_at, now, 0,
                              static_cast<int>(it->second.worker)});
    leases_.erase(it);
    ++stats_.leases_expired;
    return;
  }
  if (kind == "shift") {
    // Study-manager control record: a resume shifted every open deadline by
    // the suspension's duration. Without replaying it, leases granted before
    // a pre-crash suspension would expire spuriously on the first
    // post-recovery tick.
    ShiftDeadlines(event.at("delta").AsDouble());
    return;
  }
  if (kind == "hazard") return;  // audit-only record; worker state survives
  throw CheckError("journal replay: unknown event kind '" + kind + "'");
}

}  // namespace hypertune
