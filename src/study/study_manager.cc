#include "study/study_manager.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace hypertune {

namespace {

/// Where study-less messages route: the single-tenant compatibility path.
constexpr char kDefaultStudy[] = "default";

Json ReadJsonFile(const std::string& path) {
  const std::vector<char> bytes = ReadFileBytes(path);
  return Json::Parse({bytes.data(), bytes.size()});
}

/// Study names double as directory names, so the charset is the portable
/// filesystem-safe one. "*" (the any-study sentinel) fails this by
/// construction.
bool ValidStudyName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  if (name == "." || name == "..") return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// The study commit points (manifest, state, tombstone): durable before
/// anything acts on them.
void WriteStudyFile(const std::string& path, const std::string& content) {
  HT_CHECK_MSG(WriteFileDurably(FileOps::Real(), path, content),
               "cannot write study file " << path);
}

}  // namespace

StudyManager::StudyManager(StudySchedulerFactory factory,
                           StudyManagerOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  HT_CHECK_MSG(factory_ != nullptr, "StudyManager requires a factory");
  HT_CHECK_MSG(options_.server.journal == nullptr,
               "per-study servers install their own journal sinks");
  if (durable()) RecoverStudies();
  if (!options_.default_config.IsNull() && Find(kDefaultStudy) == nullptr) {
    HT_CHECK_MSG(CreateStudy(kDefaultStudy, options_.default_config, 0.0),
                 "cannot create default study '" << kDefaultStudy << "'");
  }
}

StudyManager::~StudyManager() = default;

StudyManager::Study* StudyManager::Find(const std::string& name) {
  const auto it = studies_.find(name);
  return it == studies_.end() ? nullptr : it->second.get();
}

std::string StudyManager::StudyDir(const std::string& name) const {
  return (std::filesystem::path(options_.durability_root) / "studies" / name)
      .string();
}

std::unique_ptr<StudyManager::Study> StudyManager::BuildStudy(
    const std::string& name, Json config, std::size_t max_leases) {
  auto scheduler = factory_(config);
  if (scheduler == nullptr) return nullptr;
  // Checked before the study directory exists: a manifest left behind
  // would make every restart rebuild the same unservable study.
  HT_CHECK_MSG(!durable() || scheduler->SupportsSnapshot(),
               "study '" << name << "': durable studies need a scheduler "
                         << "that supports snapshots; " << scheduler->name()
                         << " does not");
  auto study = std::make_unique<Study>();
  study->name = name;
  study->config = std::move(config);
  study->max_leases = max_leases;
  study->scheduler = std::move(scheduler);
  ServerOptions server_options = options_.server;
  server_options.study_label = name;
  if (options_.telemetry != nullptr) {
    server_options.telemetry = options_.telemetry;
  }
  if (durable()) {
    const std::string dir = StudyDir(name);
    std::filesystem::create_directories(dir);
    // The manifest goes down before the server stack: recovery needs the
    // config to rebuild the scheduler, and the journal stores decisions,
    // not configuration. Written once; idempotent across recoveries.
    const std::string manifest_path =
        (std::filesystem::path(dir) / "study.json").string();
    if (!std::filesystem::exists(manifest_path)) {
      Json manifest = JsonObject{};
      manifest.Set("name", Json(name));
      manifest.Set("config", study->config);
      manifest.Set("max_leases",
                   Json(static_cast<std::int64_t>(max_leases)));
      WriteStudyFile(manifest_path, manifest.Dump());
    }
    study->durable = std::make_unique<DurableServer>(
        *study->scheduler, server_options,
        DurabilityOptions{.dir = dir,
                          .sync = options_.sync,
                          .sync_every = options_.sync_every,
                          .snapshot_every = options_.snapshot_every});
    study->service = study->durable.get();
    study->server = &study->durable->server();
  } else {
    study->plain =
        std::make_unique<TuningServer>(*study->scheduler, server_options);
    study->service = study->plain.get();
    study->server = study->plain.get();
  }
  return study;
}

void StudyManager::RecoverStudies() {
  const std::filesystem::path root =
      std::filesystem::path(options_.durability_root) / "studies";
  std::filesystem::create_directories(root);
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (!entry.is_directory()) continue;
    const std::filesystem::path dir = entry.path();
    const std::string name = dir.filename().string();
    if (std::filesystem::exists(dir / "tombstone")) {
      // A delete crashed after its tombstone but before the removal:
      // finish it. The tombstone is the durable commit point.
      std::filesystem::remove_all(dir);
      ++stats_.tombstones_completed;
      continue;
    }
    if (!std::filesystem::exists(dir / "study.json")) {
      // A create crashed before its manifest: the study never durably
      // existed. Clear the debris.
      std::filesystem::remove_all(dir);
      continue;
    }
    const Json manifest =
        ReadJsonFile((dir / "study.json").string());
    HT_CHECK_MSG(manifest.at("name").AsString() == name,
                 "study manifest in " << dir.string() << " names '"
                                      << manifest.at("name").AsString()
                                      << "'");
    auto study = BuildStudy(
        name, manifest.at("config"),
        static_cast<std::size_t>(manifest.at("max_leases").AsInt()));
    HT_CHECK_MSG(study != nullptr,
                 "factory rejected persisted config for study '" << name
                                                                 << "'");
    const std::string state_path = (dir / "state.json").string();
    if (std::filesystem::exists(state_path)) {
      const Json state = ReadJsonFile(state_path);
      if (state.at("suspended").AsBool()) {
        study->suspended = true;
        study->suspended_at = state.at("suspended_at").AsDouble();
        study->server->SetFrozen(true);
      }
    }
    studies_.emplace(name, std::move(study));
    ++stats_.recovered;
  }
}

void StudyManager::WriteStateFile(const Study& study) const {
  Json state = JsonObject{};
  state.Set("suspended", Json(study.suspended));
  state.Set("suspended_at", Json(study.suspended_at));
  const std::string path =
      (std::filesystem::path(StudyDir(study.name)) / "state.json").string();
  WriteStudyFile(path, state.Dump());
}

void StudyManager::EmitAdminEvent(const char* event, const char* counter,
                                  const std::string& study, double now) {
  if (options_.telemetry == nullptr) return;
  options_.telemetry->AdvanceTo(now);
  Json args = JsonObject{};
  args.Set("study", Json(study));
  options_.telemetry->EventAt(now, event, "study", std::move(args));
  options_.telemetry->Count(counter);
}

bool StudyManager::CreateStudy(const std::string& name, const Json& config,
                               double now,
                               std::optional<std::size_t> max_leases) {
  if (!ValidStudyName(name)) return false;
  const std::size_t quota =
      max_leases.value_or(options_.default_max_leases);
  if (studies_.count(name) != 0) return false;
  auto study = BuildStudy(name, config, quota);
  if (study == nullptr) return false;
  studies_.emplace(name, std::move(study));
  ++stats_.created;
  EmitAdminEvent("study_created", "studies.created", name, now);
  return true;
}

bool StudyManager::SuspendStudy(const std::string& name, double now) {
  Study* study = Find(name);
  if (study == nullptr) return false;
  if (study->suspended) return true;  // idempotent
  study->suspended = true;
  study->suspended_at = now;
  // Freeze before anything else can tick: reports and heartbeats are still
  // accepted while suspended (finished work must not be dropped), and the
  // server ticks internally on every message — frozen means those ticks
  // cannot expire the paused leases.
  study->server->SetFrozen(true);
  if (durable()) WriteStateFile(*study);
  ++stats_.suspended;
  EmitAdminEvent("study_suspended", "studies.suspended", name, now);
  return true;
}

bool StudyManager::ResumeStudy(const std::string& name, double now) {
  Study* study = Find(name);
  if (study == nullptr) return false;
  if (!study->suspended) return true;  // idempotent
  // Every open deadline shifts by the pause; the server journals the shift
  // so recovery reproduces it instead of expiring every frozen lease.
  const double delta = now - study->suspended_at;
  if (delta > 0) study->server->ShiftDeadlines(delta, now);
  study->server->SetFrozen(false);
  study->suspended = false;
  study->suspended_at = 0;
  if (durable()) WriteStateFile(*study);
  ++stats_.resumed;
  EmitAdminEvent("study_resumed", "studies.resumed", name, now);
  return true;
}

bool StudyManager::DeleteStudy(const std::string& name, double now) {
  const auto it = studies_.find(name);
  if (it == studies_.end()) return false;
  if (durable()) {
    // Tombstone first: once this write is durable the delete is committed —
    // a crash anywhere after it finishes the removal on recovery. Without
    // it, a crash mid-remove_all could resurrect half a study.
    const std::string marker =
        (std::filesystem::path(StudyDir(name)) / "tombstone").string();
    WriteStudyFile(marker, "{}");
  }
  studies_.erase(it);  // closes the study's journal writer
  if (durable()) std::filesystem::remove_all(StudyDir(name));
  ++stats_.deleted;
  EmitAdminEvent("study_deleted", "studies.deleted", name, now);
  return true;
}

std::vector<StudyInfo> StudyManager::ListStudies() const {
  std::vector<StudyInfo> infos;
  infos.reserve(studies_.size());
  for (const auto& [name, study] : studies_) {
    StudyInfo info;
    info.name = name;
    info.suspended = study->suspended;
    info.max_leases = study->max_leases;
    const ServerStats stats = study->server->stats();
    info.active_leases = stats.active_leases;
    info.jobs_assigned = stats.jobs_assigned;
    info.jobs_completed = stats.jobs_completed;
    infos.push_back(std::move(info));
  }
  return infos;
}

StudyManagerStats StudyManager::stats() const {
  StudyManagerStats stats = stats_;
  stats.studies = studies_.size();
  return stats;
}

std::size_t StudyManager::study_count() const { return studies_.size(); }

TuningServer* StudyManager::FindServer(const std::string& name) {
  Study* study = Find(name);
  return study == nullptr ? nullptr : study->server;
}

Scheduler* StudyManager::FindScheduler(const std::string& name) {
  Study* study = Find(name);
  return study == nullptr ? nullptr : study->scheduler.get();
}

void StudyManager::Tick(double now) {
  // The transport calls this once per idle tick interval, so one pass over
  // the studies costs O(studies) per second, not per message. A suspended
  // study's leases are frozen: the idle-expiry timer must skip it.
  for (const auto& [name, study] : studies_) {
    if (!study->suspended) study->service->Tick(now);
  }
}

Json StudyManager::HandleScoped(const std::string& type, const Json& message,
                                const std::string& study_name, double now) {
  Study* study = Find(study_name);
  if (study == nullptr) {
    ++stats_.unknown_study_errors;
    return ErrorReply("unknown study '" + study_name + "'");
  }
  const bool is_request = IsGrantRequest(message);
  if (is_request && study->suspended) {
    return NoJobReply(options_.server.lease_timeout / 4);
  }
  if (is_request && study->max_leases > 0) {
    // Expire what is due before counting against the quota, so a worker is
    // never starved by leases that are already dead.
    study->service->Tick(now);
    const std::size_t active = study->server->stats().active_leases;
    if (active >= study->max_leases) {
      ++stats_.quota_denials;
      return NoJobReply(options_.server.lease_timeout / 4);
    }
    const std::size_t remaining = study->max_leases - active;
    if (type == "request_jobs") {
      const auto requested = message.at("count").AsInt();
      if (requested >= 1 &&
          static_cast<std::size_t>(requested) > remaining) {
        Json clamped = message;
        clamped.Set("count", Json(static_cast<std::int64_t>(remaining)));
        return study->service->HandleMessage(clamped, now);
      }
    }
  }
  return study->service->HandleMessage(message, now);
}

Json StudyManager::HandleAnyStudy(const std::string& type,
                                  const Json& message, double now) {
  if (!IsGrantRequest(message)) {
    return ErrorReply("study '*' is only valid on job requests");
  }
  const auto worker =
      static_cast<std::uint64_t>(message.at("worker").AsInt());
  std::size_t want = 1;
  if (type == "request_jobs") {
    const auto requested = message.at("count").AsInt();
    HT_CHECK_MSG(requested >= 1,
                 "request_jobs count must be >= 1, got " << requested);
    want = std::min(static_cast<std::size_t>(requested), kMaxBatch);
  }

  Json probe = JsonObject{};
  probe.Set("type", Json("request_job"));
  probe.Set("worker", Json(static_cast<std::int64_t>(worker)));

  Json entries = JsonArray{};
  std::size_t granted = 0;
  // Wrap-around passes from the cursor; each pass offers every ready study
  // at most one grant, and the cursor moves past each study that grants —
  // exact round-robin across ready studies.
  bool progress = true;
  while (granted < want && progress) {
    progress = false;
    auto it = studies_.lower_bound(next_study_);
    for (std::size_t tried = 0; tried < studies_.size() && granted < want;
         ++tried) {
      if (it == studies_.end()) it = studies_.begin();
      Study& study = *it->second;
      ++it;
      if (study.suspended) continue;
      if (study.max_leases > 0 &&
          study.server->stats().active_leases >= study.max_leases) {
        continue;
      }
      Json reply = study.service->HandleMessage(probe, now);
      if (reply.at("type").AsString() != "job") continue;
      Json entry = JsonObject{};
      entry.Set("job_id", reply.at("job_id"));
      entry.Set("job", reply.at("job"));
      entry.Set("study", Json(study.name));
      entries.PushBack(std::move(entry));
      ++granted;
      progress = true;
      // The next probe starts after the study that just granted.
      next_study_ = it == studies_.end() ? studies_.begin()->first : it->first;
    }
  }

  if (granted == 0) return NoJobReply(options_.server.lease_timeout / 4);
  if (type == "request_job") {
    const Json& entry = entries.AsArray().front();
    Json reply = JsonObject{};
    reply.Set("type", Json("job"));
    reply.Set("job_id", entry.at("job_id"));
    reply.Set("job", entry.at("job"));
    reply.Set("lease_timeout", Json(options_.server.lease_timeout));
    reply.Set("study", entry.at("study"));
    return reply;
  }
  Json reply = JsonObject{};
  reply.Set("type", Json("jobs"));
  reply.Set("jobs", std::move(entries));
  reply.Set("lease_timeout", Json(options_.server.lease_timeout));
  if (granted < want) {
    reply.Set("retry_after", Json(options_.server.lease_timeout / 4));
  }
  return reply;
}

Json StudyManager::HandleAdmin(const std::string& type, const Json& message,
                               double now) {
  if (type == "list_studies") {
    Json list = JsonArray{};
    for (const StudyInfo& info : ListStudies()) {
      Json entry = JsonObject{};
      entry.Set("study", Json(info.name));
      entry.Set("state", Json(info.suspended ? "suspended" : "active"));
      entry.Set("max_leases",
                Json(static_cast<std::int64_t>(info.max_leases)));
      entry.Set("active_leases",
                Json(static_cast<std::int64_t>(info.active_leases)));
      entry.Set("jobs_assigned",
                Json(static_cast<std::int64_t>(info.jobs_assigned)));
      entry.Set("jobs_completed",
                Json(static_cast<std::int64_t>(info.jobs_completed)));
      list.PushBack(std::move(entry));
    }
    Json reply = JsonObject{};
    reply.Set("type", Json("studies"));
    reply.Set("studies", std::move(list));
    return reply;
  }

  const std::string& name = message.at("study").AsString();
  if (type == "create_study") {
    if (!ValidStudyName(name)) {
      return ErrorReply("invalid study name '" + name + "'");
    }
    std::optional<std::size_t> max_leases;
    if (message.Has("max_leases")) {
      const auto quota = message.at("max_leases").AsInt();
      HT_CHECK_MSG(quota >= 0, "max_leases must be >= 0, got " << quota);
      max_leases = static_cast<std::size_t>(quota);
    }
    const Json config =
        message.Has("config") ? message.at("config") : Json(JsonObject{});
    if (Find(name) != nullptr) {
      return ErrorReply("study '" + name + "' already exists");
    }
    if (!CreateStudy(name, config, now, max_leases)) {
      // The name was valid and free, so the factory said no.
      return ErrorReply("config rejected for study '" + name + "'");
    }
    return AckReply();
  }
  if (type == "suspend_study") {
    if (!SuspendStudy(name, now)) {
      return ErrorReply("unknown study '" + name + "'");
    }
    return AckReply();
  }
  if (type == "resume_study") {
    if (!ResumeStudy(name, now)) {
      return ErrorReply("unknown study '" + name + "'");
    }
    return AckReply();
  }
  if (type == "delete_study") {
    if (!DeleteStudy(name, now)) {
      return ErrorReply("unknown study '" + name + "'");
    }
    return AckReply();
  }
  return ErrorReply("unknown message type '" + type + "'");
}

Json StudyManager::HandleMessage(const Json& message, double now) {
  // Refused before routing: admin verbs write `now` into state.json and
  // lease events into journals, and neither reads back a non-finite one.
  if (!std::isfinite(now)) return ErrorReply(kNonFiniteTimeError);
  try {
    const std::string& type = message.at("type").AsString();
    if (type == "create_study" || type == "suspend_study" ||
        type == "resume_study" || type == "delete_study" ||
        type == "list_studies") {
      return HandleAdmin(type, message, now);
    }
    const std::string study = message.Has("study")
                                  ? message.at("study").AsString()
                                  : kDefaultStudy;
    if (study == "*") return HandleAnyStudy(type, message, now);
    return HandleScoped(type, message, study, now);
  } catch (const std::exception& error) {
    // Same resilience contract as TuningServer: a hostile payload earns an
    // error reply, never a dead service.
    return ErrorReply(error.what());
  }
}

}  // namespace hypertune
