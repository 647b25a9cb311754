#include "durability/durable_server.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace hypertune {

namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HT_CHECK_MSG(in.good(), "cannot read '" << path << "'");
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string GenerationName(const char* prefix, std::uint64_t generation,
                           const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%06llu%s", prefix,
                static_cast<unsigned long long>(generation), suffix);
  return buf;
}

/// Parses "<prefix>NNNNNN<suffix>" into NNNNNN, or nullopt.
std::optional<std::uint64_t> ParseGeneration(const std::string& name,
                                             std::string_view prefix,
                                             std::string_view suffix) {
  if (name.size() != prefix.size() + 6 + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t generation = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 6; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    generation = generation * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return generation;
}

}  // namespace

bool WriteFileDurably(FileOps& ops, const std::string& path,
                      const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < content.size()) {
    const ssize_t n = ops.Write(fd, content.data() + written,
                                content.size() - written);
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  const bool durable = written == content.size() && ops.Fsync(fd) == 0;
  ::close(fd);
  if (!durable || ops.Rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

ServerOptions DurableServer::WithJournal(ServerOptions options,
                                         JournalSink* sink) {
  HT_CHECK_MSG(options.journal == nullptr,
               "DurableServer installs its own journal sink");
  options.journal = sink;
  return options;
}

DurableServer::DurableServer(Scheduler& scheduler,
                             ServerOptions server_options,
                             DurabilityOptions durability)
    : server_(scheduler, WithJournal(std::move(server_options), this)),
      durability_(std::move(durability)) {
  // Compaction snapshots the scheduler every snapshot_every records; one
  // that cannot snapshot would throw mid-message after its grant was
  // already journaled, so refuse it before anything touches the disk.
  HT_CHECK_MSG(scheduler.SupportsSnapshot(),
               "durable serving needs a scheduler that supports snapshots; "
                   << scheduler.name() << " does not");
  HT_CHECK_MSG(!durability_.dir.empty(), "DurabilityOptions::dir is required");
  HT_CHECK(durability_.snapshot_every > 0);
  std::filesystem::create_directories(durability_.dir);
  recovered_ = Recover();
  if (!recovered_) {
    // Fresh start: generation 0 has no snapshot, only a journal.
    writer_.emplace(JournalWriter::Create(JournalPath(0), WalOptions()));
  }
}

WalWriteOptions DurableServer::WalOptions() const {
  return WalWriteOptions{durability_.sync, durability_.sync_every,
                         durability_.file_ops};
}

void DurableServer::Count(const char* name) {
  if (durability_.telemetry != nullptr) durability_.telemetry->Count(name);
}

std::string DurableServer::SnapshotPath(std::uint64_t generation) const {
  return (std::filesystem::path(durability_.dir) /
          GenerationName("snapshot-", generation, ".json"))
      .string();
}

std::string DurableServer::JournalPath(std::uint64_t generation) const {
  return (std::filesystem::path(durability_.dir) /
          GenerationName("wal-", generation, ".log"))
      .string();
}

bool DurableServer::Recover() {
  // The highest generation wins, whether it is identified by its snapshot
  // or its journal: a crash between writing snapshot-(g+1) and creating
  // wal-(g+1) leaves the snapshot as the only witness of the generation.
  std::optional<std::uint64_t> latest;
  for (const auto& entry :
       std::filesystem::directory_iterator(durability_.dir)) {
    const std::string name = entry.path().filename().string();
    auto generation = ParseGeneration(name, "snapshot-", ".json");
    if (!generation) generation = ParseGeneration(name, "wal-", ".log");
    if (!generation) continue;
    if (!latest || *generation > *latest) latest = *generation;
  }
  if (!latest) return false;

  generation_ = *latest;
  const std::string snapshot_path = SnapshotPath(generation_);
  if (std::filesystem::exists(snapshot_path)) {
    server_.Restore(Json::Parse(ReadWholeFile(snapshot_path)));
  } else {
    HT_CHECK_MSG(generation_ == 0,
                 "generation " << generation_
                               << " has a journal but no snapshot");
  }

  const WalWriteOptions wal_options = WalOptions();
  const std::string journal_path = JournalPath(generation_);
  if (!std::filesystem::exists(journal_path)) {
    // Crash window between snapshot write and journal creation: the
    // snapshot already holds everything, so the generation starts with an
    // empty journal.
    writer_.emplace(JournalWriter::Create(journal_path, wal_options));
    return true;
  }

  JournalReadResult journal = ReadJournal(journal_path);
  journal_tail_truncated_ = journal.truncated_tail;
  for (const std::string& payload : journal.payloads) {
    server_.ReplayJournalEvent(Json::Parse(payload));
    ++replayed_events_;
  }
  // Reopen for appending; a torn tail is truncated here, so the events the
  // crash half-wrote never exist as far as any future reader can tell.
  writer_.emplace(
      JournalWriter::Append(journal_path, wal_options, journal.valid_bytes));
  return true;
}

Json DurableServer::HandleMessage(const Json& message, double now) {
  TryResumeJournal();
  if (degraded_ && IsGrantRequest(message)) {
    // Read-only: a grant the journal cannot record would be a decision the
    // recovered server never made. Heartbeats and reports still flow —
    // their records buffer — so in-flight work is not thrown away.
    ++stats_.grants_denied;
    Count("durability.grants_denied");
    Json reply = NoJobReply(kDegradedRetryAfter);
    reply.Set("degraded", Json(true));
    return reply;
  }
  Json reply = server_.HandleMessage(message, now);
  MaybeSnapshot();
  return reply;
}

void DurableServer::Tick(double now) {
  TryResumeJournal();
  server_.Tick(now);
  MaybeSnapshot();
}

void DurableServer::EnterDegraded() {
  if (degraded_) return;
  degraded_ = true;
  ++stats_.degraded_entered;
  Count("durability.degraded_entered");
}

void DurableServer::TryResumeJournal() {
  if (!degraded_ || !writer_) return;
  while (!buffered_.empty()) {
    switch (writer_->TryAppend(buffered_.front())) {
      case AppendResult::kOk:
        buffered_.pop_front();
        ++records_since_snapshot_;
        continue;
      case AppendResult::kSyncFailed:
        // The frame's bytes landed (pop it — re-appending would duplicate
        // it on replay) but durability is still pending; stay degraded.
        buffered_.pop_front();
        ++records_since_snapshot_;
        ++stats_.journal_sync_failures;
        Count("durability.journal_sync_failures");
        return;
      case AppendResult::kWriteFailed:
        ++stats_.journal_write_failures;
        Count("durability.journal_write_failures");
        return;  // still unwritable; probe again on the next message/tick
    }
  }
  if (!writer_->TrySync()) {
    ++stats_.journal_sync_failures;
    Count("durability.journal_sync_failures");
    return;
  }
  degraded_ = false;
  ++stats_.degraded_exited;
  Count("durability.degraded_exited");
}

void DurableServer::JournalRecord(Json record) {
  if (!writer_) return;  // only during recovery, which never journals
  std::string payload = record.Dump();
  if (degraded_) {
    buffered_.push_back(std::move(payload));
    ++stats_.records_buffered;
    Count("durability.records_buffered");
    return;
  }
  switch (writer_->TryAppend(payload)) {
    case AppendResult::kOk:
      ++records_since_snapshot_;
      return;
    case AppendResult::kWriteFailed:
      // The frame never reached the journal: buffer it (order preserved)
      // and degrade instead of crashing mid-message.
      ++stats_.journal_write_failures;
      Count("durability.journal_write_failures");
      EnterDegraded();
      buffered_.push_back(std::move(payload));
      ++stats_.records_buffered;
      Count("durability.records_buffered");
      return;
    case AppendResult::kSyncFailed:
      // The frame is appended but not yet durable; degrade until an fsync
      // succeeds. Nothing to buffer.
      ++stats_.journal_sync_failures;
      Count("durability.journal_sync_failures");
      ++records_since_snapshot_;
      EnterDegraded();
      return;
  }
}

void DurableServer::JournalAuxiliary(const Json& event) {
  HT_CHECK_MSG(event.Has("kind") && event.at("kind").AsString() == "hazard",
               "auxiliary journal records must carry kind \"hazard\"");
  JournalRecord(event);
}

void DurableServer::MaybeSnapshot() {
  // While degraded the current snapshot+journal are the only recovery
  // story; compaction resumes with durability.
  if (degraded_) return;
  if (records_since_snapshot_ >= durability_.snapshot_every) TakeSnapshot();
}

void DurableServer::TakeSnapshot() {
  HT_CHECK(writer_.has_value());
  // Make the current journal durable before superseding it: until the new
  // generation's files both exist, recovery still runs through this one.
  if (!writer_->TrySync()) {
    ++stats_.journal_sync_failures;
    Count("durability.journal_sync_failures");
    EnterDegraded();
    return;
  }
  const std::uint64_t next = generation_ + 1;
  FileOps& ops = durability_.file_ops != nullptr ? *durability_.file_ops
                                                 : FileOps::Real();
  if (!WriteFileDurably(ops, SnapshotPath(next), server_.Snapshot().Dump())) {
    // Non-fatal: the current generation still recovers everything. Counted
    // and retried at the next snapshot boundary.
    ++stats_.snapshot_failures;
    Count("durability.snapshot_failures");
    return;
  }
  auto writer = JournalWriter::TryCreate(JournalPath(next), WalOptions());
  if (!writer) {
    // The snapshot exists but its journal does not — and this server will
    // keep appending to the OLD generation, which recovery would ignore in
    // favor of the newer snapshot. Remove the snapshot to keep the highest
    // generation on disk the one being written to.
    std::error_code ec;
    std::filesystem::remove(SnapshotPath(next), ec);
    HT_CHECK_MSG(!ec, "cannot remove orphaned snapshot "
                          << SnapshotPath(next));
    ++stats_.snapshot_failures;
    Count("durability.snapshot_failures");
    return;
  }
  writer_.emplace(std::move(*writer));
  generation_ = next;
  records_since_snapshot_ = 0;
  PruneBefore(next);
}

void DurableServer::PruneBefore(std::uint64_t keep) {
  std::error_code ec;
  std::vector<std::filesystem::path> stale;
  for (const auto& entry :
       std::filesystem::directory_iterator(durability_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    auto generation = ParseGeneration(name, "snapshot-", ".json");
    if (!generation) generation = ParseGeneration(name, "wal-", ".log");
    if (generation && *generation < keep) stale.push_back(entry.path());
  }
  for (const auto& path : stale) std::filesystem::remove(path, ec);
}

}  // namespace hypertune
