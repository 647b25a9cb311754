// Durability: the write-ahead journal's framing contract (torn tails and
// bit rot are truncated, never parsed or fatal) and the DurableServer's
// recovery contract (snapshot + journal replay reconstructs the exact
// pre-crash server, byte-for-byte in its decisions).
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/asha.h"
#include "durability/durable_server.h"
#include "durability/wal.h"
#include "fault/fault_fs.h"
#include "registry/registry.h"
#include "service/server.h"

namespace hypertune {
namespace {

std::string TempPath(const std::string& name) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) / "ht_durability";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// Journal framing.

TEST(Wal, RoundTripsPayloads) {
  const std::string path = TempPath("roundtrip.log");
  const std::vector<std::string> payloads = {
      R"({"kind":"grant","job_id":1})", "", "x",
      std::string(5000, 'y'),  // bigger than any one write buffer quirk
  };
  {
    auto writer = JournalWriter::Create(path, {SyncPolicy::kAlways, 1});
    for (const auto& payload : payloads) writer.Append(payload);
    EXPECT_EQ(writer.frames_written(), payloads.size());
  }
  const JournalReadResult result = ReadJournal(path);
  EXPECT_EQ(result.payloads, payloads);
  EXPECT_FALSE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, std::filesystem::file_size(path));
}

TEST(Wal, EmptyJournalIsValid) {
  const std::string path = TempPath("empty.log");
  { auto writer = JournalWriter::Create(path, {}); }
  const JournalReadResult result = ReadJournal(path);
  EXPECT_TRUE(result.payloads.empty());
  EXPECT_FALSE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, JournalMagic().size());
}

TEST(Wal, TornTailIsTruncatedNotParsed) {
  const std::string path = TempPath("torn.log");
  {
    auto writer = JournalWriter::Create(path, {SyncPolicy::kNone, 0});
    writer.Append("first");
    writer.Append("second");
  }
  const auto valid_size = std::filesystem::file_size(path);
  // A crash mid-append: half a frame header, then nothing.
  std::string bytes = ReadRaw(path);
  bytes += std::string("\x09\x00", 2);
  WriteRaw(path, bytes);

  const JournalReadResult torn = ReadJournal(path);
  EXPECT_EQ(torn.payloads, (std::vector<std::string>{"first", "second"}));
  EXPECT_TRUE(torn.truncated_tail);
  EXPECT_EQ(torn.valid_bytes, valid_size);

  // Reopening for append truncates the tail and keeps going.
  {
    auto writer = JournalWriter::Append(path, {}, torn.valid_bytes);
    writer.Append("third");
  }
  const JournalReadResult healed = ReadJournal(path);
  EXPECT_EQ(healed.payloads,
            (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_FALSE(healed.truncated_tail);
}

TEST(Wal, TornPayloadIsTruncated) {
  const std::string path = TempPath("torn_payload.log");
  {
    auto writer = JournalWriter::Create(path, {});
    writer.Append("keep");
  }
  // A full header promising 100 bytes, followed by only 3.
  std::string bytes = ReadRaw(path);
  bytes += std::string("\x64\x00\x00\x00\xde\xad\xbe\xef", 8);
  bytes += "abc";
  WriteRaw(path, bytes);
  const JournalReadResult result = ReadJournal(path);
  EXPECT_EQ(result.payloads, (std::vector<std::string>{"keep"}));
  EXPECT_TRUE(result.truncated_tail);
}

TEST(Wal, CrcCorruptionStopsTheRead) {
  const std::string path = TempPath("corrupt.log");
  {
    auto writer = JournalWriter::Create(path, {});
    writer.Append("alpha");
    writer.Append("bravo");
    writer.Append("charlie");
  }
  // Flip one payload byte of the middle frame: everything from that frame
  // on is dead; everything before it survives.
  std::string bytes = ReadRaw(path);
  const std::size_t pos = bytes.find("bravo");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x01;
  WriteRaw(path, bytes);
  const JournalReadResult result = ReadJournal(path);
  EXPECT_EQ(result.payloads, (std::vector<std::string>{"alpha"}));
  EXPECT_TRUE(result.truncated_tail);
}

TEST(Wal, RejectsForeignFiles) {
  const std::string path = TempPath("foreign.bin");
  WriteRaw(path, "this is not a journal at all");
  EXPECT_THROW(ReadJournal(path), CheckError);
  EXPECT_THROW(ReadJournal(TempPath("missing.log")), CheckError);
}

// ---------------------------------------------------------------------------
// DurableServer recovery.

SearchSpace DurabilitySpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

AshaOptions DurabilityAsha() {
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  options.max_trials = 60;
  options.seed = 5;
  return options;
}

Json RequestJob(std::uint64_t worker) {
  Json message = JsonObject{};
  message.Set("type", Json("request_job"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  return message;
}

Json Report(std::uint64_t worker, std::uint64_t job_id, double loss) {
  Json message = JsonObject{};
  message.Set("type", Json("report"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("job_id", Json(static_cast<std::int64_t>(job_id)));
  message.Set("loss", Json(loss));
  return message;
}

std::string FreshStateDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Drives `steps` request/report cycles at one message per virtual second;
/// returns the virtual time after the last message.
template <typename ServerLike>
double DriveCycles(ServerLike& server, int steps, double now) {
  for (int i = 0; i < steps; ++i) {
    const Json reply = server.HandleMessage(RequestJob(0), now);
    now += 1.0;
    if (reply.at("type").AsString() != "job") continue;
    const auto job_id =
        static_cast<std::uint64_t>(reply.at("job_id").AsInt());
    const double loss =
        0.1 + 0.001 * static_cast<double>(reply.at("job").at("trial").AsInt());
    server.HandleMessage(Report(0, job_id, loss), now);
    now += 1.0;
  }
  return now;
}

TEST(DurableServer, RecoversMidRunAndContinuesIdentically) {
  const std::string dir = FreshStateDir("recover_midrun");
  // Reference: an uninterrupted plain server fed the same messages.
  AshaScheduler ref_scheduler(MakeRandomSampler(DurabilitySpace()),
                              DurabilityAsha());
  TuningServer reference(ref_scheduler, ServerOptions{.lease_timeout = 1e6});
  double ref_now = DriveCycles(reference, 40, 0);

  double now = 0;
  {
    AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                            DurabilityAsha());
    DurableServer durable(scheduler, ServerOptions{.lease_timeout = 1e6},
                          DurabilityOptions{.dir = dir});
    EXPECT_FALSE(durable.recovered());
    now = DriveCycles(durable, 15, now);
    // The server "crashes" here: everything in memory dies with this scope.
  }
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  DurableServer durable(scheduler, ServerOptions{.lease_timeout = 1e6},
                        DurabilityOptions{.dir = dir});
  EXPECT_TRUE(durable.recovered());
  EXPECT_GT(durable.replayed_events(), 0u);
  now = DriveCycles(durable, 25, now);

  ASSERT_EQ(durable.server().run_records().size(),
            reference.run_records().size());
  for (std::size_t i = 0; i < reference.run_records().size(); ++i) {
    const RunRecord& a = reference.run_records()[i];
    const RunRecord& b = durable.server().run_records()[i];
    EXPECT_EQ(a.trial_id, b.trial_id) << "record " << i;
    EXPECT_EQ(a.rung, b.rung) << "record " << i;
    EXPECT_EQ(a.loss, b.loss) << "record " << i;
    EXPECT_EQ(a.lease_id, b.lease_id) << "record " << i;
  }
  EXPECT_EQ(durable.server().stats().jobs_completed,
            reference.stats().jobs_completed);
  ASSERT_TRUE(durable.server().Current().has_value());
  EXPECT_EQ(durable.server().Current()->trial_id,
            reference.Current()->trial_id);
  (void)ref_now;
}

TEST(DurableServer, SnapshotsCompactTheJournalAndPruneOldGenerations) {
  const std::string dir = FreshStateDir("compaction");
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  DurableServer durable(
      scheduler, ServerOptions{.lease_timeout = 1e6},
      DurabilityOptions{.dir = dir, .snapshot_every = 8});
  DriveCycles(durable, 30, 0);
  EXPECT_GT(durable.generation(), 1u);
  // Only the live generation's files remain on disk.
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "-%06llu",
                static_cast<unsigned long long>(durable.generation()));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_NE(name.find(suffix), std::string::npos) << "stale file " << name;
    ++files;
  }
  EXPECT_EQ(files, 2u);  // snapshot + wal of the live generation
}

TEST(DurableServer, RecoversThroughSnapshotPlusJournalTail) {
  const std::string dir = FreshStateDir("snapshot_tail");
  AshaScheduler ref_scheduler(MakeRandomSampler(DurabilitySpace()),
                              DurabilityAsha());
  TuningServer reference(ref_scheduler, ServerOptions{.lease_timeout = 1e6});
  DriveCycles(reference, 40, 0);

  double now = 0;
  std::uint64_t generation = 0;
  {
    AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                            DurabilityAsha());
    DurableServer durable(
        scheduler, ServerOptions{.lease_timeout = 1e6},
        DurabilityOptions{.dir = dir, .snapshot_every = 8});
    now = DriveCycles(durable, 25, now);
    generation = durable.generation();
    EXPECT_GT(generation, 0u);  // the crash lands past a snapshot
  }
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  DurableServer durable(
      scheduler, ServerOptions{.lease_timeout = 1e6},
      DurabilityOptions{.dir = dir, .snapshot_every = 8});
  EXPECT_TRUE(durable.recovered());
  EXPECT_EQ(durable.generation(), generation);
  now = DriveCycles(durable, 15, now);
  ASSERT_EQ(durable.server().run_records().size(),
            reference.run_records().size());
  EXPECT_EQ(durable.server().Current()->trial_id,
            reference.Current()->trial_id);
}

TEST(DurableServer, TruncatesTornJournalTailOnRecovery) {
  const std::string dir = FreshStateDir("torn_recovery");
  double now = 0;
  {
    AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                            DurabilityAsha());
    DurableServer durable(scheduler, ServerOptions{.lease_timeout = 1e6},
                          DurabilityOptions{.dir = dir});
    now = DriveCycles(durable, 10, now);
  }
  // Smash a torn frame onto the journal tail — the crash happened mid-write.
  const std::string wal = (std::filesystem::path(dir) / "wal-000000.log").string();
  ASSERT_TRUE(std::filesystem::exists(wal));
  {
    std::ofstream out(wal, std::ios::binary | std::ios::app);
    out << std::string("\xff\xff\x00\x00garbage", 11);
  }
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  DurableServer durable(scheduler, ServerOptions{.lease_timeout = 1e6},
                        DurabilityOptions{.dir = dir});
  EXPECT_TRUE(durable.recovered());
  EXPECT_TRUE(durable.journal_tail_truncated());
  // The journal is healed: appending and re-recovering works.
  now = DriveCycles(durable, 5, now);
  EXPECT_GT(durable.server().stats().jobs_completed, 0u);
}

TEST(DurableServer, ExpiredLeasesAreJournaledAndReplayed) {
  const std::string dir = FreshStateDir("expiry_replay");
  double now = 0;
  std::size_t expired_before = 0;
  {
    AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                            DurabilityAsha());
    DurableServer durable(scheduler, ServerOptions{.lease_timeout = 5},
                          DurabilityOptions{.dir = dir});
    // Lease a job and let it rot: the worker never reports.
    durable.HandleMessage(RequestJob(0), now);
    now += 100;
    durable.Tick(now);
    expired_before = durable.server().stats().leases_expired;
    EXPECT_EQ(expired_before, 1u);
  }
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  DurableServer durable(scheduler, ServerOptions{.lease_timeout = 5},
                        DurabilityOptions{.dir = dir});
  EXPECT_TRUE(durable.recovered());
  EXPECT_EQ(durable.server().stats().leases_expired, expired_before);
  ASSERT_EQ(durable.server().run_records().size(), 1u);
  EXPECT_TRUE(durable.server().run_records()[0].lost);
}

TEST(DurableServer, RefusesForeignStateDirGracefully) {
  const std::string dir = FreshStateDir("foreign_state");
  std::filesystem::create_directories(dir);
  WriteRaw((std::filesystem::path(dir) / "wal-000000.log").string(),
           "not a journal");
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  EXPECT_THROW(DurableServer(scheduler, ServerOptions{.lease_timeout = 1e6},
                             DurabilityOptions{.dir = dir}),
               CheckError);
}

// Compaction snapshots the scheduler, so one that cannot snapshot is refused
// at construction — before the state dir exists — rather than throwing out
// of HandleMessage once snapshot_every journaled records pile up.
TEST(DurableServer, RefusesExactlyTheSchedulersThatCannotSnapshot) {
  const SearchSpace space = DurabilitySpace();
  std::size_t refused = 0;
  for (const std::string& name : TunerNames()) {
    auto scheduler = MakeTuner(name, {.space = &space, .R = 81}, {});
    const std::string dir = FreshStateDir("snapshot_only_" + name);
    if (scheduler->SupportsSnapshot()) {
      EXPECT_NO_THROW(DurableServer(*scheduler, ServerOptions{},
                                    DurabilityOptions{.dir = dir}))
          << name;
    } else {
      ++refused;
      EXPECT_THROW(DurableServer(*scheduler, ServerOptions{},
                                 DurabilityOptions{.dir = dir}),
                   CheckError)
          << name;
      EXPECT_FALSE(std::filesystem::exists(dir)) << name;
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_LT(refused, TunerNames().size());
}

// ---------------------------------------------------------------------------
// Fault injection: the journal's failure reporting and the DurableServer's
// degraded read-only mode.

/// FileOps whose failures the test arms and disarms mid-run — the unit-test
/// counterpart of the chaos harness's op-indexed FaultFs windows.
class SwitchableOps final : public FileOps {
 public:
  bool fail_writes = false;
  bool fail_fsyncs = false;
  bool fail_renames = false;

  ssize_t Write(int fd, const void* data, std::size_t size) override {
    if (fail_writes) {
      errno = ENOSPC;
      return -1;
    }
    return FileOps::Real().Write(fd, data, size);
  }
  int Fsync(int fd) override {
    if (fail_fsyncs) {
      errno = EIO;
      return -1;
    }
    return FileOps::Real().Fsync(fd);
  }
  int Rename(const char* from, const char* to) override {
    if (fail_renames) {
      errno = ENOSPC;
      return -1;
    }
    return FileOps::Real().Rename(from, to);
  }
  int Truncate(int fd, off_t length) override {
    return FileOps::Real().Truncate(fd, length);
  }
};

TEST(WalFault, EveryNFsyncFailureIsReportedNotIgnored) {
  // Regression: the kEveryN path used to discard ::fsync's return value, so
  // a dying disk degraded the policy to "never sync" silently. Now the
  // failure surfaces as kSyncFailed with the errno preserved.
  const std::string path = TempPath("fsync_fail.log");
  FaultFs fs({{.begin = 0,
               .count = 100,
               .error = EIO,
               .fail_writes = false,
               .fail_fsyncs = true,
               .fail_renames = false,
               .fail_truncates = false}});
  auto writer =
      JournalWriter::TryCreate(path, {SyncPolicy::kEveryN, 2, &fs});
  ASSERT_TRUE(writer.has_value());
  EXPECT_EQ(writer->TryAppend("first"), AppendResult::kOk);  // fsync not due
  EXPECT_EQ(writer->TryAppend("second"), AppendResult::kSyncFailed);
  EXPECT_EQ(writer->last_errno(), EIO);
  EXPECT_FALSE(writer->TrySync());
  writer.reset();  // destructor's best-effort sync also fails; no throw
  // Both frames' bytes reached the file — it was durability, not the
  // write, that failed — so a reader sees them (and must not get them
  // appended twice by any retry).
  const JournalReadResult result = ReadJournal(path);
  EXPECT_EQ(result.payloads, (std::vector<std::string>{"first", "second"}));
}

TEST(WalFault, PartialFrameWriteIsRepairedBeforeTheNextAppend) {
  // A frame torn by ENOSPC mid-write leaves a dirty tail; the next append
  // must truncate it away so later frames never sit behind garbage.
  class PartialThenFailOps final : public FileOps {
   public:
    ssize_t Write(int fd, const void* data, std::size_t size) override {
      const std::size_t index = writes_++;
      if (index == 2) {  // first half of the doomed frame
        return FileOps::Real().Write(fd, data, size > 1 ? size / 2 : size);
      }
      if (index == 3) {  // the rest never lands
        errno = ENOSPC;
        return -1;
      }
      return FileOps::Real().Write(fd, data, size);
    }
    int Fsync(int fd) override { return FileOps::Real().Fsync(fd); }
    int Rename(const char* from, const char* to) override {
      return FileOps::Real().Rename(from, to);
    }
    int Truncate(int fd, off_t length) override {
      ++truncates_;
      return FileOps::Real().Truncate(fd, length);
    }
    std::size_t truncates() const { return truncates_; }

   private:
    std::size_t writes_ = 0;  // op 0 is the header, op 1 the first frame
    std::size_t truncates_ = 0;
  };

  const std::string path = TempPath("partial_frame.log");
  PartialThenFailOps ops;
  auto writer =
      JournalWriter::TryCreate(path, {SyncPolicy::kNone, 0, &ops});
  ASSERT_TRUE(writer.has_value());
  EXPECT_EQ(writer->TryAppend("first"), AppendResult::kOk);
  EXPECT_EQ(writer->TryAppend("second"), AppendResult::kWriteFailed);
  EXPECT_EQ(writer->last_errno(), ENOSPC);
  // The repair truncates the torn half-frame before appending "third".
  EXPECT_EQ(writer->TryAppend("third"), AppendResult::kOk);
  EXPECT_GE(ops.truncates(), 1u);
  writer.reset();
  const JournalReadResult result = ReadJournal(path);
  EXPECT_EQ(result.payloads, (std::vector<std::string>{"first", "third"}));
  EXPECT_FALSE(result.truncated_tail);  // repaired, not merely detected
}

TEST(DurableServerDegraded, EnospcBuffersRecordsAndResumesLosslessly) {
  const std::string dir = FreshStateDir("degraded_enospc");
  SwitchableOps ops;
  std::vector<RunRecord> live_records;
  double now = 0;
  {
    AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                            DurabilityAsha());
    DurableServer durable(scheduler, ServerOptions{.lease_timeout = 1e6},
                          DurabilityOptions{.dir = dir,
                                            .sync = SyncPolicy::kAlways,
                                            .file_ops = &ops});
    now = DriveCycles(durable, 5, now);

    // The disk fills. The message that trips the failure is still applied
    // (apply-then-log), its record buffered, and the mode entered.
    ops.fail_writes = true;
    const Json tripped = durable.HandleMessage(RequestJob(0), now);
    now += 1.0;
    ASSERT_EQ(tripped.at("type").AsString(), "job");
    EXPECT_TRUE(durable.degraded());
    EXPECT_EQ(durable.buffered_records(), 1u);

    // Read-only: new grants are denied with a retry hint...
    const Json denied = durable.HandleMessage(RequestJob(0), now);
    now += 1.0;
    EXPECT_EQ(denied.at("type").AsString(), "no_job");
    EXPECT_TRUE(denied.at("degraded").AsBool());
    EXPECT_EQ(denied.at("retry_after").AsDouble(), kDegradedRetryAfter);

    // ...but the report for the in-flight job is absorbed and buffered.
    const auto job_id =
        static_cast<std::uint64_t>(tripped.at("job_id").AsInt());
    const Json ack = durable.HandleMessage(Report(0, job_id, 0.42), now);
    now += 1.0;
    EXPECT_EQ(ack.at("type").AsString(), "ack");
    EXPECT_EQ(durable.buffered_records(), 2u);

    const DurabilityStats mid = durable.durability_stats();
    EXPECT_EQ(mid.degraded_entered, 1u);
    EXPECT_EQ(mid.degraded_exited, 0u);
    EXPECT_GE(mid.journal_write_failures, 1u);
    EXPECT_GE(mid.grants_denied, 1u);
    EXPECT_EQ(mid.records_buffered, 2u);

    // Space returns: the next message re-appends the buffer in order,
    // fsyncs, exits the mode, and grants flow again.
    ops.fail_writes = false;
    const Json granted = durable.HandleMessage(RequestJob(0), now);
    now += 1.0;
    EXPECT_EQ(granted.at("type").AsString(), "job");
    EXPECT_FALSE(durable.degraded());
    EXPECT_EQ(durable.buffered_records(), 0u);
    EXPECT_EQ(durable.durability_stats().degraded_exited, 1u);
    durable.HandleMessage(
        Report(0, static_cast<std::uint64_t>(granted.at("job_id").AsInt()),
               0.43),
        now);
    now += 1.0;
    now = DriveCycles(durable, 3, now);
    live_records = durable.server().run_records();
  }

  // Recovery replays the buffered-then-flushed records: the blip cost the
  // study nothing.
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  DurableServer recovered(scheduler, ServerOptions{.lease_timeout = 1e6},
                          DurabilityOptions{.dir = dir});
  EXPECT_TRUE(recovered.recovered());
  ASSERT_EQ(recovered.server().run_records().size(), live_records.size());
  for (std::size_t i = 0; i < live_records.size(); ++i) {
    EXPECT_EQ(recovered.server().run_records()[i].trial_id,
              live_records[i].trial_id)
        << "record " << i;
    EXPECT_EQ(recovered.server().run_records()[i].loss, live_records[i].loss)
        << "record " << i;
  }
}

TEST(DurableServerDegraded, FsyncFailureDegradesWithoutDuplicatingRecords) {
  const std::string dir = FreshStateDir("degraded_fsync");
  SwitchableOps ops;
  std::size_t live_count = 0;
  double now = 0;
  {
    AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                            DurabilityAsha());
    DurableServer durable(scheduler, ServerOptions{.lease_timeout = 1e6},
                          DurabilityOptions{.dir = dir,
                                            .sync = SyncPolicy::kAlways,
                                            .file_ops = &ops});
    now = DriveCycles(durable, 3, now);

    // The device starts failing fsync: bytes append, durability doesn't.
    // The record must NOT be buffered — its frame is already in the file,
    // and re-appending it would duplicate the event on replay.
    ops.fail_fsyncs = true;
    const Json tripped = durable.HandleMessage(RequestJob(0), now);
    now += 1.0;
    ASSERT_EQ(tripped.at("type").AsString(), "job");
    EXPECT_TRUE(durable.degraded());
    EXPECT_EQ(durable.buffered_records(), 0u);
    EXPECT_GE(durable.durability_stats().journal_sync_failures, 1u);
    const Json denied = durable.HandleMessage(RequestJob(0), now);
    now += 1.0;
    EXPECT_EQ(denied.at("type").AsString(), "no_job");

    // fsync recovers; the probe syncs the appended tail and exits.
    ops.fail_fsyncs = false;
    const Json granted = durable.HandleMessage(RequestJob(0), now);
    now += 1.0;
    EXPECT_EQ(granted.at("type").AsString(), "job");
    EXPECT_FALSE(durable.degraded());
    now = DriveCycles(durable, 3, now);
    live_count = durable.server().run_records().size();
  }
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  DurableServer recovered(scheduler, ServerOptions{.lease_timeout = 1e6},
                          DurabilityOptions{.dir = dir});
  EXPECT_TRUE(recovered.recovered());
  // Exactly the live record count: the sync-failed frame exists once.
  EXPECT_EQ(recovered.server().run_records().size(), live_count);
}

TEST(DurableServerDegraded, SnapshotFailureIsSoftAndRetried) {
  const std::string dir = FreshStateDir("degraded_snapshot");
  SwitchableOps ops;
  AshaScheduler scheduler(MakeRandomSampler(DurabilitySpace()),
                          DurabilityAsha());
  DurableServer durable(scheduler, ServerOptions{.lease_timeout = 1e6},
                        DurabilityOptions{.dir = dir,
                                          .sync = SyncPolicy::kAlways,
                                          .snapshot_every = 6,
                                          .file_ops = &ops});
  // Every snapshot boundary fails at the atomic rename; journaling and
  // serving continue — the current generation still recovers everything.
  ops.fail_renames = true;
  double now = DriveCycles(durable, 6, 0);
  EXPECT_EQ(durable.generation(), 0u);
  EXPECT_GE(durable.durability_stats().snapshot_failures, 1u);
  EXPECT_FALSE(durable.degraded());
  EXPECT_GT(durable.server().stats().jobs_completed, 0u);

  // The next boundary after the disk heals compacts as usual.
  ops.fail_renames = false;
  DriveCycles(durable, 4, now);
  EXPECT_GE(durable.generation(), 1u);
}

}  // namespace
}  // namespace hypertune
