// Microbenchmarks (google-benchmark) of the durability layer: what does it
// cost to make every scheduler decision crash-safe?
//
// The WAL sits on the request-serving hot path — one framed append per
// grant/report/renew/expire — so its per-record cost bounds server
// throughput under durability. These benches price the append across sync
// policies (the knob deployments actually turn), journal read-back and
// replay (recovery), full snapshot round-trips, and the end-to-end overhead
// of DurableServer::HandleMessage over the plain server. Curated numbers
// live in BENCH_durability.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "core/asha.h"
#include "durability/durable_server.h"
#include "durability/wal.h"
#include "core/sampler.h"
#include "service/server.h"

namespace hypertune {
namespace {

std::filesystem::path ScratchDir() {
  auto dir = std::filesystem::temp_directory_path() / "ht_micro_durability";
  std::filesystem::create_directories(dir);
  return dir;
}

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

AshaScheduler MakeAsha(std::uint64_t max_trials) {
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  options.max_trials = max_trials;
  options.seed = 7;
  return AshaScheduler(MakeRandomSampler(UnitSpace()), options);
}

Json RequestJob(std::uint64_t worker) {
  Json message = JsonObject{};
  message.Set("type", Json("request_job"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  return message;
}

Json Report(std::uint64_t worker, std::int64_t job_id, double loss) {
  Json message = JsonObject{};
  message.Set("type", Json("report"));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  message.Set("job_id", Json(job_id));
  message.Set("loss", Json(loss));
  return message;
}

// Drive request/report cycles against anything with HandleMessage; used to
// compare the plain server with the durable wrapper on identical traffic.
template <typename ServerLike>
void DriveCycles(ServerLike& server, std::size_t cycles, double& now) {
  for (std::size_t i = 0; i < cycles; ++i) {
    now += 0.25;
    const Json reply = server.HandleMessage(RequestJob(0), now);
    if (reply.at("type").AsString() != "job") continue;
    now += 0.25;
    server.HandleMessage(
        Report(0, reply.at("job_id").AsInt(),
               0.1 + 0.001 * static_cast<double>(reply.at("job_id").AsInt())),
        now);
  }
}

// One framed journal append (length + CRC-32 + payload) per iteration,
// across sync policies. kNone measures pure framing+write cost; kEveryN is
// the default deployment setting; kAlways adds an fsync per record and is
// the durability ceiling.
void BM_JournalAppend(benchmark::State& state) {
  const auto policy = static_cast<SyncPolicy>(state.range(0));
  const auto payload_size = static_cast<std::size_t>(state.range(1));
  const std::string payload(payload_size, 'x');
  const auto path = ScratchDir() / "append.log";
  WalWriteOptions options;
  options.sync = policy;
  options.sync_every = 64;
  {
    JournalWriter writer = JournalWriter::Create(path.string(), options);
    for (auto _ : state) {
      writer.Append(payload);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size + 8));
  std::filesystem::remove(path);
}
BENCHMARK(BM_JournalAppend)
    ->ArgsProduct({{static_cast<long>(SyncPolicy::kNone),
                    static_cast<long>(SyncPolicy::kEveryN),
                    static_cast<long>(SyncPolicy::kAlways)},
                   {128}})
    ->ArgNames({"sync", "bytes"});

// Recovery-side cost: read and CRC-validate a journal of N frames. This is
// the fixed price of every restart before replay begins.
void BM_JournalRead(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  const std::string payload(128, 'x');
  const auto path = ScratchDir() / "read.log";
  {
    WalWriteOptions options;
    options.sync = SyncPolicy::kNone;
    JournalWriter writer = JournalWriter::Create(path.string(), options);
    for (std::size_t i = 0; i < frames; ++i) writer.Append(payload);
  }
  for (auto _ : state) {
    JournalReadResult result = ReadJournal(path.string());
    benchmark::DoNotOptimize(result.payloads.size());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_JournalRead)->Arg(256)->Arg(4096);

// Recovery of a DurableServer whose state is an N-record journal and no
// snapshot — the shape serve-durable's studies restart from. Each iteration
// reads the journal, decodes every record and replays it through the
// restored scheduler; records_per_s is the replay rate.
void BM_JournalReplay(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const auto dir = ScratchDir() / "replay";
  std::filesystem::remove_all(dir);
  ServerOptions options;
  options.lease_timeout = 1e9;
  DurabilityOptions durability;
  durability.dir = dir.string();
  durability.sync = SyncPolicy::kNone;
  durability.snapshot_every = static_cast<std::size_t>(1) << 40;
  {
    AshaScheduler asha = MakeAsha(1u << 30);
    DurableServer server(asha, options, durability);
    // A non-dyadic start gives every timestamp its full 17 digits, as a
    // wall clock does.
    double now = 1000.0 / 3.0;
    DriveCycles(server, records / 2, now);  // a grant and a report each
  }
  for (auto _ : state) {
    AshaScheduler asha = MakeAsha(1u << 30);
    DurableServer recovered(asha, options, durability);
    benchmark::DoNotOptimize(recovered.replayed_events());
  }
  state.counters["records_per_s"] =
      benchmark::Counter(static_cast<double>(records),
                         benchmark::Counter::kIsIterationInvariantRate);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalReplay)->Arg(256)->Arg(4096);

// Full server snapshot serialize + parse + restore with T resolved trials:
// the compaction cost paid once every snapshot_every journal records.
void BM_SnapshotRoundTrip(benchmark::State& state) {
  const auto trials = static_cast<std::uint64_t>(state.range(0));
  AshaScheduler asha = MakeAsha(trials);
  ServerOptions options;
  options.lease_timeout = 1e9;
  TuningServer server(asha, options);
  double now = 0.0;
  DriveCycles(server, trials * 2, now);

  for (auto _ : state) {
    const std::string blob = server.Snapshot().Dump();
    // Restore demands a freshly constructed server, exactly like a real
    // recovery — construction is part of the restart cost being measured.
    AshaScheduler target = MakeAsha(trials);
    TuningServer restored(target, options);
    restored.Restore(Json::Parse(blob));
    benchmark::DoNotOptimize(blob.size());
  }
}
BENCHMARK(BM_SnapshotRoundTrip)->Arg(64)->Arg(512);

// End-to-end durability overhead: a request_job+report cycle through the
// plain server vs through DurableServer (one journal append per grant and
// per report). Snapshots are disabled here so the gap is purely the
// journaling cost on the serving path; snapshot/compaction cost scales
// with state size and is priced by BM_SnapshotRoundTrip instead.
void BM_ServeCyclePlain(benchmark::State& state) {
  AshaScheduler asha = MakeAsha(1u << 30);
  ServerOptions options;
  options.lease_timeout = 1e9;
  TuningServer server(asha, options);
  double now = 0.0;
  for (auto _ : state) {
    DriveCycles(server, 1, now);
  }
}
BENCHMARK(BM_ServeCyclePlain);

void BM_ServeCycleDurable(benchmark::State& state) {
  const auto policy = static_cast<SyncPolicy>(state.range(0));
  const auto dir = ScratchDir() / "serve";
  std::filesystem::remove_all(dir);
  AshaScheduler asha = MakeAsha(1u << 30);
  ServerOptions options;
  options.lease_timeout = 1e9;
  DurabilityOptions durability;
  durability.dir = dir.string();
  durability.sync = policy;
  durability.sync_every = 64;
  durability.snapshot_every = static_cast<std::size_t>(1) << 40;
  DurableServer server(asha, options, durability);
  double now = 0.0;
  for (auto _ : state) {
    DriveCycles(server, 1, now);
  }
}
BENCHMARK(BM_ServeCycleDurable)
    ->Arg(static_cast<long>(SyncPolicy::kNone))
    ->Arg(static_cast<long>(SyncPolicy::kEveryN))
    ->Arg(static_cast<long>(SyncPolicy::kAlways))
    ->ArgName("sync");

}  // namespace
}  // namespace hypertune

BENCHMARK_MAIN();
