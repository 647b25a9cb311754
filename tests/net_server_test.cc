// NetServer integration: a real ASHA study over loopback TCP (binary and
// JSON transports) lands on the same decisions as in-process, idle leases
// expire (and are journaled) with zero inbound traffic, malformed frames
// are accounted without taking the loop down, and graceful shutdown pushes
// workers into the PR-5 backoff path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/asha.h"
#include "fault/fault.h"
#include "core/random_search.h"
#include "core/trial_json.h"
#include "durability/durable_server.h"
#include "net/codec.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "service/server.h"
#include "service/worker.h"
#include "study/study_manager.h"
#include "telemetry/telemetry.h"

namespace hypertune {
namespace {

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

class RankEnv final : public JobEnvironment {
 public:
  double Loss(const Configuration& config, Resource resource) override {
    return config.GetDouble("x") * (1.0 + 1.0 / resource);
  }
  double Duration(const Configuration&, Resource from, Resource to) override {
    return to - from;
  }
};

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

/// Polls `predicate` until it holds or `seconds` elapse — the loop thread
/// publishes stats asynchronously, so tests wait instead of sleeping blind.
bool WaitFor(const std::function<bool()>& predicate, double seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

/// Bare socket speaking raw bytes — for injecting malformed frames the
/// NetWorkerClient would never produce.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    HT_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    HT_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    HT_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0);
    timeval timeout{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~RawClient() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void SendAll(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Next binary frame off the wire (decoded client-side), or nullopt on
  /// EOF/timeout.
  std::optional<WireFrame> RecvFrame() {
    for (;;) {
      if (auto frame = decoder_.Next()) return frame;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      decoder_.Feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
  }

  /// Next newline-terminated JSON line, or nullopt on EOF/timeout.
  std::optional<std::string> RecvLine() {
    for (;;) {
      const std::size_t newline = line_buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = line_buffer_.substr(0, newline);
        line_buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      line_buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True once the peer sends FIN (reads drained to EOF).
  bool ReadToEof() {
    for (;;) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout: no FIN
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::string line_buffer_;
};

// --- Transport equivalence: one study, three transports, same decisions ---

struct StudyResult {
  std::string snapshot;  // TuningServer::Snapshot().Dump()
  bool finished = false;
  std::size_t leases_expired = 0;
  std::size_t jobs_completed = 0;
};

/// Runs the deterministic 8-worker ASHA study from service_test's
/// end-to-end harness, either in-process (transport unset) or through a
/// real NetServer over loopback TCP.
StudyResult RunStudy(std::optional<WireTransport> transport) {
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  options.max_trials = 40;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(asha, {.lease_timeout = 30});

  std::optional<NetServer> net;
  std::vector<std::unique_ptr<ServerConnection>> connections;
  if (transport.has_value()) {
    NetServerOptions net_options;
    net_options.clock = NetClock::kMessage;  // envelope time drives the study
    net.emplace(server, net_options);
    net->Start();
    for (int i = 0; i < 8; ++i) {
      connections.push_back(std::make_unique<NetWorkerClient>(
          "127.0.0.1", net->port(), NetClientOptions{.transport = *transport}));
    }
  } else {
    for (int i = 0; i < 8; ++i) {
      connections.push_back(std::make_unique<DirectConnection>(&server));
    }
  }

  RankEnv env;
  std::vector<SimulatedWorker> workers;
  for (std::uint64_t i = 0; i < 8; ++i) {
    workers.emplace_back(i, env, /*heartbeat_interval=*/5);
  }
  for (double now = 0; now < 200; now += 0.5) {
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (now >= workers[i].next_action_time()) {
        workers[i].OnTick(*connections[i], now);
      }
    }
  }
  if (net.has_value()) net->Stop();  // joins the loop; server safe to inspect

  StudyResult result;
  result.snapshot = server.Snapshot().Dump();
  result.finished = asha.Finished();
  result.leases_expired = server.stats().leases_expired;
  result.jobs_completed = server.stats().jobs_completed;
  return result;
}

TEST(NetLoopback, AshaStudyIsTransportInvariant) {
  const StudyResult inproc = RunStudy(std::nullopt);
  ASSERT_TRUE(inproc.finished);
  ASSERT_EQ(inproc.leases_expired, 0u);
  ASSERT_GT(inproc.jobs_completed, 40u);

  const StudyResult binary = RunStudy(WireTransport::kBinary);
  EXPECT_TRUE(binary.finished);
  EXPECT_EQ(binary.leases_expired, 0u);
  EXPECT_EQ(binary.jobs_completed, inproc.jobs_completed);
  // The whole point of the wire layer: byte-identical server state.
  EXPECT_EQ(binary.snapshot, inproc.snapshot);

  const StudyResult json = RunStudy(WireTransport::kJson);
  EXPECT_TRUE(json.finished);
  EXPECT_EQ(json.jobs_completed, inproc.jobs_completed);
  EXPECT_EQ(json.snapshot, inproc.snapshot);
}

// --- Idle expiry: the timer satellite ---

TEST(NetIdleExpiry, LeaseExpiresAndIsJournaledWithZeroTraffic) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "ht_net_idle_expiry";
  fs::remove_all(dir);

  RandomSearchOptions options;
  options.R = 10;
  std::int64_t trial_id = -1;
  {
    RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
    DurableServer durable(scheduler, {.lease_timeout = 0.1},
                          {.dir = dir.string(), .sync = SyncPolicy::kAlways});
    NetServerOptions net_options;
    net_options.clock = NetClock::kWall;
    net_options.tick_interval = 0.02;
    NetServer net(durable, net_options);
    net.Start();

    NetWorkerClient client("127.0.0.1", net.port());
    const auto reply = client.Send(RequestJob(1), 0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->at("type").AsString(), "job");
    trial_id = JobFromJson(reply->at("job")).trial_id;

    // Total silence from here on: no heartbeat, no report, no traffic at
    // all. Only the server-side timer can expire the lease.
    ASSERT_TRUE(WaitFor([&] { return net.stats().timer_ticks >= 15; }));
    net.Stop();

    EXPECT_GT(net.stats().timer_ticks, 0u);
    EXPECT_EQ(durable.server().stats().leases_expired, 1u);
    EXPECT_EQ(durable.server().stats().active_leases, 0u);
    EXPECT_EQ(scheduler.trials().Get(trial_id).status, TrialStatus::kLost);
  }

  // The expiry reached the journal: a recovery from the state dir replays
  // it and sees the lost trial without any live server involved.
  RandomSearchScheduler recovered_scheduler(MakeRandomSampler(UnitSpace()),
                                            options);
  DurableServer recovered(recovered_scheduler, {.lease_timeout = 0.1},
                          {.dir = dir.string()});
  EXPECT_TRUE(recovered.recovered());
  EXPECT_GE(recovered.replayed_events(), 2u);  // grant + expire
  EXPECT_EQ(recovered_scheduler.trials().Get(trial_id).status,
            TrialStatus::kLost);
  fs::remove_all(dir);
}

TEST(NetStudyIdleExpiry, SuspendedStudyLeasesSurviveTheIdleTimer) {
  // The idle-expiry satellite: NetServer's timer ticks route through the
  // StudyManager, which must skip suspended studies — their leases are
  // frozen, not expired — while still expiring the rest of the fleet.
  StudyManagerOptions options;
  options.server.lease_timeout = 0.1;
  options.default_config = Json();
  StudyManager manager(MakeStudySchedulerFactory(UnitSpace()), options);
  Json config = JsonObject{};
  config.Set("kind", Json("random"));
  ASSERT_TRUE(manager.CreateStudy("frozen", config, 0.0));
  ASSERT_TRUE(manager.CreateStudy("running", config, 0.0));

  NetServerOptions net_options;
  net_options.clock = NetClock::kWall;
  net_options.tick_interval = 0.02;
  NetServer net(manager, net_options);
  net.Start();
  NetWorkerClient client("127.0.0.1", net.port());

  const auto lease = [&](const std::string& study) {
    Json request = RequestJob(1);
    request.Set("study", Json(study));
    const auto reply = client.Send(request, 0);
    HT_CHECK(reply.has_value());
    HT_CHECK(reply->at("type").AsString() == "job");
  };
  lease("frozen");
  lease("running");
  {
    Json suspend = JsonObject{};
    suspend.Set("type", Json("suspend_study"));
    suspend.Set("study", Json("frozen"));
    const auto reply = client.Send(suspend, 0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->at("type").AsString(), "ack");
  }

  // Per-study lease counts, read through the protocol — the loop thread
  // owns the service, so the test observes it via list_studies only.
  const auto active_leases = [&](const std::string& study) -> std::int64_t {
    Json list = JsonObject{};
    list.Set("type", Json("list_studies"));
    const auto reply = client.Send(list, 0);
    HT_CHECK(reply.has_value());
    for (const Json& entry : reply->at("studies").AsArray()) {
      if (entry.at("study").AsString() == study) {
        return entry.at("active_leases").AsInt();
      }
    }
    return -1;
  };

  // The idle timer expires the running study's lease in a few ticks...
  ASSERT_TRUE(WaitFor([&] { return active_leases("running") == 0; }));
  // ...while the suspended study's lease outlives many more ticks.
  const std::size_t ticks = net.stats().timer_ticks;
  ASSERT_TRUE(WaitFor([&] { return net.stats().timer_ticks >= ticks + 10; }));
  EXPECT_EQ(active_leases("frozen"), 1);

  // Resume: the deadline shifts by the pause, so the wall clock catches up
  // with it shortly after and the timer finally expires it.
  Json resume = JsonObject{};
  resume.Set("type", Json("resume_study"));
  resume.Set("study", Json("frozen"));
  const auto reply = client.Send(resume, 0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->at("type").AsString(), "ack");
  EXPECT_TRUE(WaitFor([&] { return active_leases("frozen") == 0; }));

  net.Stop();
  TuningServer* frozen = manager.FindServer("frozen");
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->stats().leases_expired, 1u);
}

// --- Malformed-frame robustness ---

struct MalformedHarness {
  RandomSearchOptions options;
  RandomSearchScheduler scheduler;
  TuningServer server;
  NetServer net;

  MalformedHarness()
      : options{.R = 10},
        scheduler(MakeRandomSampler(UnitSpace()), options),
        server(scheduler, {.lease_timeout = 60}),
        net(server, {}) {
    net.Start();
  }
};

TEST(NetMalformed, BadMagicGetsErrorReplyThenClose) {
  MalformedHarness h;
  RawClient raw(h.net.port());
  raw.SendAll("XXXX garbage that is definitely not a frame header....");
  const auto reply = raw.RecvFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, WireType::kError);
  EXPECT_EQ(DecodeMessage(*reply).message.at("type").AsString(), "error");
  EXPECT_TRUE(raw.ReadToEof());  // server closed cleanly after the reply
  ASSERT_TRUE(WaitFor([&] { return h.net.stats().connections_closed >= 1; }));
  EXPECT_EQ(h.net.stats().frames_bad_magic, 1u);
}

TEST(NetMalformed, WrongVersionGetsErrorReplyThenClose) {
  MalformedHarness h;
  std::string frame = EncodeMessage(RequestJob(1), 0);
  frame[4] = static_cast<char>(kWireVersion + 1);
  RawClient raw(h.net.port());
  raw.SendAll(frame);
  const auto reply = raw.RecvFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, WireType::kError);
  EXPECT_TRUE(raw.ReadToEof());
  ASSERT_TRUE(WaitFor([&] { return h.net.stats().connections_closed >= 1; }));
  EXPECT_EQ(h.net.stats().frames_bad_version, 1u);
  // The bad frame never reached the service.
  EXPECT_EQ(h.server.stats().jobs_assigned, 0u);
}

TEST(NetMalformed, OversizedLengthGetsErrorReplyThenClose) {
  MalformedHarness h;
  WireWriter header;
  header.U32(kFrameMagic);
  header.U16(kWireVersion);
  header.U16(static_cast<std::uint16_t>(WireType::kRequestJob));
  header.U32(kMaxFramePayload + 1);
  header.U32(0);
  RawClient raw(h.net.port());
  raw.SendAll(header.bytes());
  const auto reply = raw.RecvFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, WireType::kError);
  EXPECT_TRUE(raw.ReadToEof());
  ASSERT_TRUE(WaitFor([&] { return h.net.stats().frames_oversized >= 1; }));
  EXPECT_EQ(h.net.stats().frames_oversized, 1u);
}

TEST(NetMalformed, CrcMismatchSkipsFrameAndConnectionSurvives) {
  MalformedHarness h;
  std::string corrupt = EncodeMessage(Report(1, 99, 0.5), 0);
  corrupt.back() ^= 0x01;
  RawClient raw(h.net.port());
  raw.SendAll(corrupt + EncodeMessage(RequestJob(1), 1.0));
  // First reply: the error for the corrupt frame. Second: a real job grant
  // on the SAME connection — the stream stayed framed.
  const auto error_reply = raw.RecvFrame();
  ASSERT_TRUE(error_reply.has_value());
  EXPECT_EQ(error_reply->type, WireType::kError);
  const auto job_reply = raw.RecvFrame();
  ASSERT_TRUE(job_reply.has_value());
  EXPECT_EQ(job_reply->type, WireType::kJob);
  EXPECT_EQ(h.net.stats().frames_bad_crc, 1u);
  EXPECT_EQ(h.net.stats().messages_handled, 1u);
  EXPECT_EQ(h.net.stats().messages_rejected, 1u);
  EXPECT_EQ(h.net.stats().connections_closed, 0u);
}

TEST(NetMalformed, TruncatedTailIsAccountedOnDisconnect) {
  MalformedHarness h;
  const std::string frame = EncodeMessage(RequestJob(1), 0);
  {
    RawClient raw(h.net.port());
    raw.SendAll(std::string_view(frame).substr(0, frame.size() - 3));
    // Wait until the bytes reached the loop before cutting the connection,
    // or the truncation could race the close.
    ASSERT_TRUE(
        WaitFor([&] { return h.net.stats().connections_accepted >= 1; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(WaitFor([&] { return h.net.stats().frames_truncated >= 1; }));
  EXPECT_EQ(h.net.stats().messages_handled, 0u);
}

TEST(NetMalformed, UnknownFrameTypeRejectedConnectionSurvives) {
  MalformedHarness h;
  WireWriter payload;
  payload.F64(0.0);  // well-formed `now`, bogus type
  RawClient raw(h.net.port());
  raw.SendAll(EncodeFrame(static_cast<WireType>(999), payload.bytes()));
  const auto error_reply = raw.RecvFrame();
  ASSERT_TRUE(error_reply.has_value());
  EXPECT_EQ(error_reply->type, WireType::kError);
  // Framing was fine, so the connection lives: a valid request still works.
  raw.SendAll(EncodeMessage(RequestJob(1), 1.0));
  const auto job_reply = raw.RecvFrame();
  ASSERT_TRUE(job_reply.has_value());
  EXPECT_EQ(job_reply->type, WireType::kJob);
  EXPECT_EQ(h.net.stats().messages_rejected, 1u);
  EXPECT_EQ(h.net.stats().connections_closed, 0u);
}

TEST(NetMalformed, UnparseableJsonLineRejectedConnectionSurvives) {
  MalformedHarness h;
  RawClient raw(h.net.port());
  raw.SendAll("{this is not json\n");
  const auto error_line = raw.RecvLine();
  ASSERT_TRUE(error_line.has_value());
  EXPECT_EQ(DecodeJsonLine(*error_line).message.at("type").AsString(),
            "error");
  raw.SendAll(EncodeJsonLine(RequestJob(1), 1.0));
  const auto job_line = raw.RecvLine();
  ASSERT_TRUE(job_line.has_value());
  EXPECT_EQ(DecodeJsonLine(*job_line).message.at("type").AsString(), "job");
  EXPECT_EQ(h.net.stats().messages_rejected, 1u);
  EXPECT_EQ(h.net.stats().connections_closed, 0u);
}

// Under the message clock the frame's f64 `now` becomes protocol time. A
// non-finite one is rejected before it can: a NaN would reach the journal
// as "now":null (unrecoverable), and an infinity would stick as the idle
// tick's clock and expire every lease.
TEST(NetMalformed, NonFiniteMessageTimeIsRejectedBeforeItBecomesTheClock) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "ht_net_non_finite";
  fs::remove_all(dir);
  RandomSearchOptions options;
  options.R = 10;
  {
    RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
    DurableServer durable(scheduler, {.lease_timeout = 60},
                          {.dir = dir.string()});
    NetServerOptions net_options;
    net_options.clock = NetClock::kMessage;
    net_options.tick_interval = 0.01;
    NetServer net(durable, net_options);
    net.Start();
    RawClient raw(net.port());

    raw.SendAll(EncodeMessage(RequestJob(1), 1.0));
    const auto grant = raw.RecvFrame();
    ASSERT_TRUE(grant.has_value());
    ASSERT_EQ(grant->type, WireType::kJob);
    const std::int64_t job_id =
        DecodeMessage(*grant).message.at("job_id").AsInt();
    Json heartbeat = JsonObject{};
    heartbeat.Set("type", Json("heartbeat"));
    heartbeat.Set("worker", Json(std::int64_t{1}));
    heartbeat.Set("job_id", Json(job_id));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    raw.SendAll(EncodeMessage(RequestJob(2), nan) +
                EncodeMessage(RequestJob(2), inf) +
                EncodeMessage(heartbeat, -inf) +
                EncodeMessage(Report(1, job_id, 0.5), inf));
    for (int i = 0; i < 4; ++i) {
      const auto reply = raw.RecvFrame();
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, WireType::kError);
      EXPECT_EQ(DecodeMessage(*reply).message.at("message").AsString(),
                kNonFiniteTimeError);
    }
    // Idle ticks keep running at the last finite time: the lease lives.
    const std::size_t ticks = net.stats().timer_ticks;
    ASSERT_TRUE(WaitFor([&] { return net.stats().timer_ticks >= ticks + 5; }));
    raw.SendAll(EncodeMessage(RequestJob(2), 2.0));
    const auto second = raw.RecvFrame();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->type, WireType::kJob);
    net.Stop();

    EXPECT_EQ(net.stats().messages_rejected, 4u);
    EXPECT_EQ(net.stats().messages_handled, 2u);
    EXPECT_EQ(durable.server().stats().leases_expired, 0u);
    EXPECT_EQ(durable.server().stats().active_leases, 2u);
  }
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  DurableServer recovered(scheduler, {.lease_timeout = 60},
                          {.dir = dir.string()});
  EXPECT_TRUE(recovered.recovered());
  EXPECT_EQ(recovered.replayed_events(), 2u);  // the two grants
  EXPECT_EQ(recovered.server().stats().active_leases, 2u);
  fs::remove_all(dir);
}

TEST(NetMalformed, TelemetryCountsFrameErrors) {
  Telemetry telemetry;
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  NetServerOptions net_options;
  net_options.telemetry = &telemetry;
  NetServer net(server, net_options);
  net.Start();
  {
    RawClient raw(net.port());
    raw.SendAll("ZZZZZZZZZZZZZZZZ");
    EXPECT_TRUE(raw.ReadToEof());
  }
  ASSERT_TRUE(WaitFor([&] { return net.stats().frames_bad_magic >= 1; }));
  net.Stop();
  EXPECT_EQ(telemetry.metrics().counter("net.frame_bad_magic").value(), 1);
  EXPECT_EQ(telemetry.metrics().counter("server.malformed_frames").value(), 1);
  EXPECT_EQ(telemetry.metrics().counter("net.messages_rejected").value(), 1);
}

// --- Graceful shutdown -> worker backoff ---

TEST(NetShutdown, StopDrainsAndWorkersEnterBackoff) {
  AshaOptions options;
  options.r = 1;
  options.R = 27;
  options.eta = 3;
  options.max_trials = 40;
  AshaScheduler asha(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(asha, {.lease_timeout = 30});
  NetServerOptions net_options;
  net_options.clock = NetClock::kMessage;
  NetServer net(server, net_options);
  net.Start();

  NetWorkerClient client("127.0.0.1", net.port());
  RankEnv env;
  SimulatedWorker worker(1, env, /*heartbeat_interval=*/5);
  worker.OnTick(client, 0);  // leases a job, starts training
  EXPECT_TRUE(worker.IsTraining());
  EXPECT_TRUE(client.connected());

  net.Stop();  // graceful: workers see EOF, not a hung socket

  // The next exchange fails; the worker books a retry and backs off —
  // exactly the PR-5 reconnect path.
  worker.OnTick(client, worker.next_action_time());
  EXPECT_GT(worker.retries(), 0u);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.Send(RequestJob(1), 100), std::nullopt);
  EXPECT_GE(net.stats().connections_closed, 1u);
}

TEST(NetShutdown, StopIsIdempotentAndDestructorSafe) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  NetServer net(server, {});
  EXPECT_GT(net.port(), 0);  // ephemeral port resolved at bind time
  net.Start();
  net.Stop();
  net.Stop();  // second Stop is a no-op; destructor will Stop again
}

// --- Concurrency: many client threads, one loop, one service ---

// --- Hardening: accept shedding, slow-client eviction, overload shed ---

TEST(NetHardening, AcceptsAreShedAtMaxConnections) {
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), {.R = 10});
  TuningServer server(scheduler, {.lease_timeout = 30});
  NetServerOptions options;
  options.max_connections = 1;
  NetServer net(server, options);
  net.Start();

  RawClient first(net.port());
  first.SendAll(EncodeMessage(RequestJob(1), 0));
  ASSERT_TRUE(first.RecvFrame().has_value());  // registered as the one slot

  // Second connection is over the cap: closed immediately, never served.
  RawClient second(net.port());
  EXPECT_TRUE(second.ReadToEof());
  EXPECT_TRUE(WaitFor([&] { return net.stats().connections_shed >= 1; }));
  EXPECT_EQ(net.stats().connections_accepted, 1u);

  // The surviving connection still works.
  first.SendAll(EncodeMessage(RequestJob(1), 1));
  const auto frame = first.RecvFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_NE(frame->type, WireType::kError);

  net.Stop();
}

/// SocketIo whose sends always fail with EAGAIN — from the server's side
/// the client never drains its socket, so replies pile up in the outbuf.
class SendBlockedIo final : public SocketIo {
 public:
  ssize_t Send(int, const void*, std::size_t) override {
    errno = EAGAIN;
    return -1;
  }
  ssize_t Recv(int fd, void* data, std::size_t size) override {
    return SocketIo::Real().Recv(fd, data, size);
  }
};

TEST(NetHardening, SlowClientsAreEvictedAtTheOutbufCap) {
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), {.R = 10});
  TuningServer server(scheduler, {.lease_timeout = 30});
  SendBlockedIo blocked;
  NetServerOptions options;
  options.max_outbuf_bytes = 16;  // any job reply busts this
  options.io = &blocked;
  NetServer net(server, options);
  net.Start();

  RawClient client(net.port());
  client.SendAll(EncodeMessage(RequestJob(1), 0));
  // The reply can't flush, exceeds the cap, and the connection is evicted
  // (closed) rather than buffering without bound.
  EXPECT_TRUE(client.ReadToEof());
  EXPECT_TRUE(WaitFor([&] { return net.stats().slow_clients_evicted >= 1; }));
  EXPECT_TRUE(WaitFor([&] { return net.stats().connections_closed >= 1; }));

  net.Stop();
}

/// Wraps a service and stalls HandleMessage on demand — the loop thread
/// falls behind its tick schedule, which is what trips overload shedding.
class StallService final : public MessageService {
 public:
  explicit StallService(MessageService& inner) : inner_(inner) {}

  Json HandleMessage(const Json& message, double now) override {
    const int ms = stall_ms.load();
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return inner_.HandleMessage(message, now);
  }
  void Tick(double now) override { inner_.Tick(now); }

  std::atomic<int> stall_ms{0};

 private:
  MessageService& inner_;
};

TEST(NetHardening, OverloadShedsGrantsUntilTheLoopCatchesUp) {
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), {.R = 10});
  TuningServer server(scheduler, {.lease_timeout = 30});
  StallService stalled(server);
  NetServerOptions options;
  options.tick_interval = 0.02;
  options.overload_shed_lag = 0.01;
  NetServer net(stalled, options);
  net.Start();

  RawClient client(net.port());

  // Each stalled message delays poll past the tick deadline, opening a
  // shed window roughly one tick_interval long — loop until a grant
  // request lands inside one.
  stalled.stall_ms = 30;
  bool shed = false;
  for (int i = 0; i < 100 && !shed; ++i) {
    client.SendAll(EncodeMessage(RequestJob(1), i));
    const auto frame = client.RecvFrame();
    ASSERT_TRUE(frame.has_value());
    const Json reply = DecodeMessage(*frame).message;
    if (!reply.Has("shed")) continue;
    shed = true;
    EXPECT_EQ(frame->type, WireType::kNoJobFlagged);
    EXPECT_EQ(reply.at("type").AsString(), "no_job");
    EXPECT_TRUE(reply.at("shed").AsBool());
    EXPECT_DOUBLE_EQ(reply.at("retry_after").AsDouble(), kShedRetryAfter);
  }
  ASSERT_TRUE(shed);
  EXPECT_GE(net.stats().requests_shed, 1u);

  // Once the stall clears and a tick lands on time, grants flow again.
  stalled.stall_ms = 0;
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    client.SendAll(EncodeMessage(RequestJob(1), 1000 + i));
    const auto frame = client.RecvFrame();
    ASSERT_TRUE(frame.has_value());
    recovered = frame->type == WireType::kJob ||
                frame->type == WireType::kNoJob;
  }
  EXPECT_TRUE(recovered);

  net.Stop();
}

TEST(NetConcurrency, ParallelClientsSerializeOntoOneService) {
  RandomSearchOptions options;
  options.R = 10;
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});
  NetServer net(server, {});
  net.Start();

  constexpr int kThreads = 4;
  constexpr int kCycles = 25;
  std::vector<std::thread> threads;
  std::atomic<int> completed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Odd threads speak JSON, even threads binary — both transports hit
      // the same loop at once.
      NetClientOptions client_options;
      client_options.transport =
          t % 2 == 0 ? WireTransport::kBinary : WireTransport::kJson;
      NetWorkerClient client("127.0.0.1", net.port(), client_options);
      for (int i = 0; i < kCycles; ++i) {
        const auto reply =
            client.Send(RequestJob(static_cast<std::uint64_t>(t)), i);
        if (!reply || reply->at("type").AsString() != "job") continue;
        const auto ack = client.Send(
            Report(static_cast<std::uint64_t>(t),
                   reply->at("job_id").AsInt(), 0.5),
            i + 0.5);
        if (ack && ack->at("type").AsString() == "ack") ++completed;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  net.Stop();

  EXPECT_EQ(completed.load(), kThreads * kCycles);
  EXPECT_EQ(server.stats().jobs_completed,
            static_cast<std::size_t>(kThreads * kCycles));
  EXPECT_EQ(net.stats().messages_handled,
            static_cast<std::size_t>(2 * kThreads * kCycles));
  EXPECT_GE(net.stats().connections_accepted,
            static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace hypertune
