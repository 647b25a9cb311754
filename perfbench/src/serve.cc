// serve-durable: lease traffic over loopback TCP against a durable
// multi-study server.
//
// Server stack (one process, real sockets): NetServer (binary transport,
// wall clock, 60 s leases, 1 s idle tick) -> StudyManager with per-study
// DurableServers (fsync every 64 journal frames, snapshot every 1024) on
// the host's disk under <work_dir>/serve-state. 256 ASHA studies from the
// stock MakeStudySchedulerFactory, each with its own seed.
//
// Load: closed loop. One generator thread drives 4 connections x 128
// virtual workers (512). A worker has at most one request outstanding;
// its cycle is request_job (1 in 8 for "*", the rest for a seeded study),
// 0-3 seeded heartbeats, then a report with a seeded loss.
//
// One repetition does a fixed amount of work on a fresh state dir: set up
// (manager, server, connections), create the 256 studies over the wire,
// run every worker through kCyclesPerWorker cycles, stop, check, time
// recovery of the state dir by a fresh StudyManager, check again. A run
// repeats until --seconds have passed and reports medians over
// repetitions.
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/json.h"
#include "common/rng.h"
#include "net/codec.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "study/study_manager.h"
#include "timed.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace ht = hypertune;
using ht::Json;

constexpr std::size_t kStudies = 256;
constexpr std::size_t kFleet = 512;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kCyclesPerWorker = 48;
constexpr std::int64_t kAnyStudyOneIn = 8;
constexpr std::int64_t kMaxHeartbeats = 3;
constexpr std::size_t kMinReps = 3;
/// No reply for this long is a transport failure.
constexpr std::int64_t kStallNs = 30'000'000'000LL;
/// Latency samples one repetition can hold without reallocating (a
/// repetition sends about 3.5 messages per cycle).
constexpr std::size_t kLatencyReserve = kFleet * kCyclesPerWorker * 5;
/// Pending-reply marker for admin (create_study) messages.
constexpr std::uint32_t kAdmin = 0xffffffffu;

// ---- inputs --------------------------------------------------------------

struct Cycle {
  std::int32_t study = 0;  // < 0: request from any study ("*")
  std::uint8_t heartbeats = 0;
  double loss = 0;
};

struct Plan {
  std::vector<std::int64_t> study_seeds;
  std::vector<std::vector<Cycle>> cycles;  // per worker
};

Plan MakePlan(std::uint64_t seed) {
  ht::Rng rng(seed);
  Plan plan;
  for (std::size_t i = 0; i < kStudies; ++i) {
    plan.study_seeds.push_back(rng.UniformInt(1, std::int64_t{1} << 40));
  }
  plan.cycles.resize(kFleet);
  for (std::size_t w = 0; w < kFleet; ++w) {
    ht::Rng worker = rng.Split(w + 1);
    for (std::size_t c = 0; c < kCyclesPerWorker; ++c) {
      Cycle cycle;
      cycle.study = worker.UniformInt(1, kAnyStudyOneIn) == 1
                        ? -1
                        : static_cast<std::int32_t>(
                              worker.UniformInt(0, kStudies - 1));
      cycle.heartbeats =
          static_cast<std::uint8_t>(worker.UniformInt(0, kMaxHeartbeats));
      cycle.loss = worker.Uniform();
      plan.cycles[w].push_back(cycle);
    }
  }
  return plan;
}

std::string StudyName(std::size_t index) {
  char name[16];
  std::snprintf(name, sizeof(name), "s%03zu", index);
  return name;
}

std::size_t StudyIndex(const std::string& name) {
  return static_cast<std::size_t>(std::stoul(name.substr(1)));
}

ht::SearchSpace ServeSpace() {
  ht::SearchSpace space;
  space.Add("lr", ht::Domain::Continuous(1e-4, 1.0, ht::Scale::kLog));
  space.Add("layers", ht::Domain::Integer(1, 8));
  space.Add("dropout", ht::Domain::Continuous(0.0, 0.5));
  return space;
}

Json Message(const char* type, std::uint32_t worker) {
  Json message = ht::JsonObject{};
  message.Set("type", Json(type));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  return message;
}

Json CreateStudyMessage(std::size_t index, std::int64_t seed) {
  Json config = ht::JsonObject{};
  config.Set("kind", Json("asha"));
  config.Set("seed", Json(seed));
  // Open-ended: a study never runs out of trials within a run, so every
  // request is granted.
  config.Set("max_trials", Json(std::int64_t{1} << 30));
  Json message = ht::JsonObject{};
  message.Set("type", Json("create_study"));
  message.Set("study", Json(StudyName(index)));
  message.Set("config", std::move(config));
  return message;
}

// ---- client side -----------------------------------------------------------

struct Pending {
  std::uint32_t worker = 0;
  std::int64_t sent_ns = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  ht::FrameDecoder decoder;
  std::deque<Pending> pending;
};

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // The server sends each reply as its own segment, and up to 128 replies
  // per connection queue while the generator is busy. The default receive
  // buffer fills with per-segment overhead and shrinks the window the
  // server may send into, which would stall the client, not the server.
  // Set before connect so the window scale covers it.
  const int rcvbuf = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// The load generator: one thread, non-blocking sockets, every virtual
// worker's request in flight at once.
class Generator {
 public:
  explicit Generator(std::size_t connections) : conns_(connections) {
    latencies_us_.reserve(kLatencyReserve);
  }
  ~Generator() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool Connect(int port) {
    for (Conn& conn : conns_) {
      conn.fd = perfbench::Connect(port);
      if (conn.fd < 0) return false;
    }
    return true;
  }

  std::size_t size() const { return conns_.size(); }

  void Send(std::size_t conn, std::uint32_t worker, const Json& message) {
    std::string frame;
    {
      Span span(SpanKind::kCodecEncode);
      frame = ht::EncodeMessage(message, 0.0);
    }
    conns_[conn].out += frame;
    conns_[conn].pending.push_back({worker, NowNs()});
    ++sent_;
  }

  /// Moves bytes until `done()`; `on_reply(worker, reply)` sees every
  /// decoded reply. Returns false on any transport failure.
  template <typename OnReply, typename Done>
  bool Pump(OnReply&& on_reply, Done&& done) {
    std::vector<pollfd> fds(conns_.size());
    std::vector<ht::WireFrame> frames;
    std::int64_t last_progress = NowNs();
    char buffer[64 * 1024];
    while (!done()) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (!Flush(conns_[i])) return Fail("send failed");
        fds[i] = {conns_[i].fd,
                  static_cast<short>(POLLIN | (HasOut(conns_[i]) ? POLLOUT : 0)),
                  0};
      }
      const int ready = ::poll(fds.data(), fds.size(), 1000);
      if (ready < 0 && errno != EINTR) return Fail("poll failed");
      if (ready <= 0) {
        if (NowNs() - last_progress > kStallNs) return Fail("server stalled");
        continue;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents == 0) continue;
        Conn& conn = conns_[i];
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (;;) {
          const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
          if (n == 0) return Fail("server closed a connection");
          if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            return Fail("recv failed");
          }
          frames.clear();
          {
            Span span(SpanKind::kCodecFeed);
            conn.decoder.Feed(
                std::string_view(buffer, static_cast<std::size_t>(n)));
            while (auto frame = conn.decoder.Next()) {
              frames.push_back(std::move(*frame));
            }
          }
          if (conn.decoder.error() != ht::FrameError::kNone) {
            return Fail("malformed reply frame");
          }
          for (const ht::WireFrame& frame : frames) {
            ht::WireMessage reply;
            {
              Span span(SpanKind::kCodecDecode);
              reply = ht::DecodeMessage(frame);
            }
            if (conn.pending.empty()) return Fail("unsolicited reply");
            const Pending pending = conn.pending.front();
            conn.pending.pop_front();
            const std::int64_t now = NowNs();
            if (pending.worker != kAdmin) {
              latencies_us_.push_back(
                  static_cast<double>(now - pending.sent_ns) / 1e3);
            }
            last_progress = now;
            on_reply(i, pending.worker, reply.message);
          }
        }
      }
    }
    return true;
  }

  std::uint64_t sent() const { return sent_; }
  const std::string& error() const { return error_; }
  std::vector<double>& latencies_us() { return latencies_us_; }

 private:
  static bool HasOut(const Conn& conn) { return conn.out_pos < conn.out.size(); }

  static bool Flush(Conn& conn) {
    while (HasOut(conn)) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_pos,
                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      conn.out_pos += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_pos = 0;
    return true;
  }

  bool Fail(const char* why) {
    error_ = why;
    return false;
  }

  std::vector<Conn> conns_;
  std::vector<double> latencies_us_;
  std::uint64_t sent_ = 0;
  std::string error_;
};

// ---- one repetition --------------------------------------------------------

struct LoopSample {
  bool valid = false;
  std::int64_t cpu_ns = 0;       // precise, traced runs only
  ThreadCounters counters;
};

struct Rep {
  double setup_s = 0;
  double create_us = 0;  // median create_study round trip
  double load_s = 0;
  double recovery_s = 0;
  std::uint64_t messages = 0;
  std::uint64_t reports = 0;
  std::uint64_t failed = 0;
  // Client-side round trip of the load phase's messages.
  std::size_t latency_samples = 0;
  double p50_us = 0;
  double p99_us = 0;
  // Load-phase deltas of the loop thread and the generator thread.
  std::int64_t loop_cpu_ns = 0;          // /proc tick resolution
  std::int64_t loop_cpu_precise_ns = 0;  // traced: pthread CPU clock
  ThreadCounters loop_delta;
  std::int64_t gen_cpu_ns = 0;
  // Hypervisor steal on the loop's and generator's CPUs during the load.
  std::int64_t steal_ticks = 0;
};

/// Restricts thread `tid` (0 = the caller) to one CPU.
void PinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

class ServeRun {
 public:
  ServeRun(const RunOptions& options, RunResult& result)
      : options_(options),
        result_(result),
        plan_(MakePlan(options.seed)),
        state_root_(options.work_dir + "/serve-state"),
        factory_(ht::MakeStudySchedulerFactory(ServeSpace())),
        connections_(std::min<std::size_t>(
            kConnections,
            std::max(1u, std::thread::hardware_concurrency()))) {
    ClearStateDir();
    // The generator and the server loop talk over loopback, and the
    // scheduler's wake-affinity tends to stack them on one CPU, where they
    // preempt each other and throughput halves for as long as it lasts.
    // Give each its own CPU (the last two this process may use) so the
    // figures measure the server, not where the scheduler put it.
    if (sched_getaffinity(0, sizeof(original_cpus_), &original_cpus_) == 0) {
      for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && pinned_cpus_.size() < 2;
           --cpu) {
        if (CPU_ISSET(cpu, &original_cpus_)) pinned_cpus_.push_back(cpu);
      }
    }
    if (pinned_cpus_.size() == 2) PinThread(0, pinned_cpus_[1]);
  }

  ~ServeRun() {
    if (pinned_cpus_.size() == 2) {
      sched_setaffinity(0, sizeof(original_cpus_), &original_cpus_);
    }
    ClearStateDir();
  }

  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  /// One repetition on a fresh state dir; nullopt when it could not finish
  /// (the failure is recorded in the result).
  std::optional<Rep> RunRep(bool traced);

 private:
  ht::StudyManagerOptions ManagerOptions() const {
    ht::StudyManagerOptions options;
    options.server.lease_timeout = 60;
    options.durability_root = rep_dir_;
    options.sync = ht::SyncPolicy::kEveryN;
    options.sync_every = 64;
    options.snapshot_every = 1024;
    return options;
  }

  /// Deletes every repetition's state dir and commits the deletion (ext4
  /// discards freed blocks at journal commit). Runs only outside the timed
  /// sections: repetitions get fresh dirs, so no deletion runs between
  /// them.
  void ClearStateDir() const {
    std::filesystem::remove_all(state_root_);
    const int fd = ::open(options_.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }

  bool Check(bool ok, const std::string& why) {
    if (!ok) result_.Fail(why);
    return ok;
  }

  const RunOptions& options_;
  RunResult& result_;
  Plan plan_;
  std::string state_root_;
  std::string rep_dir_;  // this repetition's durability root
  int reps_ = 0;
  ht::StudySchedulerFactory factory_;
  std::size_t connections_;
  cpu_set_t original_cpus_{};
  std::vector<int> pinned_cpus_;  // [server loop, generator], or empty
};

LoopSample SampleLoop(pid_t tid, const TimedService* timed) {
  LoopSample sample;
  if (tid <= 0) return sample;
  sample.valid = true;
  sample.counters = ReadThreadCounters(tid);
  if (timed != nullptr && timed->attached()) {
    clockid_t clock{};
    if (pthread_getcpuclockid(timed->loop_thread(), &clock) == 0) {
      timespec ts{};
      clock_gettime(clock, &ts);
      sample.cpu_ns =
          static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
    }
  }
  return sample;
}

std::optional<Rep> ServeRun::RunRep(bool traced) {
  Rep rep;
  const std::size_t per_conn = kFleet / connections_;

  // -- set up -----------------------------------------------------------
  rep_dir_ = state_root_ + "/rep-" + std::to_string(reps_++);
  // The state dir is provisioned before the server starts, as a deployment
  // would; set-up is what the process does to serve it.
  std::filesystem::create_directories(rep_dir_ + "/studies");
  const std::int64_t setup_start = NowNs();
  ht::StudySchedulerFactory factory = factory_;
  if (traced) {
    factory = [stock = factory_](const Json& config)
        -> std::unique_ptr<ht::Scheduler> {
      auto scheduler = stock(config);
      if (scheduler == nullptr) return nullptr;
      return std::make_unique<TimedScheduler>(std::move(scheduler));
    };
  }
  auto manager = std::make_unique<ht::StudyManager>(factory, ManagerOptions());
  std::unique_ptr<TimedService> timed;
  if (traced) timed = std::make_unique<TimedService>(*manager);
  ht::MessageService& front =
      traced ? static_cast<ht::MessageService&>(*timed) : *manager;

  ht::NetServerOptions net_options;
  net_options.clock = ht::NetClock::kWall;
  net_options.tick_interval = 1.0;
  const std::vector<pid_t> threads_before = ListThreads();
  auto server = std::make_unique<ht::NetServer>(front, net_options);
  server->Start();
  pid_t loop_tid = 0;
  for (const pid_t tid : ListThreads()) {
    if (std::find(threads_before.begin(), threads_before.end(), tid) ==
        threads_before.end()) {
      loop_tid = loop_tid == 0 ? tid : -1;  // -1: ambiguous
    }
  }
  if (loop_tid > 0 && pinned_cpus_.size() == 2) {
    PinThread(loop_tid, pinned_cpus_[0]);
  }

  Generator gen(connections_);
  if (!Check(gen.Connect(server->port()), "cannot connect to the server")) {
    return std::nullopt;
  }
  rep.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  // The studies, one create_study in flight at a time. Not part of set-up:
  // each opens a directory, a manifest and a journal, and file creation on
  // a shared disk varies too much run to run to gate on. Its median round
  // trip is logged.
  std::vector<double> create_us;
  create_us.reserve(kStudies);
  for (std::size_t i = 0; i < kStudies; ++i) {
    const std::int64_t sent = NowNs();
    gen.Send(i % gen.size(), kAdmin,
             CreateStudyMessage(i, plan_.study_seeds[i]));
    bool acked = false, replied = false;
    const bool ok = gen.Pump(
        [&](std::size_t, std::uint32_t, const Json& reply) {
          acked = reply.at("type").AsString() == "ack";
          replied = true;
        },
        [&] { return replied; });
    if (!Check(ok, "create_study: " + gen.error()) ||
        !Check(acked, "create_study was not acknowledged")) {
      return std::nullopt;
    }
    create_us.push_back(static_cast<double>(NowNs() - sent) / 1e3);
  }
  rep.create_us = MedianOf(std::move(create_us));
  gen.latencies_us().clear();

  // -- load ---------------------------------------------------------------
  enum class Phase : std::uint8_t { kRequest, kHeartbeat, kReport, kDone };
  struct Worker {
    std::size_t cycle = 0;
    Phase phase = Phase::kRequest;
    int heartbeats_left = 0;
    std::size_t study = 0;
    std::int64_t job = 0;
  };
  std::vector<Worker> workers(kFleet);
  std::vector<std::uint64_t> grants(kStudies, 0), reports(kStudies, 0);
  std::unordered_set<std::uint64_t> open;  // (study << 40 | job) granted
  open.reserve(kFleet * 2);
  std::size_t done = 0;
  std::uint64_t no_jobs = 0;
  bool plan_ok = true;
  const std::uint64_t sent_before = gen.sent();

  auto conn_of = [&](std::uint32_t w) { return w / per_conn; };
  auto study_field = [&](const Worker& worker, std::uint32_t w) {
    const Cycle& cycle = plan_.cycles[w][worker.cycle];
    return cycle.study < 0 ? std::string("*") : StudyName(cycle.study);
  };
  auto send_request = [&](std::uint32_t w) {
    Json message = Message("request_job", w);
    message.Set("study", Json(study_field(workers[w], w)));
    gen.Send(conn_of(w), w, message);
  };
  auto send_heartbeat = [&](std::uint32_t w) {
    Json message = Message("heartbeat", w);
    message.Set("job_id", Json(workers[w].job));
    message.Set("study", Json(StudyName(workers[w].study)));
    gen.Send(conn_of(w), w, message);
  };
  auto send_report = [&](std::uint32_t w) {
    const Worker& worker = workers[w];
    Json message = Message("report", w);
    message.Set("job_id", Json(worker.job));
    message.Set("loss", Json(plan_.cycles[w][worker.cycle].loss));
    message.Set("study", Json(StudyName(worker.study)));
    gen.Send(conn_of(w), w, message);
  };
  auto next_cycle = [&](std::uint32_t w) {
    Worker& worker = workers[w];
    if (++worker.cycle == kCyclesPerWorker) {
      worker.phase = Phase::kDone;
      ++done;
      return;
    }
    worker.phase = Phase::kRequest;
    send_request(w);
  };
  auto key = [](std::size_t study, std::int64_t job) {
    return (static_cast<std::uint64_t>(study) << 40) |
           static_cast<std::uint64_t>(job);
  };

  const LoopSample loop_before = SampleLoop(loop_tid, timed.get());
  const std::int64_t steal_before = StealTicks(pinned_cpus_);
  const std::int64_t gen_cpu_before = ThreadCpuNs();
  const std::int64_t load_start = NowNs();
  for (std::uint32_t w = 0; w < per_conn * gen.size(); ++w) send_request(w);
  const std::size_t fleet = per_conn * gen.size();
  const bool load_ok = gen.Pump(
      [&](std::size_t, std::uint32_t w, const Json& reply) {
        Worker& worker = workers[w];
        const std::string& type = reply.at("type").AsString();
        switch (worker.phase) {
          case Phase::kRequest: {
            if (type == "no_job") {
              ++no_jobs;
              send_request(w);
              return;
            }
            if (type != "job") {
              ++rep.failed;
              next_cycle(w);
              return;
            }
            const Cycle& cycle = plan_.cycles[w][worker.cycle];
            worker.study = cycle.study < 0
                               ? StudyIndex(reply.at("study").AsString())
                               : static_cast<std::size_t>(cycle.study);
            worker.job = reply.at("job_id").AsInt();
            if (!open.insert(key(worker.study, worker.job)).second) {
              plan_ok = false;  // the same job granted twice
            }
            ++grants[worker.study];
            worker.heartbeats_left = cycle.heartbeats;
            if (worker.heartbeats_left > 0) {
              worker.phase = Phase::kHeartbeat;
              send_heartbeat(w);
            } else {
              worker.phase = Phase::kReport;
              send_report(w);
            }
            return;
          }
          case Phase::kHeartbeat:
            if (type != "ack") ++rep.failed;
            if (--worker.heartbeats_left > 0) {
              send_heartbeat(w);
            } else {
              worker.phase = Phase::kReport;
              send_report(w);
            }
            return;
          case Phase::kReport: {
            const bool stale = reply.Has("stale") && reply.at("stale").AsBool();
            if (type != "ack" || stale) {
              ++rep.failed;
            } else if (open.erase(key(worker.study, worker.job)) == 1) {
              ++reports[worker.study];
              ++rep.reports;
            } else {
              plan_ok = false;  // acknowledged a report for no open grant
            }
            next_cycle(w);
            return;
          }
          case Phase::kDone:
            plan_ok = false;
            return;
        }
      },
      [&] { return done == fleet; });
  const std::int64_t load_end = NowNs();
  const std::int64_t gen_cpu_after = ThreadCpuNs();
  const LoopSample loop_after = SampleLoop(loop_tid, timed.get());
  rep.steal_ticks = StealTicks(pinned_cpus_) - steal_before;
  if (!Check(load_ok, "load: " + gen.error())) return std::nullopt;
  rep.load_s = static_cast<double>(load_end - load_start) / 1e9;
  rep.messages = gen.sent() - sent_before;
  rep.gen_cpu_ns = gen_cpu_after - gen_cpu_before;
  if (loop_before.valid && loop_after.valid) {
    rep.loop_cpu_ns = loop_after.counters.cpu_ns - loop_before.counters.cpu_ns;
    rep.loop_cpu_precise_ns = loop_after.cpu_ns - loop_before.cpu_ns;
    rep.loop_delta.voluntary_switches =
        loop_after.counters.voluntary_switches -
        loop_before.counters.voluntary_switches;
    rep.loop_delta.involuntary_switches =
        loop_after.counters.involuntary_switches -
        loop_before.counters.involuntary_switches;
    rep.loop_delta.write_calls =
        loop_after.counters.write_calls - loop_before.counters.write_calls;
    rep.loop_delta.write_bytes =
        loop_after.counters.write_bytes - loop_before.counters.write_bytes;
  }
  rep.latency_samples = gen.latencies_us().size();
  rep.p50_us = Percentile(gen.latencies_us(), 0.50);
  rep.p99_us = Percentile(gen.latencies_us(), 0.99);
  if (no_jobs > 0) std::fprintf(stderr, "serve: %llu no_job replies\n",
                                static_cast<unsigned long long>(no_jobs));

  // -- output checks ------------------------------------------------------
  server->Stop();
  Check(plan_ok, "a job was granted twice or reported without a grant");
  Check(open.empty(), std::to_string(open.size()) +
                          " granted jobs were never reported");
  const std::vector<ht::StudyInfo> live = manager->ListStudies();
  if (Check(live.size() == kStudies, "live study count")) {
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < kStudies; ++i) {
      completed += live[i].jobs_completed;
      Check(live[i].name == StudyName(i) &&
                live[i].jobs_completed == reports[i] &&
                live[i].jobs_assigned == grants[i] &&
                live[i].active_leases == 0,
            "study " + StudyName(i) + " totals differ from the client's");
    }
    Check(completed == rep.reports,
          "per-study jobs_completed does not sum to the reports sent");
  }
  server.reset();
  timed.reset();
  manager.reset();

  // -- recovery -----------------------------------------------------------
  const std::int64_t recovery_start = NowNs();
  auto recovered = std::make_unique<ht::StudyManager>(factory_,
                                                      ManagerOptions());
  rep.recovery_s = static_cast<double>(NowNs() - recovery_start) / 1e9;
  const std::vector<ht::StudyInfo> after = recovered->ListStudies();
  bool same = after.size() == live.size();
  for (std::size_t i = 0; same && i < after.size(); ++i) {
    same = after[i].name == live[i].name &&
           after[i].suspended == live[i].suspended &&
           after[i].max_leases == live[i].max_leases &&
           after[i].active_leases == live[i].active_leases &&
           after[i].jobs_assigned == live[i].jobs_assigned &&
           after[i].jobs_completed == live[i].jobs_completed;
  }
  Check(same, "ListStudies() after recovery differs from the live list");
  recovered.reset();
  std::fprintf(stderr,
               "serve rep: setup %.4f s (create %.0f us), load %.3f s "
               "%.0f msg/s p50 %.0f us p99 %.0f us, recovery %.4f s, "
               "steal %lld%s\n",
               rep.setup_s, rep.create_us, rep.load_s,
               static_cast<double>(rep.messages) / rep.load_s, rep.p50_us,
               rep.p99_us, rep.recovery_s,
               static_cast<long long>(rep.steal_ticks),
               traced ? " (traced)" : "");
  return rep;
}

double PerMsg(double total, std::uint64_t messages) {
  return messages == 0 ? 0 : total / static_cast<double>(messages);
}

}  // namespace

RunResult RunServe(const RunOptions& options) {
  RunResult result;
  ServeRun run(options, result);
  std::vector<Rep> untraced, traced;
  // Warm-up: one untimed repetition (heap, page cache, socket buffers).
  // Its output checks count like any other.
  if (!run.RunRep(false)) return result;
  const std::int64_t start = NowNs();
  const auto elapsed = [&] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  // Traced runs spend half the time untraced (for the overhead figure).
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t min_reps = options.trace ? 1 : kMinReps;
  while (untraced.size() < min_reps || elapsed() < untraced_seconds) {
    auto rep = run.RunRep(false);
    if (!rep) return result;
    untraced.push_back(*rep);
  }
  if (options.trace) {
    GlobalTracer().AttachThisThread("generator");
    while (traced.empty() || elapsed() < options.seconds) {
      auto rep = run.RunRep(true);
      if (!rep) return result;
      traced.push_back(*rep);
    }
    Tracer::DetachThisThread();
  }

  // The figures come from the half of the repetitions (at least two) with
  // the least hypervisor steal on the loop's and generator's CPUs; every
  // repetition's checks still count. One stolen slice stalls all 512
  // requests in flight at once and alone decides a repetition's tail.
  for (const Rep& rep : untraced) {
    result.attempted += rep.messages + kStudies;
    result.failed += rep.failed;
  }
  std::vector<Rep> clean = untraced;
  std::stable_sort(clean.begin(), clean.end(), [](const Rep& a, const Rep& b) {
    return a.steal_ticks < b.steal_ticks;
  });
  clean.resize(std::min(clean.size(),
                        std::max<std::size_t>(2, (clean.size() + 1) / 2)));

  std::vector<double> msgs_rate, jobs_rate, studies_rate, p50, p99, setup,
      recovery;
  std::size_t samples = 0;
  for (const Rep& rep : clean) {
    msgs_rate.push_back(static_cast<double>(rep.messages) / rep.load_s);
    jobs_rate.push_back(static_cast<double>(rep.reports) / rep.load_s);
    p50.push_back(rep.p50_us);
    p99.push_back(rep.p99_us);
    samples += rep.latency_samples;
    setup.push_back(rep.setup_s);
    // Every repetition drives all the studies through the same fixed load.
    studies_rate.push_back(static_cast<double>(kStudies) / rep.load_s);
    recovery.push_back(rep.recovery_s);
    const double gen = static_cast<double>(rep.gen_cpu_ns) / 1e9 / rep.load_s;
    const double loop =
        static_cast<double>(rep.loop_cpu_ns) / 1e9 / rep.load_s;
    // The guard: a generator pinned at a full core while the server has
    // headroom measures the generator, not the server.
    if (gen > 0.9 && gen > loop) {
      result.Fail("load generator saturated (cpu share " +
                  std::to_string(gen) + ", server loop " +
                  std::to_string(loop) + ")");
    }
  }
  std::fprintf(stderr,
               "serve: %zu of %zu untraced reps (least steal), %zu latency "
               "samples, median per-rep p50 %.1f us p99 %.1f us\n",
               clean.size(), untraced.size(), samples, MedianOf(p50),
               MedianOf(p99));

  if (!options.trace) {
    result.Add("msgs_per_s", MedianOf(msgs_rate), "msg/s");
    result.Add("latency_p50_us", MedianOf(p50), "us");
    result.Add("jobs_per_s", MedianOf(jobs_rate), "jobs/s");
    result.Add("studies_per_s", MedianOf(studies_rate), "studies/s");
    result.Add("recovery_s", MedianOf(recovery), "s");
    result.Add("setup_s", MedianOf(setup), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  // ---- per-layer, from the traced repetitions ----
  const Totals totals = GlobalTracer().Sum();
  std::uint64_t messages = 0, reports = 0;
  double load_s = 0, loop_cpu = 0, gen_cpu = 0;
  ThreadCounters loop;
  for (const Rep& rep : traced) {
    messages += rep.messages;
    reports += rep.reports;
    load_s += rep.load_s;
    loop_cpu += static_cast<double>(rep.loop_cpu_precise_ns);
    gen_cpu += static_cast<double>(rep.gen_cpu_ns);
    loop.voluntary_switches += rep.loop_delta.voluntary_switches;
    loop.involuntary_switches += rep.loop_delta.involuntary_switches;
    loop.write_calls += rep.loop_delta.write_calls;
    loop.write_bytes += rep.loop_delta.write_bytes;
  }
  const auto& encode = Of(totals, SpanKind::kCodecEncode);
  const auto& feed = Of(totals, SpanKind::kCodecFeed);
  const auto& decode = Of(totals, SpanKind::kCodecDecode);
  const SpanKind lease_kinds[] = {
      SpanKind::kStudyRequestJob, SpanKind::kStudyRequestAny,
      SpanKind::kStudyHeartbeat, SpanKind::kStudyReport};
  double handle_wall = 0, handle_cpu = 0;
  std::uint64_t handled = 0;
  for (const SpanKind kind : lease_kinds) {
    handle_wall += static_cast<double>(Of(totals, kind).wall_ns);
    handle_cpu += static_cast<double>(Of(totals, kind).cpu_ns);
    handled += Of(totals, kind).count;
  }
  const auto& tick = Of(totals, SpanKind::kStudyTick);
  const auto& get_job = Of(totals, SpanKind::kSchedulerGetJob);
  const auto& report = Of(totals, SpanKind::kSchedulerReport);
  const double scheduler_wall =
      static_cast<double>(get_job.wall_ns + report.wall_ns);
  const double service_cpu = handle_cpu + static_cast<double>(tick.cpu_ns);
  auto mean_ns = [](const SpanTotals& t) {
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.wall_ns) /
                              static_cast<double>(t.count);
  };
  result.Add("codec.encode_ns", mean_ns(encode), "ns");
  result.Add("codec.decode_ns",
             decode.count == 0 ? 0.0
                               : static_cast<double>(feed.wall_ns +
                                                     decode.wall_ns) /
                                     static_cast<double>(decode.count),
             "ns");
  result.Add("net.loop_cpu_ns_per_msg", PerMsg(loop_cpu, messages), "ns");
  result.Add("net.self_ns_per_msg", PerMsg(loop_cpu - service_cpu, messages),
             "ns");
  result.Add("net.loop_sleeps_per_msg",
             PerMsg(static_cast<double>(loop.voluntary_switches), messages),
             "count");
  result.Add("net.loop_preemptions_per_kmsg",
             PerMsg(1000.0 * static_cast<double>(loop.involuntary_switches),
                    messages),
             "count");
  result.Add("study.handle_ns.request_job",
             mean_ns(Of(totals, SpanKind::kStudyRequestJob)), "ns");
  result.Add("study.handle_ns.request_any",
             mean_ns(Of(totals, SpanKind::kStudyRequestAny)), "ns");
  result.Add("study.handle_ns.heartbeat",
             mean_ns(Of(totals, SpanKind::kStudyHeartbeat)), "ns");
  result.Add("study.handle_ns.report",
             mean_ns(Of(totals, SpanKind::kStudyReport)), "ns");
  result.Add("study.tick_ns", mean_ns(tick), "ns");
  result.Add("study.self_ns_per_msg",
             PerMsg(handle_wall - scheduler_wall, handled), "ns");
  result.Add("study.blocked_ns_per_msg",
             PerMsg(handle_wall - handle_cpu, handled), "ns");
  result.Add("durability.write_calls_per_msg",
             PerMsg(static_cast<double>(loop.write_calls), messages), "count");
  result.Add("durability.bytes_per_msg",
             PerMsg(static_cast<double>(loop.write_bytes), messages), "B");
  result.Add("scheduler.get_job_ns", mean_ns(get_job), "ns");
  result.Add("scheduler.report_ns", mean_ns(report), "ns");
  result.Add("scheduler.calls_per_job",
             reports == 0 ? 0.0
                          : static_cast<double>(get_job.count + report.count) /
                                static_cast<double>(reports),
             "count");
  result.Add("tail.latency_p99_us", MedianOf(p99), "us");
  result.Add("gen.cpu_share", load_s > 0 ? gen_cpu / 1e9 / load_s : 0.0,
             "ratio");

  std::vector<double> traced_msgs, traced_jobs;
  for (const Rep& rep : traced) {
    traced_msgs.push_back(static_cast<double>(rep.messages) / rep.load_s);
    traced_jobs.push_back(static_cast<double>(rep.reports) / rep.load_s);
  }
  result.Add("trace.msgs_per_s_overhead",
             1.0 - MedianOf(traced_msgs) / MedianOf(msgs_rate), "ratio");
  result.Add("trace.jobs_per_s_overhead",
             1.0 - MedianOf(traced_jobs) / MedianOf(jobs_rate), "ratio");
  return result;
}

}  // namespace perfbench
