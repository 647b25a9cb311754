// The shared decision-identity scenario: one deterministic search space,
// synthetic training environment, and scheduler zoo, used by both
// tools/decision_dump.cc (golden-digest dumps) and tools/chaos_recovery.cc
// (crash/restart byte-identity). Factored here so the uninterrupted run and
// the chaos run can never drift apart by construction.
//
// RunServiceDecisions is the heart of the chaos harness: it drives a
// virtual-time worker fleet against the tuning service and returns the
// *decision text* — every resolved lease, the incumbent trajectory, and
// the final trial table — with no telemetry or wall-clock content. With a
// CrashPlan it routes the run through a DurableServer, kills the server at
// the K-th handled message, restarts it from disk (snapshot + journal
// replay), and keeps going; the returned text must be byte-identical to
// the uninterrupted run's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "durability/durable_server.h"
#include "fault/fault.h"
#include "fault/fault_fs.h"
#include "lifecycle/hazards.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "service/server.h"
#include "service/worker.h"
#include "sim/environment.h"
#include "study/study_manager.h"

namespace hypertune {

inline SearchSpace DumpSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  space.Add("y", Domain::Continuous(-1.0, 1.0));
  return space;
}

// Deterministic synthetic training: loss improves with resource, ordering
// driven by the sampled point; durations vary per configuration so the
// event queue sees distinct completion times.
class DumpEnv final : public JobEnvironment {
 public:
  double Loss(const Configuration& config, Resource resource) override {
    const double x = config.GetDouble("x");
    const double y = config.GetDouble("y");
    return x * x + 0.25 * y * y + 1.0 / (1.0 + resource);
  }
  double Duration(const Configuration& config, Resource from,
                  Resource to) override {
    return (to - from) * (0.5 + config.GetDouble("x"));
  }
};

/// The scheduler a decision-identity run uses: the stock study factory's
/// `{"kind": kind, "seed": seed}` over DumpSpace(), so the dumps, the chaos
/// harness and a served study build byte-identical schedulers. The factory
/// knows asha, sha, hyperband and random; any other kind gives null.
inline std::unique_ptr<Scheduler> MakeDumpScheduler(const std::string& kind,
                                                    std::uint64_t seed) {
  Json config = JsonObject{};
  config.Set("kind", Json(kind));
  config.Set("seed", Json(seed));
  return MakeStudySchedulerFactory(DumpSpace())(config);
}

/// Crash/restart plan for RunServiceDecisions.
struct CrashPlan {
  /// Kill the server right after it handles this many messages. 0 never
  /// crashes: the run still goes through a DurableServer (journal +
  /// snapshots live), which is how the disk-fault scenarios inject ENOSPC
  /// without also exercising a restart.
  std::size_t crash_at = 0;
  /// Durable state directory (snapshots + journal live here).
  std::string state_dir;
  /// Virtual time the server stays down before recovery. 0 = instant
  /// restart: no lease can expire spuriously and no worker sees a failed
  /// exchange, the regime where the recovered run must be byte-identical.
  /// > 0 exercises worker reconnect backoff instead (identity is then out
  /// — leases may expire during the outage).
  double downtime = 0;
  /// Compact the journal after this many records (small values force the
  /// snapshot path into the crash window under test).
  std::size_t snapshot_every = 64;
  SyncPolicy sync = SyncPolicy::kEveryN;
};

/// How worker messages reach the server. kInProc is a direct call; the TCP
/// transports route every message through a real NetServer on loopback
/// (src/net) — the goldens proving the wire layer is decision-invariant.
enum class DumpTransport { kInProc, kJsonTcp, kBinaryTcp };

inline const char* DumpTransportName(DumpTransport transport) {
  switch (transport) {
    case DumpTransport::kInProc: return "inproc";
    case DumpTransport::kJsonTcp: return "json-tcp";
    case DumpTransport::kBinaryTcp: return "binary-tcp";
  }
  return "?";
}

inline std::optional<DumpTransport> ParseDumpTransport(
    const std::string& name) {
  if (name == "inproc") return DumpTransport::kInProc;
  if (name == "json-tcp") return DumpTransport::kJsonTcp;
  if (name == "binary-tcp") return DumpTransport::kBinaryTcp;
  return std::nullopt;
}

struct ServiceDecisionsOptions {
  std::string kind = "asha";
  std::uint64_t seed = 1;
  int workers = 8;
  HazardOptions hazards;
  std::optional<CrashPlan> crash;
  DumpTransport transport = DumpTransport::kInProc;
  /// Client-side socket fault seam for the TCP transports (not owned);
  /// faults are injected between the worker fleet and the NetServer.
  SocketIo* client_io = nullptr;
  /// File-op fault seam for the durable path (not owned). Requires a
  /// CrashPlan (that's what routes the run through a DurableServer); use
  /// crash_at = 0 for a durable run that never crashes.
  FileOps* file_ops = nullptr;
};

struct ServiceDecisionsResult {
  /// The deterministic decision dump (resolved leases, incumbent
  /// trajectory, final trial table, protocol stats).
  std::string text;
  /// Messages the server handled across all incarnations.
  std::size_t messages_handled = 0;
  /// Failed worker exchanges retried with backoff (downtime > 0 only).
  std::size_t worker_retries = 0;
  /// Journal events replayed by the post-crash incarnation.
  std::size_t replayed_events = 0;
  /// Snapshot generation the final incarnation ended on.
  std::uint64_t generation = 0;
  bool recovered = false;
  bool finished = false;
  /// Degraded-mode counters, summed across server incarnations.
  DurabilityStats durability;
  /// True when the final incarnation ended still degraded.
  bool degraded_final = false;
};

namespace dump_internal {

/// ServerConnection whose delivery is a std::function — the chaos harness
/// swaps server incarnations (and simulates downtime) inside it.
class HarnessConnection final : public ServerConnection {
 public:
  using Handler = std::function<std::optional<Json>(const Json&, double)>;
  explicit HarnessConnection(Handler handler)
      : handler_(std::move(handler)) {}
  std::optional<Json> Send(const Json& message, double now) override {
    return handler_(message, now);
  }

 private:
  Handler handler_;
};

}  // namespace dump_internal

/// Renders one study's decision text — every resolved lease, the incumbent
/// trajectory, the final trial table. Shared by the single-study harness
/// below and the multi-study chaos harness (tools/study_scenario.h): both
/// must produce these bytes from the same state or the byte-identity
/// checks compare apples to oranges.
inline std::string FormatDecisionText(const std::string& kind,
                                      std::uint64_t seed, int workers,
                                      const TuningServer& server,
                                      const Scheduler& scheduler) {
  std::ostringstream out;
  out << "== service-decisions " << kind << " seed=" << seed
      << " workers=" << workers << "\n";
  const auto stats = server.stats();
  out << "assigned=" << stats.jobs_assigned
      << " completed=" << stats.jobs_completed
      << " expired=" << stats.leases_expired << "\n";
  for (const auto& record : server.run_records()) {
    Json line = JsonObject{};
    line.Set("t", Json(record.end_time));
    line.Set("trial", Json(record.trial_id));
    line.Set("rung", Json(record.rung));
    line.Set("bracket", Json(record.bracket));
    line.Set("loss", Json(record.loss));
    line.Set("dropped", Json(record.lost));
    line.Set("lease", Json(static_cast<std::int64_t>(record.lease_id)));
    line.Set("worker", Json(record.worker));
    out << line.Dump() << "\n";
  }
  out << "-- incumbent\n";
  for (const auto& point : server.run_recommendations()) {
    Json line = JsonObject{};
    line.Set("t", Json(point.time));
    line.Set("trial", Json(point.trial_id));
    line.Set("loss", Json(point.loss));
    line.Set("resource", Json(point.resource));
    out << line.Dump() << "\n";
  }
  out << "-- trials\n";
  for (const auto& trial : scheduler.trials()) {
    Json line = JsonObject{};
    line.Set("trial", Json(trial.id));
    line.Set("resource", Json(trial.resource_trained));
    line.Set("status", Json(static_cast<int>(trial.status)));
    out << line.Dump() << "\n";
  }
  return out.str();
}

/// The server configuration every decision-identity run uses. Exposed so
/// post-run recovery checks (chaos_recovery's ENOSPC scenarios) can build
/// an equivalent server over the same state dir.
inline ServerOptions DumpServerOptions() {
  return ServerOptions{.lease_timeout = 30, .track_recommendations = true};
}

inline ServiceDecisionsResult RunServiceDecisions(
    const ServiceDecisionsOptions& opts) {
  ServiceDecisionsResult result;
  DumpEnv env;
  // One injector shared by the pool, drawn in job start order. It lives on
  // the worker side of the wire, so a *server* crash never resets it —
  // exactly the real deployment's failure boundary.
  HazardInjector injector(opts.hazards, opts.seed);

  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<TuningServer> plain;
  std::optional<DurableServer> durable;
  const ServerOptions server_options = DumpServerOptions();

  // Degraded-mode counters survive incarnation teardown by accumulating
  // here before each reset.
  const auto harvest = [&]() {
    if (!durable) return;
    const DurabilityStats d = durable->durability_stats();
    result.durability.journal_write_failures += d.journal_write_failures;
    result.durability.journal_sync_failures += d.journal_sync_failures;
    result.durability.snapshot_failures += d.snapshot_failures;
    result.durability.degraded_entered += d.degraded_entered;
    result.durability.degraded_exited += d.degraded_exited;
    result.durability.records_buffered += d.records_buffered;
    result.durability.grants_denied += d.grants_denied;
    result.degraded_final = durable->degraded();
  };

  const auto boot = [&]() {
    harvest();
    durable.reset();
    plain.reset();
    scheduler = MakeDumpScheduler(opts.kind, opts.seed);
    HT_CHECK_MSG(scheduler != nullptr,
                 "unknown scheduler kind '" << opts.kind << "'");
    if (opts.crash) {
      durable.emplace(*scheduler, server_options,
                      DurabilityOptions{.dir = opts.crash->state_dir,
                                        .sync = opts.crash->sync,
                                        .snapshot_every =
                                            opts.crash->snapshot_every,
                                        .file_ops = opts.file_ops});
      if (durable->recovered()) {
        result.recovered = true;
        result.replayed_events += durable->replayed_events();
      }
    } else {
      plain = std::make_unique<TuningServer>(*scheduler, server_options);
    }
  };
  boot();

  // TCP transports put a real NetServer between the fleet and the server.
  // The harness stays sequential (every Send blocks for its reply), so the
  // server sees the exact in-process message order and the decision text is
  // byte-identical — that invariance is what the transport goldens check.
  std::optional<NetServer> net;
  std::vector<std::unique_ptr<NetWorkerClient>> clients;
  if (opts.transport != DumpTransport::kInProc) {
    // A crash plan tears down the server object mid-run; rebinding sockets
    // under the harness adds nothing the in-process chaos path doesn't
    // already prove. Keep the combination off the table.
    HT_CHECK_MSG(!opts.crash,
                 "crash plans require the in-process transport");
    NetServerOptions net_options;
    net_options.clock = NetClock::kMessage;
    // Virtual time only advances with messages, so idle expiry has nothing
    // to do here; park the timer so it never touches the service while this
    // thread reads scheduler state between exchanges.
    net_options.tick_interval = 3600;
    net.emplace(*plain, net_options);
    net->Start();
    NetClientOptions client_options;
    client_options.transport = opts.transport == DumpTransport::kBinaryTcp
                                   ? WireTransport::kBinary
                                   : WireTransport::kJson;
    client_options.io = opts.client_io;
    // Connection pool, workers mapped round-robin: 500-worker dumps should
    // exercise many concurrent connections without hoarding 500 fds.
    const int pool_size = std::min(opts.workers, 64);
    for (int i = 0; i < pool_size; ++i) {
      clients.push_back(std::make_unique<NetWorkerClient>(
          "127.0.0.1", net->port(), client_options));
    }
  }

  if (opts.crash) {
    // Journal each hazard fate draw as an audit-only record. The draw
    // happens worker-side (possibly while the server is down — the guard),
    // so replay ignores these; they exist for post-mortems.
    injector.SetPlanObserver(
        [&](double base_duration, const HazardPlan& plan) {
          if (!durable) return;
          Json record = JsonObject{};
          record.Set("kind", Json("hazard"));
          record.Set("base_duration", Json(base_duration));
          record.Set("duration", Json(plan.duration));
          if (plan.drop_after) record.Set("drop_after", Json(*plan.drop_after));
          durable->JournalAuxiliary(record);
        });
  }

  bool down = false;
  double restart_time = 0;
  dump_internal::HarnessConnection connection(
      [&](const Json& message, double now) -> std::optional<Json> {
        if (net) {
          // Every worker message names its sender; use it to pin each
          // worker to one connection in the pool.
          const auto sender = message.Has("worker")
                                  ? static_cast<std::uint64_t>(
                                        message.at("worker").AsInt())
                                  : 0u;
          auto reply =
              clients[sender % clients.size()]->Send(message, now);
          if (reply) ++result.messages_handled;
          return reply;
        }
        if (down) {
          if (now < restart_time) return std::nullopt;
          boot();  // recovery: latest snapshot + journal tail from disk
          down = false;
        }
        Json reply = durable ? durable->HandleMessage(message, now)
                             : plain->HandleMessage(message, now);
        ++result.messages_handled;
        if (opts.crash && result.messages_handled == opts.crash->crash_at) {
          // Kill the server after the reply left: all in-memory state dies,
          // only the state dir survives. The worker keeps this reply — a
          // crash tears *between* messages, mirroring a process killed
          // between event-loop iterations.
          harvest();
          durable.reset();
          scheduler.reset();
          if (opts.crash->downtime > 0) {
            down = true;
            restart_time = now + opts.crash->downtime;
          } else {
            boot();
          }
        }
        return reply;
      });

  std::vector<SimulatedWorker> pool;
  pool.reserve(static_cast<std::size_t>(opts.workers));
  const WorkerRetryOptions retry{.initial_backoff = 0.5,
                                 .max_backoff = 8.0,
                                 .multiplier = 2.0,
                                 .jitter = 0.25,
                                 .seed = opts.seed};
  for (int i = 0; i < opts.workers; ++i) {
    pool.emplace_back(static_cast<std::uint64_t>(i), env,
                      /*heartbeat_interval=*/5.0, /*prefetch=*/1,
                      injector.enabled() ? &injector : nullptr, retry);
  }
  for (double now = 0; now < 2000; now += 0.25) {
    for (auto& worker : pool) {
      if (now >= worker.next_action_time()) worker.OnTick(connection, now);
    }
    if (scheduler != nullptr && scheduler->Finished()) break;
  }
  // A crash landing near the end can leave the server down with no worker
  // traffic left to trigger recovery; recover now so the final state is
  // readable.
  if (down) boot();
  // Join the event loop before inspecting server state from this thread.
  if (net) net->Stop();

  for (const auto& worker : pool) result.worker_retries += worker.retries();
  result.finished = scheduler->Finished();
  if (durable) result.generation = durable->generation();
  harvest();

  const TuningServer& server = durable ? durable->server() : *plain;
  result.text = FormatDecisionText(opts.kind, opts.seed, opts.workers, server,
                                   *scheduler);
  return result;
}

}  // namespace hypertune
