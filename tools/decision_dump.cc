// Decision-identity dump: drives a scheduler through the simulator and
// through the tuning-service protocol, printing every scheduling decision
// (job hand-outs, completions, recommendations) plus the full telemetry
// trace as deterministic JSONL on stdout.
//
// Hot-path PRs must not change scheduling behavior; diffing (or hashing)
// this tool's output before and after a change proves byte-identity:
//
//   ./decision_dump asha 42 500 | sha256sum
//
// With --hazards the dump additionally exercises straggler/drop injection
// on all three backends: a hazard run through the simulator, one through
// the service protocol (workers carrying a HazardInjector), and a
// single-worker parity section proving the real ThreadPoolExecutor makes
// the *same* per-job complete/drop decisions as the simulator for the same
// seed (wall-clock timestamps are deliberately excluded, so this section is
// deterministic too). The parity check is self-verifying: a divergence
// prints the first mismatching job and exits nonzero.
//
// With --decisions-only the dump prints the pure decision text (resolved
// leases, incumbent trajectory, final trial table — no telemetry trace):
// the payload the crash-recovery harness must reproduce byte-for-byte.
// --crash-at K --state-dir D runs that same service scenario through a
// DurableServer, kills it after K handled messages, restarts it from disk
// (snapshot + journal replay), and prints the same decision text — so
//
//   ./decision_dump asha 42 8 --decisions-only | sha256sum
//   ./decision_dump asha 42 8 --crash-at 500 --state-dir /tmp/d | sha256sum
//
// must agree (and match tools/golden/decision_digests.txt).
//
// With --transport {json-tcp,binary-tcp} every service-protocol message is
// routed through a real NetServer over loopback TCP (src/net) instead of a
// direct call; the dump text never mentions the transport precisely so the
// three variants can be diffed byte-for-byte — the wire layer's
// decision-invariance proof.
//
// Usage: decision_dump <asha|sha|hyperband|random> <seed> <workers>
//                      [--hazards <straggler_std>,<drop_prob>]
//                      [--decisions-only]
//                      [--crash-at <K> --state-dir <dir>] [--downtime <T>]
//                      [--transport inproc|json-tcp|binary-tcp]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/executor.h"
#include "sim/driver.h"
#include "telemetry/telemetry.h"
#include "dump_scenario.h"

namespace hypertune {
namespace {

std::unique_ptr<Scheduler> MakeScheduler(const std::string& kind,
                                         std::uint64_t seed) {
  auto scheduler = MakeDumpScheduler(kind, seed);
  if (scheduler == nullptr) {
    std::cerr << "unknown scheduler kind '" << kind << "'\n";
    std::exit(2);
  }
  return scheduler;
}

DriverResult RunDriver(const std::string& kind, std::uint64_t seed,
                       int workers, const HazardOptions& hazards,
                       Telemetry* telemetry) {
  auto scheduler = MakeScheduler(kind, seed);
  scheduler->SetTelemetry(telemetry);
  DumpEnv env;
  DriverOptions options;
  options.num_workers = workers;
  options.time_limit = 1e6;
  options.seed = seed;
  options.max_completed_jobs = 2000;
  options.hazards = hazards;
  options.telemetry = telemetry;
  SimulationDriver driver(*scheduler, env, options);
  return driver.Run();
}

void PrintRecords(const std::vector<RunRecord>& records) {
  for (const auto& record : records) {
    Json line = JsonObject{};
    line.Set("t", Json(record.end_time));
    line.Set("trial", Json(record.trial_id));
    line.Set("rung", Json(record.rung));
    line.Set("bracket", Json(record.bracket));
    line.Set("loss", Json(record.loss));
    line.Set("dropped", Json(record.lost));
    std::cout << line.Dump() << "\n";
  }
}

void DumpDriverRun(const std::string& kind, std::uint64_t seed, int workers) {
  auto telemetry = Telemetry::ForSimulation();
  const DriverResult result =
      RunDriver(kind, seed, workers, HazardOptions{}, telemetry.get());

  std::cout << "== driver " << kind << " seed=" << seed
            << " workers=" << workers << "\n";
  PrintRecords(result.completions);
  std::cout << telemetry->tracer().ToJsonl();
}

void DumpServiceRun(const std::string& kind, std::uint64_t seed, int workers,
                    const HazardOptions& hazards, DumpTransport transport) {
  auto scheduler = MakeScheduler(kind, seed);
  auto telemetry = Telemetry::ForSimulation();
  scheduler->SetTelemetry(telemetry.get());
  DumpEnv env;
  TuningServer server(*scheduler,
                      {.lease_timeout = 30, .telemetry = telemetry.get()});

  // With a TCP transport every message crosses a real loopback socket via
  // a NetServer in message-clock mode; the dump text (stdout) deliberately
  // never mentions the transport, because byte-identity across transports
  // is the property the goldens pin down.
  std::optional<NetServer> net;
  std::vector<std::unique_ptr<NetWorkerClient>> clients;
  if (transport != DumpTransport::kInProc) {
    NetServerOptions net_options;
    net_options.clock = NetClock::kMessage;
    // Virtual time: idle expiry has nothing to do; park the timer so it
    // never races this thread's reads of scheduler state.
    net_options.tick_interval = 3600;
    net.emplace(server, net_options);
    net->Start();
    NetClientOptions client_options;
    client_options.transport = transport == DumpTransport::kBinaryTcp
                                   ? WireTransport::kBinary
                                   : WireTransport::kJson;
    const int pool_size = std::min(workers, 64);
    for (int i = 0; i < pool_size; ++i) {
      clients.push_back(std::make_unique<NetWorkerClient>(
          "127.0.0.1", net->port(), client_options));
    }
  }

  // One injector shared by the pool: fates are drawn in job start order,
  // which the virtual-time loop below makes deterministic.
  HazardInjector injector(hazards, seed);
  std::vector<SimulatedWorker> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    pool.emplace_back(static_cast<std::uint64_t>(i), env,
                      /*heartbeat_interval=*/5.0, /*prefetch=*/1,
                      injector.enabled() ? &injector : nullptr);
  }
  for (double now = 0; now < 2000; now += 0.25) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      SimulatedWorker& worker = pool[i];
      if (now < worker.next_action_time()) continue;
      if (net) {
        worker.OnTick(*clients[i % clients.size()], now);
      } else {
        worker.OnTick(server, now);
      }
    }
    if (scheduler->Finished()) break;
  }
  // Join the event loop before reading scheduler/telemetry state here.
  if (net) net->Stop();

  std::cout << "== service " << kind << " seed=" << seed
            << " workers=" << workers << "\n";
  const auto stats = server.stats();
  std::cout << "assigned=" << stats.jobs_assigned
            << " completed=" << stats.jobs_completed
            << " expired=" << stats.leases_expired << "\n";
  for (const auto& trial : scheduler->trials()) {
    Json line = JsonObject{};
    line.Set("trial", Json(trial.id));
    line.Set("resource", Json(trial.resource_trained));
    line.Set("status", Json(static_cast<int>(trial.status)));
    std::cout << line.Dump() << "\n";
  }
  std::cout << telemetry->tracer().ToJsonl();
}

/// Runs the same seeded hazard stream through the simulator and the real
/// ThreadPoolExecutor (one worker each, so the lease order — and with it
/// the fate-draw order — is the same sequential order on both) and checks
/// the per-job decision sequences match: same trial, rung, outcome, and
/// loss for every resolved lease. Returns false on divergence.
bool DumpHazardParity(const std::string& kind, std::uint64_t seed,
                      const HazardOptions& hazards) {
  const DriverResult sim =
      RunDriver(kind, seed, /*workers=*/1, hazards, /*telemetry=*/nullptr);

  auto scheduler = MakeScheduler(kind, seed);
  DumpEnv env;
  ExecutorOptions options;
  options.num_workers = 1;
  options.max_jobs = 2000;
  options.hazards = hazards;
  options.hazard_seed = seed;
  options.hazard_duration = [&env](const Job& job) {
    return env.Duration(job.config, job.from_resource, job.to_resource);
  };
  ThreadPoolExecutor executor(
      *scheduler, [&env](const Job& job) {
        return env.Loss(job.config, job.to_resource);
      },
      options);
  const ExecutorResult real = executor.Run();

  std::cout << "== hazard-parity " << kind << " seed=" << seed
            << " straggler=" << hazards.straggler_std
            << " drop=" << hazards.drop_probability << "\n";
  std::cout << "sim: completed=" << sim.jobs_completed
            << " dropped=" << sim.jobs_dropped << "\n";
  std::cout << "executor: completed=" << real.jobs_completed
            << " lost=" << real.jobs_lost << "\n";
  // The decision sequence, stripped of timestamps (the executor's are wall
  // clock): one line per resolved lease, in lease order.
  for (const auto& record : sim.completions) {
    Json line = JsonObject{};
    line.Set("trial", Json(record.trial_id));
    line.Set("rung", Json(record.rung));
    line.Set("bracket", Json(record.bracket));
    line.Set("loss", Json(record.loss));
    line.Set("dropped", Json(record.lost));
    std::cout << line.Dump() << "\n";
  }
  if (sim.completions.size() != real.records.size()) {
    std::cout << "parity=MISMATCH sim_jobs=" << sim.completions.size()
              << " executor_jobs=" << real.records.size() << "\n";
    return false;
  }
  for (std::size_t i = 0; i < sim.completions.size(); ++i) {
    const RunRecord& a = sim.completions[i];
    const RunRecord& b = real.records[i];
    if (a.trial_id != b.trial_id || a.rung != b.rung || a.lost != b.lost ||
        a.loss != b.loss) {
      std::cout << "parity=MISMATCH job=" << i << " sim_trial=" << a.trial_id
                << " exec_trial=" << b.trial_id << " sim_lost=" << a.lost
                << " exec_lost=" << b.lost << "\n";
      return false;
    }
  }
  std::cout << "parity=OK jobs=" << sim.completions.size() << "\n";
  return true;
}

bool DumpHazardRuns(const std::string& kind, std::uint64_t seed, int workers,
                    const HazardOptions& hazards, DumpTransport transport) {
  auto telemetry = Telemetry::ForSimulation();
  const DriverResult result =
      RunDriver(kind, seed, workers, hazards, telemetry.get());
  std::cout << "== hazard-driver " << kind << " seed=" << seed
            << " workers=" << workers
            << " straggler=" << hazards.straggler_std
            << " drop=" << hazards.drop_probability << "\n";
  PrintRecords(result.completions);
  std::cout << "completed=" << result.jobs_completed
            << " dropped=" << result.jobs_dropped << "\n";

  DumpServiceRun(kind, seed, workers, hazards, transport);
  return DumpHazardParity(kind, seed, hazards);
}

}  // namespace
}  // namespace hypertune

namespace {

int Usage() {
  std::cerr << "usage: decision_dump <asha|sha|hyperband|random> <seed>"
               " <workers>"
               " [--hazards <straggler_std>,<drop_prob>]"
               " [--decisions-only]"
               " [--crash-at <K> --state-dir <dir>] [--downtime <T>]"
               " [--transport inproc|json-tcp|binary-tcp]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string kind = argv[1];
  const auto seed = static_cast<std::uint64_t>(std::strtoull(argv[2], nullptr, 10));
  const int workers = std::atoi(argv[3]);

  bool have_hazards = false;
  hypertune::HazardOptions hazards;
  bool decisions_only = false;
  std::optional<std::size_t> crash_at;
  std::string state_dir;
  double downtime = 0;
  hypertune::DumpTransport transport = hypertune::DumpTransport::kInProc;
  for (int i = 4; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--hazards" && i + 1 < argc) {
      char* rest = nullptr;
      hazards.straggler_std = std::strtod(argv[++i], &rest);
      if (rest == nullptr || *rest != ',') {
        std::cerr << "--hazards wants <straggler_std>,<drop_prob>\n";
        return 2;
      }
      hazards.drop_probability = std::strtod(rest + 1, nullptr);
      have_hazards = true;
    } else if (flag == "--decisions-only") {
      decisions_only = true;
    } else if (flag == "--crash-at" && i + 1 < argc) {
      crash_at = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (flag == "--state-dir" && i + 1 < argc) {
      state_dir = argv[++i];
    } else if (flag == "--downtime" && i + 1 < argc) {
      downtime = std::strtod(argv[++i], nullptr);
    } else if (flag == "--transport" && i + 1 < argc) {
      const auto parsed = hypertune::ParseDumpTransport(argv[++i]);
      if (!parsed) {
        std::cerr << "--transport wants inproc, json-tcp, or binary-tcp\n";
        return 2;
      }
      transport = *parsed;
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      return Usage();
    }
  }

  if (crash_at || decisions_only) {
    // The decision-text path: uninterrupted (plain server) by default,
    // crash + recovery through a DurableServer with --crash-at.
    if (crash_at && state_dir.empty()) {
      std::cerr << "--crash-at needs --state-dir\n";
      return 2;
    }
    hypertune::ServiceDecisionsOptions options;
    options.kind = kind;
    options.seed = seed;
    options.workers = workers;
    options.hazards = hazards;
    options.transport = transport;
    if (crash_at) {
      if (transport != hypertune::DumpTransport::kInProc) {
        std::cerr << "--crash-at requires --transport inproc\n";
        return 2;
      }
      hypertune::CrashPlan plan;
      plan.crash_at = *crash_at;
      plan.state_dir = state_dir;
      plan.downtime = downtime;
      options.crash = plan;
    }
    if (hypertune::MakeDumpScheduler(kind, seed) == nullptr) {
      std::cerr << "unknown scheduler kind '" << kind << "'\n";
      return 2;
    }
    const auto result = hypertune::RunServiceDecisions(options);
    std::cout << result.text;
    if (crash_at) {
      std::cerr << "recovered=" << result.recovered
                << " replayed=" << result.replayed_events
                << " generation=" << result.generation
                << " retries=" << result.worker_retries
                << " finished=" << result.finished << "\n";
    }
    return result.finished ? 0 : 1;
  }

  if (have_hazards) {
    return hypertune::DumpHazardRuns(kind, seed, workers, hazards, transport)
               ? 0
               : 1;
  }
  hypertune::DumpDriverRun(kind, seed, workers);
  hypertune::DumpServiceRun(kind, seed, workers, hypertune::HazardOptions{},
                            transport);
  return 0;
}
