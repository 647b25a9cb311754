// hypertune_cli — run any tuner against any surrogate benchmark from the
// command line and print (and optionally export) the aggregated results.
//
// Examples:
//   hypertune_cli --benchmark=cifar_arch --tuner=asha --workers=25 \
//                 --time=150 --trials=5
//   hypertune_cli --benchmark=ptb_lstm --tuner=vizier --workers=500 \
//                 --time-in-r=6 --out=/tmp/ptb.json
//   hypertune_cli --list
//
// Network mode (src/net): `--serve=PORT` runs the tuning service on a real
// TCP socket (optionally durable with --state-dir); `--connect=HOST:PORT`
// drives a fleet of simulated workers against such a server over the
// binary or JSON wire protocol. See README "Running over the network".
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "analysis/experiment.h"
#include "analysis/export.h"
#include "analysis/report.h"
#include "common/check.h"
#include "common/table.h"
#include "durability/durable_server.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "registry/registry.h"
#include "service/worker.h"
#include "study/study_manager.h"
#include "surrogate/benchmarks.h"
#include "telemetry/telemetry.h"

using namespace hypertune;

namespace {

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stod(it->second);
  }
  int GetInt(const std::string& key, int fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stoi(it->second);
  }
  bool Has(const std::string& key) const { return values.contains(key); }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    HT_CHECK_MSG(arg.rfind("--", 0) == 0, "flags look like --key=value, got '"
                                              << arg << "'");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values[arg] = "true";
    } else {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

int Usage() {
  std::cout <<
      R"(hypertune_cli — surrogate hyperparameter-tuning experiments

Flags:
  --list                 print available tuners and benchmarks, then exit
  --benchmark=NAME       surrogate task (default cifar_arch)
  --tuner=NAME[,NAME...] tuner(s) to run (default asha)
  --workers=N            parallel workers (default 25)
  --time=T               virtual-time budget in the task's units (minutes)
  --time-in-r=X          budget as a multiple of mean time(R) (overrides --time)
  --trials=N             independent repetitions (default 3)
  --eta=E --s=S          successive-halving parameters (default 4, 0)
  --r-divisor=D          r = R / D (default 256)
  --n=N                  bracket size / n0 (default 256)
  --seed=S               base seed (default 1000)
  --grid-points=N        rows in the printed time series (default 12)
  --out=PATH             also export results as JSON
  --trace-out=PATH       write a Chrome trace_event JSON of the first
                         repetition (open in chrome://tracing or Perfetto);
                         byte-identical across reruns with the same seed
  --trace-jsonl=PATH     same events as JSONL (one object per line)
  --metrics-out=PATH     write the metrics-registry snapshot as JSON

Network mode:
  --serve=PORT           run the tuning service on a TCP port (0 picks an
                         ephemeral one, printed at startup); scheduler from
                         --tuner/--benchmark/--seed as usual
  --state-dir=DIR        (serve) durable mode: WAL + snapshots in DIR; a
                         restart with the same flags recovers the study
  --serve-seconds=T      (serve) stop after T wall seconds (default: run
                         until Ctrl-C)
  --lease-timeout=T      (serve) lease timeout in wall seconds (default 60)
  --multi-study          (serve) host a StudyManager instead of one study:
                         clients create/suspend/resume/delete/list studies
                         over the wire in one single-threaded study
                         index; --tuner (asha|sha|hyperband|random, where
                         hyperband is the asynchronous variant) and --seed
                         set the default study (named "default", where
                         study-less messages go), sized as --serve sizes
                         it: R from --benchmark, r = R / --r-divisor,
                         --eta, and --n as SHA's n or Hyperband's n0;
                         --state-dir roots per-study durability under
                         DIR/studies/<name>/
  --max-leases=N         (serve --multi-study) default per-study quota
                         (default 0 = unlimited)
  --connect=HOST:PORT    drive --workers simulated workers against a served
                         study; the surrogate --benchmark supplies losses
  --study=NAME           (connect) pin every message the fleet sends to
                         study NAME (absent: the server's default study)
  --create=KIND          (connect) create --study first with scheduler KIND
                         (asha|sha|hyperband|random) seeded by --seed and
                         sized like the --multi-study default study; an
                         already-exists error just means another fleet won
                         the race
  --transport=NAME       (connect) binary (default) or json
  --time-scale=X         (connect) virtual task-time units per wall second
                         (default 60)
  --connect-seconds=T    (connect) stop after T wall seconds (default 10)
)";
  return 0;
}

std::atomic<bool> g_interrupted{false};

void OnInterrupt(int) { g_interrupted.store(true); }

/// Blocks until Ctrl-C / SIGTERM, or `serve_seconds` elapse (0 = forever).
void ServeUntilInterrupted(double serve_seconds) {
  std::signal(SIGINT, OnInterrupt);
  std::signal(SIGTERM, OnInterrupt);
  const auto start = std::chrono::steady_clock::now();
  while (!g_interrupted.load()) {
    if (serve_seconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= serve_seconds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// `--serve=PORT`: the tuning service on a real socket, wall-clock leases,
/// idle-expiry timer running — the deployment shape from the paper, scaled
/// down to one process.
int RunServe(const Flags& flags) {
  const std::string benchmark_name = flags.Get("benchmark", "cifar_arch");
  const std::string tuner = flags.Get("tuner", "asha");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1000));
  auto bench = benchmarks::ByName(benchmark_name, seed);

  TunerParams params;
  params.eta = flags.GetDouble("eta", 4);
  params.s = flags.GetInt("s", 0);
  params.r_divisor = flags.GetDouble("r-divisor", 256);
  params.n = static_cast<std::size_t>(flags.GetInt("n", 256));
  params.seed = seed;
  auto scheduler = MakeTunerByName(tuner, *bench, params);

  const ServerOptions server_options{
      .lease_timeout = flags.GetDouble("lease-timeout", 60),
      .track_recommendations = true};
  std::unique_ptr<TuningServer> plain;
  std::optional<DurableServer> durable;
  MessageService* service = nullptr;
  if (flags.Has("state-dir")) {
    durable.emplace(*scheduler, server_options,
                    DurabilityOptions{.dir = flags.Get("state-dir", "")});
    if (durable->recovered()) {
      std::cout << "recovered generation " << durable->generation()
                << " (+" << durable->replayed_events()
                << " journal events) from " << flags.Get("state-dir", "")
                << "\n";
    }
    service = &*durable;
  } else {
    plain = std::make_unique<TuningServer>(*scheduler, server_options);
    service = plain.get();
  }

  NetServerOptions net_options;
  net_options.port = flags.GetInt("serve", 0);
  net_options.clock = NetClock::kWall;
  NetServer net(*service, net_options);
  net.Start();
  std::cout << "serving " << tuner << " on " << benchmark_name << " at "
            << net_options.bind_address << ":" << net.port() << "\n";

  ServeUntilInterrupted(flags.GetDouble("serve-seconds", 0));
  net.Stop();  // drain replies, close sockets, join — workers see EOF

  const TuningServer& server = durable ? durable->server() : *plain;
  const auto net_stats = net.stats();
  const auto stats = server.stats();
  std::cout << "connections=" << net_stats.connections_accepted
            << " messages=" << net_stats.messages_handled
            << " ticks=" << net_stats.timer_ticks
            << " rejected=" << net_stats.messages_rejected << "\n"
            << "assigned=" << stats.jobs_assigned
            << " completed=" << stats.jobs_completed
            << " expired=" << stats.leases_expired << "\n";
  if (const auto best = server.Current()) {
    std::cout << "best: trial=" << best->trial_id << " loss="
              << FormatDouble(best->loss, 4) << "\n";
  }
  return 0;
}

/// The stock study factory's config for `kind`, sized the way RunServe
/// sizes a tuner: R is the benchmark's R, r = R / --r-divisor, eta is
/// --eta, and --n is SHA's n or Hyperband's n0. Throws for a kind the
/// factory cannot build.
Json StudyConfig(const Flags& flags, const std::string& kind, double R,
                 std::uint64_t seed) {
  HT_CHECK_MSG(kind == "asha" || kind == "sha" || kind == "hyperband" ||
                   kind == "random",
               "'" << kind
                   << "' cannot run as a study; study kinds are asha, sha, "
                      "hyperband (the asynchronous variant here) and random");
  Json config = JsonObject{};
  config.Set("kind", Json(kind));
  config.Set("seed", Json(static_cast<std::int64_t>(seed)));
  config.Set("R", Json(R));
  if (kind == "random") return config;
  config.Set("r", Json(R / flags.GetDouble("r-divisor", 256)));
  config.Set("eta", Json(flags.GetDouble("eta", 4)));
  const Json n(static_cast<std::int64_t>(flags.GetInt("n", 256)));
  if (kind == "sha") config.Set("n", n);
  if (kind == "hyperband") config.Set("n0", n);
  return config;
}

/// `--serve=PORT --multi-study`: one server, many studies. Lease traffic
/// routes by the "study" field on each message; the admin vocabulary
/// (create_study/.../list_studies) manages tenants over the same socket.
/// With --state-dir each study journals under DIR/studies/<name>/ and a
/// restart recovers all of them.
int RunServeMultiStudy(const Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1000));
  const auto bench =
      benchmarks::ByName(flags.Get("benchmark", "cifar_arch"), seed);

  StudyManagerOptions options;
  options.server =
      ServerOptions{.lease_timeout = flags.GetDouble("lease-timeout", 60),
                    .track_recommendations = true};
  options.durability_root = flags.Get("state-dir", "");
  options.default_max_leases =
      static_cast<std::size_t>(flags.GetInt("max-leases", 0));
  options.default_config =
      StudyConfig(flags, flags.Get("tuner", "asha"), bench->R(), seed);
  StudyManager manager(MakeStudySchedulerFactory(bench->space()), options);
  if (manager.stats().recovered > 0) {
    std::cout << "recovered " << manager.stats().recovered << " studies from "
              << options.durability_root << "\n";
  }

  NetServerOptions net_options;
  net_options.port = flags.GetInt("serve", 0);
  net_options.clock = NetClock::kWall;
  NetServer net(manager, net_options);
  net.Start();
  std::cout << "serving studies (default tuner " << flags.Get("tuner", "asha")
            << " on " << flags.Get("benchmark", "cifar_arch") << ") at "
            << net_options.bind_address << ":" << net.port() << "\n";

  ServeUntilInterrupted(flags.GetDouble("serve-seconds", 0));
  net.Stop();

  const auto net_stats = net.stats();
  std::cout << "connections=" << net_stats.connections_accepted
            << " messages=" << net_stats.messages_handled
            << " ticks=" << net_stats.timer_ticks
            << " rejected=" << net_stats.messages_rejected << "\n";
  for (const auto& info : manager.ListStudies()) {
    std::cout << "study " << info.name
              << (info.suspended ? " suspended" : " active")
              << " assigned=" << info.jobs_assigned
              << " completed=" << info.jobs_completed
              << " active_leases=" << info.active_leases << "\n";
  }
  return 0;
}

/// `--connect=HOST:PORT`: a simulated-worker fleet speaking the wire
/// protocol against a remote server; virtual task time advances at
/// --time-scale units per wall second.
int RunConnect(const Flags& flags) {
  const std::string target = flags.Get("connect", "");
  const auto colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::cerr << "--connect wants HOST:PORT\n";
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const int port = std::atoi(target.c_str() + colon + 1);

  const std::string transport_name = flags.Get("transport", "binary");
  NetClientOptions client_options;
  if (transport_name == "binary") {
    client_options.transport = WireTransport::kBinary;
  } else if (transport_name == "json") {
    client_options.transport = WireTransport::kJson;
  } else {
    std::cerr << "--transport wants binary or json\n";
    return 2;
  }
  client_options.reply_timeout = 10;

  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1000));
  auto bench = benchmarks::ByName(flags.Get("benchmark", "cifar_arch"), seed);
  const int workers = flags.GetInt("workers", 4);
  const double time_scale = flags.GetDouble("time-scale", 60);
  const double connect_seconds = flags.GetDouble("connect-seconds", 10);

  std::vector<NetWorkerClient> clients;
  std::vector<SimulatedWorker> fleet;
  clients.reserve(static_cast<std::size_t>(workers));
  fleet.reserve(static_cast<std::size_t>(workers));
  const std::string study = flags.Get("study", "");
  for (int i = 0; i < workers; ++i) {
    clients.emplace_back(host, port, client_options);
    fleet.emplace_back(static_cast<std::uint64_t>(i), *bench,
                       /*heartbeat_interval=*/5.0);
    if (!study.empty()) fleet.back().SetStudy(study);
  }

  if (flags.Has("create")) {
    if (study.empty()) {
      std::cerr << "--create wants --study=NAME to create\n";
      return 2;
    }
    Json create = JsonObject{};
    create.Set("type", Json("create_study"));
    create.Set("study", Json(study));
    create.Set("config", StudyConfig(flags, flags.Get("create", "random"),
                                     bench->R(), seed));
    const auto reply = clients.front().Send(create, 0.0);
    std::cout << "create_study " << study << ": "
              << (reply ? reply->Dump() : "(no reply)") << "\n";
  }

  std::signal(SIGINT, OnInterrupt);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (g_interrupted.load() || elapsed >= connect_seconds) break;
    const double now = elapsed * time_scale;
    for (int i = 0; i < workers; ++i) {
      if (now >= fleet[static_cast<std::size_t>(i)].next_action_time()) {
        fleet[static_cast<std::size_t>(i)].OnTick(
            clients[static_cast<std::size_t>(i)], now);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::size_t completed = 0;
  std::size_t retries = 0;
  for (const auto& worker : fleet) {
    completed += worker.jobs_completed();
    retries += worker.retries();
  }
  std::cout << "workers=" << workers << " completed=" << completed
            << " retries=" << retries << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags = ParseFlags(argc, argv);
    if (flags.Has("help") || flags.Has("h")) return Usage();
    if (flags.Has("serve")) {
      return flags.Has("multi-study") ? RunServeMultiStudy(flags)
                                      : RunServe(flags);
    }
    if (flags.Has("connect")) return RunConnect(flags);
    if (flags.Has("list")) {
      std::cout << "tuners:";
      for (const auto& name : TunerNames()) std::cout << " " << name;
      std::cout << "\nbenchmarks:";
      for (const auto& name : benchmarks::AllNames()) std::cout << " " << name;
      std::cout << "\n";
      return 0;
    }

    const std::string benchmark_name = flags.Get("benchmark", "cifar_arch");
    const std::string tuner_list = flags.Get("tuner", "asha");

    TunerParams params;
    params.eta = flags.GetDouble("eta", 4);
    params.s = flags.GetInt("s", 0);
    params.r_divisor = flags.GetDouble("r-divisor", 256);
    params.n = static_cast<std::size_t>(flags.GetInt("n", 256));

    ExperimentOptions options;
    options.num_trials = flags.GetInt("trials", 3);
    options.num_workers = flags.GetInt("workers", 25);
    options.grid_points = static_cast<std::size_t>(
        flags.GetInt("grid-points", 12));
    options.base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1000));

    // Observability: a virtual-clock sink keeps simulated traces
    // deterministic (byte-identical across reruns of the same seed).
    const bool want_telemetry = flags.Has("trace-out") ||
                                flags.Has("trace-jsonl") ||
                                flags.Has("metrics-out");
    std::unique_ptr<Telemetry> telemetry;
    if (want_telemetry) {
      telemetry = Telemetry::ForSimulation();
      options.telemetry = telemetry.get();
    }

    auto probe = benchmarks::ByName(benchmark_name, 1);
    if (flags.Has("time-in-r")) {
      options.time_limit = flags.GetDouble("time-in-r", 4) * probe->MeanTimeOfR();
    } else {
      options.time_limit = flags.GetDouble("time", 150);
    }

    std::cout << "benchmark: " << benchmark_name << " (R=" << probe->R()
              << ", mean time(R)=" << FormatDouble(probe->MeanTimeOfR(), 2)
              << ")\nworkers: " << options.num_workers
              << ", budget: " << FormatDouble(options.time_limit, 1)
              << ", trials: " << options.num_trials << "\n\n";

    std::vector<MethodResult> results;
    std::string remaining = tuner_list;
    while (!remaining.empty()) {
      const auto comma = remaining.find(',');
      const std::string tuner = remaining.substr(0, comma);
      remaining = comma == std::string::npos ? "" : remaining.substr(comma + 1);

      results.push_back(
          RunExperiment(benchmark_name, {tuner, tuner, params}, options));
    }

    const std::string metric = probe->spec().metric_name;
    std::cout << SeriesTable(results, "time", metric).ToMarkdown() << "\n"
              << SummaryTable(results, metric).ToMarkdown();

    if (flags.Has("out")) {
      const std::string path = flags.Get("out", "");
      if (ExportExperiment(path, benchmark_name, results)) {
        std::cout << "\nexported to " << path << "\n";
      } else {
        std::cerr << "failed to write " << path << "\n";
        return 1;
      }
    }

    if (telemetry) {
      std::cout << "\n## Telemetry\n\n" << telemetry->SummaryText();
      const auto write_or_die = [](const std::string& path,
                                   const std::string& content) {
        if (WriteFile(path, content)) {
          std::cout << "wrote " << path << "\n";
          return true;
        }
        std::cerr << "failed to write " << path << "\n";
        return false;
      };
      if (flags.Has("trace-out") &&
          !write_or_die(flags.Get("trace-out", ""),
                        telemetry->tracer().ToChromeTrace().Dump(2) + "\n")) {
        return 1;
      }
      if (flags.Has("trace-jsonl") &&
          !write_or_die(flags.Get("trace-jsonl", ""),
                        telemetry->tracer().ToJsonl())) {
        return 1;
      }
      if (flags.Has("metrics-out") &&
          !write_or_die(flags.Get("metrics-out", ""),
                        telemetry->MetricsJson().Dump(2) + "\n")) {
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
