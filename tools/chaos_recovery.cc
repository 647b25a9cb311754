// Chaos-restart harness: proves crash recovery is decision-exact.
//
// For every (scheduler kind x seed x crash point) it runs the shared
// service scenario twice — once uninterrupted, once killing the server
// after K handled messages and restarting it from its durable state dir
// (latest snapshot + journal-tail replay) — and requires the two decision
// texts (every resolved lease, the incumbent trajectory, the final trial
// table) to be byte-identical. Crash points are picked as fractions of the
// golden run's message count, so they land early (journal-only recovery),
// mid-run, and late (snapshot + tail) without hand-tuned constants.
//
// A final scenario keeps the server down for a stretch of virtual time to
// exercise the workers' capped-exponential reconnect backoff: identity is
// out (leases expire during the outage), so it asserts liveness instead —
// the run still finishes and the workers actually retried.
//
// With --studies N the same contract extends to multi-tenancy: one
// StudyManager hosts N studies (cycling scheduler kind x seed), each with
// its own worker fleet, and is killed/recovered at crash points spread
// across the run. Every study's decision text must be byte-identical to
// its uninterrupted SINGLE-study golden — a crash of the shared server
// perturbs no tenant's search.
//
// Two fault-injection suites extend the contract beyond clean kills:
//
//   --net-faults  routes the run over real TCP with a FaultyTransport on
//   the client side. Benign faults (short reads/writes, EAGAIN bursts,
//   tiny delays) must leave the decision text byte-identical to the
//   in-process golden — the framing layer absorbs them completely. Lossy
//   faults (corruption, mid-frame disconnects) give up identity but must
//   keep liveness: the run finishes, workers retried, the server never
//   crashed.
//
//   --enospc  routes the run through a DurableServer whose file ops pass
//   through a FaultFs. A one-op ENOSPC blip and a one-fsync EIO blip must
//   be invisible (degraded mode entered and exited, decision text still
//   byte-identical); a 40-op ENOSPC burst must keep the server alive and
//   read-only (grants denied, records buffered) and, once space returns,
//   the journal must hold *everything* — proven by recovering a fresh
//   server from the state dir and requiring its decision text to equal
//   the live run's.
//
// Usage: chaos_recovery <scratch-dir> [--quick] [--studies N]
//                       [--net-faults] [--enospc]
//   --quick: one seed, one crash point per kind (CI smoke).
//   --studies N: run the multi-tenant scenario with N studies instead.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "dump_scenario.h"
#include "fault/fault.h"
#include "fault/fault_fs.h"
#include "study_scenario.h"

namespace hypertune {
namespace {

/// First line where the two dumps differ, for the failure report.
std::string FirstDiff(const std::string& golden, const std::string& actual) {
  std::istringstream a(golden);
  std::istringstream b(actual);
  std::string line_a;
  std::string line_b;
  std::size_t line = 1;
  while (true) {
    const bool has_a = static_cast<bool>(std::getline(a, line_a));
    const bool has_b = static_cast<bool>(std::getline(b, line_b));
    if (!has_a && !has_b) return "(no difference found?)";
    if (!has_a || !has_b || line_a != line_b) {
      std::ostringstream out;
      out << "line " << line << ":\n  golden: "
          << (has_a ? line_a : "<end of dump>")
          << "\n  actual: " << (has_b ? line_b : "<end of dump>");
      return out.str();
    }
    ++line;
  }
}

int RunMultiStudyChaos(const std::string& scratch, std::size_t studies,
                       bool quick) {
  // One single-study golden per distinct (kind, seed) combo; every study
  // with that combo must reproduce it byte-for-byte.
  std::map<std::string, std::string> goldens;
  std::size_t golden_messages = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(studies, 9); ++i) {
    const auto [kind, seed] = MultiStudyCombo(i);
    const std::string key = kind + "/" + std::to_string(seed);
    if (goldens.count(key) != 0) continue;
    ServiceDecisionsOptions options;
    options.kind = kind;
    options.seed = seed;
    options.workers = 8;
    const auto golden = RunServiceDecisions(options);
    golden_messages += golden.messages_handled;
    goldens[key] = golden.text;
    std::cout << "golden  " << kind << " seed=" << seed << " messages="
              << golden.messages_handled << " crc32=" << std::hex
              << Crc32(golden.text) << std::dec << "\n";
  }
  // Estimated total traffic, to spread crash points across the run the
  // same way the single-study harness does.
  const std::size_t estimated =
      golden_messages * std::max<std::size_t>(studies / goldens.size(), 1);
  const std::vector<double> fractions =
      quick ? std::vector<double>{0.5} : std::vector<double>{0.1, 0.5, 0.9};

  int failures = 0;
  for (const double fraction : fractions) {
    auto crash_at = static_cast<std::size_t>(
        fraction * static_cast<double>(estimated));
    if (crash_at == 0) crash_at = 1;
    MultiStudyOptions options;
    options.studies = studies;
    options.workers = 8;
    options.crash_at = crash_at;
    options.state_dir =
        (std::filesystem::path(scratch) /
         ("studies-" + std::to_string(studies) + "-" +
          std::to_string(crash_at)))
            .string();
    std::filesystem::remove_all(options.state_dir);
    const auto result = RunMultiStudyDecisions(options);

    std::size_t mismatched = 0;
    for (const auto& [name, text] : result.texts) {
      const auto& [kind, seed] = result.combos.at(name);
      const std::string& golden = goldens.at(kind + "/" +
                                             std::to_string(seed));
      if (text != golden) {
        ++mismatched;
        std::cout << "MISMATCH study=" << name << " crash-at=" << crash_at
                  << "\n" << FirstDiff(golden, text) << "\n";
      }
    }
    std::cout << (mismatched == 0 ? "OK      " : "MISMATCH")
              << " studies=" << studies << " crash-at=" << crash_at
              << " crashed=" << result.crashed
              << " recovered=" << result.recovered_studies
              << " matched=" << (result.texts.size() - mismatched) << "/"
              << result.texts.size() << "\n";
    if (mismatched != 0 || !result.crashed ||
        result.recovered_studies != studies) {
      ++failures;
    } else {
      std::filesystem::remove_all(options.state_dir);
    }
  }

  if (failures > 0) {
    std::cout << "multi-study chaos FAILED: " << failures << " run(s)\n";
    return 1;
  }
  std::cout << "multi-study chaos passed: every tenant matched its"
               " single-study golden byte-for-byte\n";
  return 0;
}

int RunNetFaultChaos(bool quick) {
  ServiceDecisionsOptions base;
  base.kind = "asha";
  base.seed = 42;
  base.workers = 8;
  const auto golden = RunServiceDecisions(base);
  std::cout << "golden  " << base.kind << " seed=" << base.seed
            << " messages=" << golden.messages_handled << " crc32="
            << std::hex << Crc32(golden.text) << std::dec << "\n";

  int failures = 0;

  // Benign faults: everything the framing layer can absorb losslessly.
  // Short ops tear frames across arbitrary byte boundaries, EAGAIN bursts
  // force retry loops, small delays shake up timing — none of it may move
  // a single decision byte.
  std::vector<DumpTransport> transports = {DumpTransport::kBinaryTcp};
  if (!quick) transports.push_back(DumpTransport::kJsonTcp);
  for (const DumpTransport transport : transports) {
    FaultPlan plan;
    plan.seed = 7;
    plan.short_op_rate = 0.5;
    plan.eagain_rate = 0.1;
    plan.eagain_burst = 3;
    plan.delay_rate = 0.002;
    plan.delay_seconds = 0.0005;
    FaultyTransport faulty(plan);
    ServiceDecisionsOptions options = base;
    options.transport = transport;
    options.client_io = &faulty;
    const auto result = RunServiceDecisions(options);
    const FaultStats stats = faulty.stats();
    const bool identical = result.text == golden.text;
    const bool exercised = stats.short_ops > 0 && stats.eagains > 0;
    std::cout << (identical && exercised ? "OK      " : "MISMATCH")
              << " net-benign transport=" << DumpTransportName(transport)
              << " ops=" << stats.ops << " short=" << stats.short_ops
              << " eagain=" << stats.eagains << " delays=" << stats.delays
              << "\n";
    if (!identical) {
      ++failures;
      std::cout << FirstDiff(golden.text, result.text) << "\n";
    } else if (!exercised) {
      ++failures;
      std::cout << "  fault plan injected nothing — scenario is vacuous\n";
    }
  }

  // Lossy faults: corruption and mid-frame disconnects lose exchanges for
  // real, so identity is out; the contract is liveness. The study still
  // finishes, workers visibly retried, and the server survived every
  // mangled frame (its CRC layer turns corruption into error replies).
  {
    FaultPlan plan;
    plan.seed = 11;
    plan.short_op_rate = 0.3;
    plan.corrupt_rate = 0.01;
    plan.disconnect_rate = 0.002;
    FaultyTransport faulty(plan);
    ServiceDecisionsOptions options = base;
    options.transport = DumpTransport::kBinaryTcp;
    options.client_io = &faulty;
    const auto result = RunServiceDecisions(options);
    const FaultStats stats = faulty.stats();
    const bool exercised = stats.corruptions > 0 && stats.disconnects > 0;
    const bool ok = result.finished && result.worker_retries > 0 && exercised;
    std::cout << (ok ? "OK      " : "FAIL    ")
              << " net-lossy finished=" << result.finished
              << " retries=" << result.worker_retries
              << " corrupted=" << stats.corruptions
              << " disconnects=" << stats.disconnects << "\n";
    if (!ok) ++failures;
  }

  if (failures > 0) {
    std::cout << "network-fault chaos FAILED: " << failures
              << " scenario(s)\n";
    return 1;
  }
  std::cout << "network-fault chaos passed: benign faults were byte-"
               "invisible, lossy faults cost only retries\n";
  return 0;
}

int RunEnospcChaos(const std::string& scratch, bool quick) {
  (void)quick;  // every scenario here is one seeded run; nothing to trim
  ServiceDecisionsOptions base;
  base.kind = "asha";
  base.seed = 42;
  base.workers = 8;
  const auto golden = RunServiceDecisions(base);
  std::cout << "golden  " << base.kind << " seed=" << base.seed
            << " messages=" << golden.messages_handled << " crc32="
            << std::hex << Crc32(golden.text) << std::dec << "\n";

  // Durable runs route every journal write/fsync through the FaultFs; a
  // huge snapshot_every keeps snapshots out of the op stream so windows
  // land on journal ops only.
  const auto durable_options = [&](const std::string& dir, FileOps* ops) {
    ServiceDecisionsOptions options = base;
    CrashPlan plan;
    plan.crash_at = 0;  // durable, never killed — the fault is the chaos
    plan.state_dir = dir;
    plan.snapshot_every = 1u << 30;
    options.crash = plan;
    options.file_ops = ops;
    return options;
  };

  int failures = 0;

  // Probe: an uninterrupted durable run counts file ops (and locates the
  // kEveryN fsyncs) so the fault windows below can be placed as fractions
  // of the real op stream, not hand-tuned constants.
  const std::string probe_dir =
      (std::filesystem::path(scratch) / "enospc-probe").string();
  std::filesystem::remove_all(probe_dir);
  FaultFs probe({});
  const auto probe_run = RunServiceDecisions(durable_options(probe_dir, &probe));
  const std::size_t total_ops = probe.ops_seen();
  const auto fsyncs = probe.op_indices(FaultFs::OpKind::kFsync);
  if (probe_run.text != golden.text || total_ops == 0 || fsyncs.empty()) {
    std::cout << "FAIL     enospc-probe: durable run diverged from golden"
              << " (ops=" << total_ops << " fsyncs=" << fsyncs.size()
              << ")\n";
    return 1;
  }
  std::filesystem::remove_all(probe_dir);
  std::cout << "probe    file-ops=" << total_ops
            << " fsyncs=" << fsyncs.size() << "\n";

  // Scenario 1 — ENOSPC blip: exactly one failing op mid-run. The server
  // enters degraded mode, the very next message's probe flushes the
  // buffered record and exits it; no grant is ever denied, so the decision
  // stream must stay byte-identical to the golden.
  {
    const std::string dir =
        (std::filesystem::path(scratch) / "enospc-blip").string();
    std::filesystem::remove_all(dir);
    FaultFs faults({FsFaultWindow{.begin = total_ops / 2, .count = 1}});
    const auto result = RunServiceDecisions(durable_options(dir, &faults));
    const auto& d = result.durability;
    const bool identical = result.text == golden.text;
    const bool degraded_cycle =
        d.degraded_entered >= 1 && d.degraded_exited >= 1 &&
        !result.degraded_final;
    const bool ok = identical && degraded_cycle &&
                    faults.faults_injected() == 1 && result.finished;
    std::cout << (ok ? "OK      " : "FAIL    ")
              << " enospc-blip at-op=" << total_ops / 2
              << " write-failures=" << d.journal_write_failures
              << " sync-failures=" << d.journal_sync_failures
              << " degraded=" << d.degraded_entered << "/" << d.degraded_exited
              << " denied=" << d.grants_denied << "\n";
    if (!identical) std::cout << FirstDiff(golden.text, result.text) << "\n";
    if (!ok) ++failures;
    else std::filesystem::remove_all(dir);
  }

  // Scenario 2 — EIO on exactly one kEveryN fsync (the wal.cc regression:
  // this return value used to be unchecked). The frame's bytes are on
  // disk, only durability lags; the next probe fsyncs and recovers.
  // Nothing is denied or buffered, so identity must hold here too.
  {
    const std::string dir =
        (std::filesystem::path(scratch) / "eio-fsync").string();
    std::filesystem::remove_all(dir);
    const std::size_t target = fsyncs[fsyncs.size() / 2];
    FaultFs faults({FsFaultWindow{.begin = target,
                                  .count = 1,
                                  .error = EIO,
                                  .fail_writes = false,
                                  .fail_renames = false,
                                  .fail_truncates = false}});
    const auto result = RunServiceDecisions(durable_options(dir, &faults));
    const auto& d = result.durability;
    const bool identical = result.text == golden.text;
    const bool ok = identical && d.journal_sync_failures >= 1 &&
                    d.degraded_entered >= 1 && d.degraded_exited >= 1 &&
                    !result.degraded_final && d.records_buffered == 0 &&
                    d.grants_denied == 0 && faults.faults_injected() == 1 &&
                    result.finished;
    std::cout << (ok ? "OK      " : "FAIL    ")
              << " eio-fsync at-op=" << target
              << " sync-failures=" << d.journal_sync_failures
              << " degraded=" << d.degraded_entered << "/" << d.degraded_exited
              << " buffered=" << d.records_buffered << "\n";
    if (!identical) std::cout << FirstDiff(golden.text, result.text) << "\n";
    if (!ok) ++failures;
    else std::filesystem::remove_all(dir);
  }

  // Scenario 3 — ENOSPC burst: the disk stays full across ~40 ops. The
  // server must go read-only (grants denied, reports/heartbeats buffered),
  // resume journaling when the window clears, and finish the study. The
  // live run's decisions legitimately differ from the golden (denials
  // shift grants), so the check is recovery equivalence instead: a fresh
  // server recovered from the state dir must reproduce the live run's
  // decision text exactly — i.e. every buffered record landed in the
  // journal, in order.
  {
    const std::string dir =
        (std::filesystem::path(scratch) / "enospc-burst").string();
    std::filesystem::remove_all(dir);
    FaultFs faults({FsFaultWindow{.begin = total_ops / 2, .count = 40}});
    const auto result = RunServiceDecisions(durable_options(dir, &faults));
    const auto& d = result.durability;
    const bool degraded_cycle =
        d.degraded_entered >= 1 && d.degraded_exited >= 1 &&
        !result.degraded_final;
    const bool read_only_held =
        d.grants_denied > 0 && d.records_buffered > 0;
    bool recovery_identical = false;
    {
      auto scheduler = MakeDumpScheduler(base.kind, base.seed);
      DurableServer recovered(*scheduler, DumpServerOptions(),
                              DurabilityOptions{.dir = dir});
      recovery_identical =
          recovered.recovered() &&
          FormatDecisionText(base.kind, base.seed, base.workers,
                             recovered.server(), *scheduler) == result.text;
      if (!recovery_identical) {
        std::cout << FirstDiff(
                         result.text,
                         FormatDecisionText(base.kind, base.seed,
                                            base.workers, recovered.server(),
                                            *scheduler))
                  << "\n";
      }
    }
    const bool ok = result.finished && degraded_cycle && read_only_held &&
                    recovery_identical;
    std::cout << (ok ? "OK      " : "FAIL    ")
              << " enospc-burst ops=[" << total_ops / 2 << ","
              << total_ops / 2 + 40 << ")"
              << " denied=" << d.grants_denied
              << " buffered=" << d.records_buffered
              << " degraded=" << d.degraded_entered << "/"
              << d.degraded_exited
              << " recovery-identical=" << recovery_identical << "\n";
    if (!ok) ++failures;
    else std::filesystem::remove_all(dir);
  }

  if (failures > 0) {
    std::cout << "enospc chaos FAILED: " << failures << " scenario(s)\n";
    return 1;
  }
  std::cout << "enospc chaos passed: blips were byte-invisible, the burst"
               " went read-only and lost nothing\n";
  return 0;
}

int RunChaos(const std::string& scratch, bool quick) {
  const std::vector<std::string> kinds = {"asha", "sha", "hyperband"};
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{42}
            : std::vector<std::uint64_t>{1, 42, 1000};
  // Crash after these fractions of the golden run's handled messages.
  const std::vector<double> fractions =
      quick ? std::vector<double>{0.5} : std::vector<double>{0.1, 0.5, 0.9};

  int failures = 0;
  for (const auto& kind : kinds) {
    for (const auto seed : seeds) {
      ServiceDecisionsOptions options;
      options.kind = kind;
      options.seed = seed;
      options.workers = 8;
      const auto golden = RunServiceDecisions(options);
      std::cout << "golden  " << kind << " seed=" << seed << " messages="
                << golden.messages_handled << " crc32=" << std::hex
                << Crc32(golden.text) << std::dec << "\n";

      for (const double fraction : fractions) {
        auto crash_at = static_cast<std::size_t>(
            fraction * static_cast<double>(golden.messages_handled));
        if (crash_at == 0) crash_at = 1;
        const std::string state_dir =
            (std::filesystem::path(scratch) /
             (kind + "-" + std::to_string(seed) + "-" +
              std::to_string(crash_at)))
                .string();
        std::filesystem::remove_all(state_dir);

        ServiceDecisionsOptions chaos = options;
        CrashPlan plan;
        plan.crash_at = crash_at;
        plan.state_dir = state_dir;
        // Small enough that late crash points recover through a snapshot +
        // journal tail, not a full-journal replay.
        plan.snapshot_every = 64;
        chaos.crash = plan;
        const auto result = RunServiceDecisions(chaos);

        const bool identical = result.text == golden.text;
        std::cout << (identical ? "OK      " : "MISMATCH")
                  << " " << kind << " seed=" << seed
                  << " crash-at=" << crash_at
                  << " replayed=" << result.replayed_events
                  << " generation=" << result.generation << "\n";
        if (!identical) {
          ++failures;
          std::cout << FirstDiff(golden.text, result.text) << "\n";
        } else {
          std::filesystem::remove_all(state_dir);
        }
      }
    }
  }

  // Downtime scenario: the server stays dead for 10 virtual seconds, so
  // workers must back off, hold their undeliverable reports, and reconnect.
  {
    ServiceDecisionsOptions options;
    options.kind = "asha";
    options.seed = 42;
    options.workers = 8;
    const auto golden = RunServiceDecisions(options);
    const std::string state_dir =
        (std::filesystem::path(scratch) / "downtime").string();
    std::filesystem::remove_all(state_dir);
    ServiceDecisionsOptions chaos = options;
    CrashPlan plan;
    plan.crash_at = golden.messages_handled / 2;
    plan.state_dir = state_dir;
    plan.downtime = 10.0;
    chaos.crash = plan;
    const auto result = RunServiceDecisions(chaos);
    const bool ok =
        result.finished && result.recovered && result.worker_retries > 0;
    std::cout << (ok ? "OK      " : "FAIL    ")
              << " downtime recovery: finished=" << result.finished
              << " recovered=" << result.recovered
              << " retries=" << result.worker_retries << "\n";
    if (!ok) ++failures;
    else std::filesystem::remove_all(state_dir);
  }

  if (failures > 0) {
    std::cout << "chaos recovery FAILED: " << failures << " scenario(s)\n";
    return 1;
  }
  std::cout << "chaos recovery passed: every crashed run matched its golden"
               " byte-for-byte\n";
  return 0;
}

}  // namespace
}  // namespace hypertune

int main(int argc, char** argv) {
  // The scratch dir comes first: `chaos_recovery --studies 100` would
  // otherwise take the flag for the directory.
  if (argc < 2 || std::string_view(argv[1]).starts_with("--")) {
    std::cerr << "usage: chaos_recovery <scratch-dir> [--quick]"
                 " [--studies N] [--net-faults] [--enospc]\n";
    return 2;
  }
  bool quick = false;
  bool net_faults = false;
  bool enospc = false;
  std::size_t studies = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--net-faults") {
      net_faults = true;
    } else if (arg == "--enospc") {
      enospc = true;
    } else if (arg == "--studies" && i + 1 < argc) {
      studies = static_cast<std::size_t>(std::stoul(argv[++i]));
      if (studies == 0) {
        std::cerr << "--studies needs a positive count\n";
        return 2;
      }
    } else {
      std::cerr << "unknown flag '" << arg << "'\n";
      return 2;
    }
  }
  if (net_faults) return hypertune::RunNetFaultChaos(quick);
  if (enospc) return hypertune::RunEnospcChaos(argv[1], quick);
  if (studies > 0) {
    return hypertune::RunMultiStudyChaos(argv[1], studies, quick);
  }
  return hypertune::RunChaos(argv[1], quick);
}
