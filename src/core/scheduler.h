// The pull-based scheduler interface shared by every tuner.
//
// Algorithm 2 of the paper is phrased exactly this way: whenever a worker is
// free, the tuner is asked for a job (`GetJob`); whenever a job finishes, the
// loss is reported back (`ReportResult`). Synchronous algorithms fit the same
// interface by returning std::nullopt while they wait for a rung to complete
// — which is precisely the idle time stragglers inflict on them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/trial.h"
#include "core/types.h"

namespace hypertune {

class Json;
class Telemetry;

/// What Restore does with jobs that were in flight when the snapshot was
/// taken (see DESIGN.md §7, "Durability contract").
enum class RestorePolicy {
  /// The workers died with the service: every in-flight job is resolved as
  /// lost (ReportLost) immediately after the state is rebuilt. This is the
  /// standalone-snapshot contract — the restored scheduler owes nothing to
  /// any lease.
  kDropInFlight,
  /// A durability layer (src/durability) still holds the leases: in-flight
  /// jobs stay in flight, and the layer later resolves each one — either by
  /// replaying journaled outcomes or by re-expiring the lease.
  kKeepInFlight,
};

/// Tuner-side overhead accounting: real wall-clock spent fitting the
/// tuner's surrogate model (GP, KDE, ...) and how often each fit path ran.
/// All zeros for model-free tuners. The experiment runner divides
/// model_fit_seconds by the run's wall-clock to report the tuner-overhead
/// share — the quantity that caps how many workers one tuner can feed.
struct SchedulerCost {
  std::int64_t model_full_fits = 0;
  std::int64_t model_incremental_fits = 0;
  double model_fit_seconds = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Attaches an observability sink (see src/telemetry). Null detaches.
  /// Implementations that emit nothing inherit this no-op; composite
  /// schedulers forward the sink to their inner brackets. Must be called
  /// before the scheduler is driven — sinks are not swapped mid-run.
  virtual void SetTelemetry(Telemetry* telemetry) { (void)telemetry; }

  /// Cumulative model-fitting cost (see SchedulerCost); zeros by default.
  virtual SchedulerCost Cost() const { return {}; }

  /// Next unit of work, or std::nullopt when no work is available right now
  /// (the caller should retry after the next completion event).
  virtual std::optional<Job> GetJob() = 0;

  /// Reports the validation loss measured at `job.to_resource`.
  virtual void ReportResult(const Job& job, double loss) = 0;

  /// Reports that the job was dropped by its worker and will never complete.
  virtual void ReportLost(const Job& job) = 0;

  /// True when the tuner will never produce work again (e.g. a fixed-size
  /// SHA bracket has fully completed). Open-ended tuners (ASHA, PBT with
  /// population spawning) return false forever.
  virtual bool Finished() const = 0;

  /// The tuner's current recommendation per its incumbent accounting policy;
  /// std::nullopt before the first recommendation is available.
  virtual std::optional<Recommendation> Current() const = 0;

  /// All trials created so far.
  virtual const TrialBank& trials() const = 0;

  /// Short human-readable name for reports ("ASHA", "SHA", ...).
  virtual std::string name() const = 0;

  /// True when Snapshot/Restore are implemented and exact: the restored
  /// scheduler issues the same jobs the original would. The successive-
  /// halving family (ASHA, SHA, both Hyperbands) and random search support
  /// snapshots only with a stateless sampler (ConfigSampler::Stateless) —
  /// the snapshot carries the sampling RNG but not a model's observations
  /// or a quasi-random index. Schedulers without support throw CheckError
  /// from Snapshot/Restore.
  virtual bool SupportsSnapshot() const { return false; }

  /// Service-style crash recovery: captures the scheduler's complete state
  /// (trials, rung results, promotion marks, in-flight jobs, counters, the
  /// sampling RNG) as a JSON document that Restore round-trips.
  virtual Json Snapshot() const;

  /// Restores a snapshot into a freshly constructed scheduler with
  /// identical options (validated) and an untouched trial bank. After
  /// Restore the scheduler continues deterministically from the snapshot
  /// point; `policy` decides the fate of jobs in flight at snapshot time.
  virtual void Restore(const Json& snapshot, RestorePolicy policy);

  /// Restore with the standalone contract (in-flight jobs are lost).
  void Restore(const Json& snapshot) {
    Restore(snapshot, RestorePolicy::kDropInFlight);
  }
};

/// The jobs a scheduler has issued and not yet had reported, keyed by trial
/// (a trial has at most one job in flight). Every report is settled against
/// it. An open-addressed table: Fibonacci hashing of the trial id, linear
/// probing, at most half full (halved again below an eighth), backward-shift
/// erase, and no storage until the first job. An entry keeps only what a report is checked against — no
/// Configuration: the trial bank holds that, and snapshots read it there.
class InFlightJobs {
 public:
  /// Records `job` as in flight; throws CheckError when its trial already
  /// has a job out.
  void Open(const Job& job);

  /// Settles a reported job: erases its entry, or throws CheckError (and
  /// changes nothing) unless `job` is the job in flight for its trial.
  void Resolve(const Job& job);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The jobs in flight in ascending trial order, each with an empty config.
  std::vector<Job> Sorted() const;

 private:
  struct Entry {
    TrialId trial = -1;  // -1: empty slot
    int rung = 0;
    int bracket = 0;
    std::uint64_t tag = 0;
    Resource from = 0;
    Resource to = 0;
  };

  std::size_t Home(TrialId id) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// Slot holding `id`, or slots_.size() when it has no job in flight.
  std::size_t Find(TrialId id) const;
  void Insert(const Entry& entry);
  /// Moves every entry into a fresh table of `capacity` slots.
  void Rehash(std::size_t capacity);

  /// Smallest table: a served study often has only one or two jobs out.
  static constexpr std::size_t kMinSlots = 4;

  std::vector<Entry> slots_;  // size is 0 or a power of two
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace hypertune
