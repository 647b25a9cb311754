// The sweep grid: a (benchmark × scheduler × seed × worker-fleet) cross
// product where each cell is one full SimulationDriver study. The grid is
// flattened into a dense cell index space with a fixed enumeration order —
// benchmark-major, then scheduler, seed, fleet — so any thread can claim a
// cell by index and results merge back deterministically regardless of who
// ran what when (see engine.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "registry/registry.h"
#include "sim/driver.h"
#include "surrogate/table.h"

namespace hypertune {

/// One benchmark axis entry. The table is not owned and must outlive the
/// sweep; it is shared across all engine threads — TabularBenchmark's
/// Loss/Duration are non-const only because JobEnvironment's interface is,
/// but they are pure reads into the mmap/owned payload, so a grid of
/// thousands of cells touches one copy of the data with no synchronization.
struct SweepBenchmark {
  /// Report label ("cifar", "ptb", ...).
  std::string name;
  TabularBenchmark* table = nullptr;
};

struct SweepSpec {
  std::vector<SweepBenchmark> benchmarks;
  /// Registry tuner names (see TunerNames()).
  std::vector<std::string> schedulers;
  std::vector<std::uint64_t> seeds;
  /// Worker-fleet sizes (DriverOptions::num_workers per cell).
  std::vector<int> fleets;
  /// Shared tuner sizing; `seed` is overridden with the cell's seed.
  TunerParams params;
  /// Per-cell virtual-time budget (absolute simulator time).
  double time_limit = 1e18;
  /// Per-cell virtual-time budget in units of the benchmark's mean
  /// full-training time (0 = unused). This is the paper's equal-time
  /// comparison: benchmarks whose R differs by orders of magnitude get the
  /// same budget in "average full trainings", scaled per table from its
  /// top-fidelity cumulative-time column (BenchmarkNorms::mean_full_time).
  double full_train_budget = 0;
  /// Per-cell completion cap (0 = none). Open-ended tuners (ASHA) need at
  /// least one of the three stop criteria.
  std::size_t max_jobs = 0;
  /// Ignored shim (see SimEngine): RunSweep never reads it, and every cell
  /// runs on the simulator's one event heap.
  SimEngine event_queue = SimEngine::kCalendar;
};

/// A resolved grid cell: the dense index plus its axis coordinates.
struct SweepCell {
  std::size_t index = 0;
  std::size_t benchmark = 0;
  std::size_t scheduler = 0;
  std::size_t seed_index = 0;
  std::size_t fleet_index = 0;
};

/// CheckError unless every axis is non-empty, every table pointer is set,
/// every fleet is positive, and at least one stop criterion bounds cells.
void ValidateSpec(const SweepSpec& spec);

std::size_t CellCount(const SweepSpec& spec);

/// The fixed enumeration: index = ((b * S + s) * D + d) * F + f over
/// schedulers S, seeds D, fleets F.
SweepCell CellAt(const SweepSpec& spec, std::size_t index);

}  // namespace hypertune
