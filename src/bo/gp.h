// Gaussian-process regression with a Matern 5/2 kernel, internal target
// standardization and a fixed five-point lengthscale grid searched by
// marginal likelihood — the workhorse of the Vizier-like and Fabolas-like
// baselines.
//
// Incremental-refit contract (DESIGN.md "BO substrate"): the GP retains one
// Cholesky factorization per lengthscale in the grid, plus the pairwise
// squared-distance matrix of its training points. Appending one observation
// (`Append`, or a `Fit` whose data extends the previous fit's data) extends
// every factor by one row in O(n^2) per lengthscale instead of refitting
// 5 x O(n^3), re-runs the marginal-likelihood grid selection, and
// restandardizes targets — producing state bit-identical to a from-scratch
// fit on the same data. `Fit` falls back to the full O(n^3) path only when
// the new data is not an extension of the old (subsampled windows,
// constant-liar batches, the first fit).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bo/kernel.h"
#include "bo/matrix.h"

namespace hypertune {

class Telemetry;
class Counter;
class Histogram;

struct GpPrediction {
  double mean = 0;
  double variance = 0;
};

struct GpOptions {
  /// Observation noise variance (on standardized targets).
  double noise_variance = 1e-4;
};

/// Cumulative cost accounting for one GP instance: how many fits took the
/// full O(n^3) path vs. the O(n^2) rank-1 path, and the wall-clock they
/// consumed. Always on (one steady_clock read per fit); the experiment
/// runner surfaces these as the tuner-overhead share of a bench run.
struct GpFitStats {
  std::int64_t full_fits = 0;
  std::int64_t rank1_updates = 0;
  double fit_seconds = 0;
};

class GaussianProcess {
 public:
  explicit GaussianProcess(GpOptions options = {});

  /// Fits to inputs X (points in [0,1]^d) and targets y. Targets are
  /// standardized internally; predictions are de-standardized. When (x, y)
  /// extends the previously fitted data point-for-point, the fit runs
  /// incrementally in O(k n^2) for k new points; otherwise from scratch in
  /// O(n^3) per grid lengthscale.
  void Fit(std::vector<std::vector<double>> x, std::vector<double> y);

  /// Rank-1 refit: adds one observation in O(n^2) per grid lengthscale,
  /// including grid re-selection and target restandardization. State is
  /// bit-identical to Fit on the extended data. Requires IsFit().
  void Append(std::vector<double> x, double y);

  bool IsFit() const { return !x_.empty(); }
  std::size_t NumPoints() const { return x_.size(); }

  GpPrediction Predict(std::span<const double> x) const;

  /// Posterior at each candidate via one blocked multi-RHS triangular solve
  /// instead of xs.size() scalar ones. Each prediction is bit-identical to
  /// the scalar Predict on that candidate.
  std::vector<GpPrediction> PredictBatch(
      std::span<const std::vector<double>> xs) const;

  /// Log marginal likelihood of the standardized data under the current fit.
  double LogMarginalLikelihood() const { return lml_; }

  double FittedLengthscale() const { return lengthscale_; }

  /// Attaches an observability sink (not owned; null detaches): counts
  /// bo.fit_full / bo.fit_rank1 and feeds the bo.fit_seconds histogram.
  void SetTelemetry(Telemetry* telemetry);

  const GpFitStats& fit_stats() const { return stats_; }

 private:
  /// One retained factorization per lengthscale-grid entry.
  struct GridFit {
    TriangularMatrix chol;        // L with K + sigma^2 I = L L^T
    std::vector<double> alpha;    // (K + sigma^2 I)^-1 y
    double log_det_half = 0;      // sum_i log L_ii, extended incrementally
    double lml = 0;
  };

  void Standardize();
  /// Recomputes alpha and the LML of one grid fit from y_standardized_.
  void RefreshAlphaAndLml(GridFit& fit) const;
  /// Re-runs the marginal-likelihood argmax over the grid (first best wins).
  void SelectBest();
  /// Appends one observation to every grid factorization; the O(n^2) core
  /// shared by Append and the incremental path of Fit.
  void AppendObservation(std::vector<double> x, double y);
  /// True when (x, y) extends the current fit data point-for-point (it may
  /// then be fitted incrementally); equal data counts as a 0-point
  /// extension.
  bool ExtendsCurrentFit(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y) const;
  void RecordFit(bool full, std::int64_t appended, double seconds);

  GpOptions options_;
  std::vector<Matern52Kernel> grid_kernels_;  // one per grid lengthscale
  std::vector<std::vector<double>> x_;
  std::vector<double> y_raw_;
  std::vector<double> y_standardized_;
  /// Packed lower triangle of pairwise squared distances: row i holds
  /// |x_i - x_j|^2 for j <= i. Computed once per full fit, extended by one
  /// row per append, shared by the whole lengthscale grid.
  std::vector<std::vector<double>> d2_rows_;
  std::vector<GridFit> grid_fits_;  // parallel to grid_kernels_
  std::size_t best_index_ = 0;
  double y_mean_ = 0;
  double y_std_ = 1;
  double lengthscale_ = 0.35;
  const Matern52Kernel* kernel_ = nullptr;  // &grid_kernels_[best_index_]
  double lml_ = 0;

  GpFitStats stats_;
  Telemetry* telemetry_ = nullptr;
  Counter* fit_full_counter_ = nullptr;
  Counter* fit_rank1_counter_ = nullptr;
  Histogram* fit_seconds_histogram_ = nullptr;
};

}  // namespace hypertune
