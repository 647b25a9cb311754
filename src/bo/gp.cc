#include "bo/gp.h"

#include <array>
#include <chrono>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "common/stats.h"
#include "telemetry/telemetry.h"

namespace hypertune {

namespace {

constexpr double kJitter = 1e-8;

/// Lengthscale candidates tried by marginal likelihood when fitting.
constexpr std::array<double, 5> kLengthscaleGrid = {0.1, 0.2, 0.35, 0.6, 1.0};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

GaussianProcess::GaussianProcess(GpOptions options)
    : options_(std::move(options)),
      grid_kernels_(kLengthscaleGrid.begin(), kLengthscaleGrid.end()),
      grid_fits_(kLengthscaleGrid.size()) {
  HT_CHECK(options_.noise_variance > 0);
}

void GaussianProcess::SetTelemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    fit_full_counter_ = nullptr;
    fit_rank1_counter_ = nullptr;
    fit_seconds_histogram_ = nullptr;
    return;
  }
  auto& metrics = telemetry_->metrics();
  fit_full_counter_ = &metrics.counter("bo.fit_full");
  fit_rank1_counter_ = &metrics.counter("bo.fit_rank1");
  fit_seconds_histogram_ = &metrics.histogram(
      "bo.fit_seconds", ExponentialBuckets(1e-5, 4.0, 12));
}

void GaussianProcess::RecordFit(bool full, std::int64_t appended,
                                double seconds) {
  if (full) {
    ++stats_.full_fits;
  } else {
    stats_.rank1_updates += appended;
  }
  stats_.fit_seconds += seconds;
  if (telemetry_ != nullptr) {
    if (full) {
      fit_full_counter_->Increment();
    } else {
      fit_rank1_counter_->Increment(appended);
    }
    fit_seconds_histogram_->Observe(seconds);
  }
}

void GaussianProcess::Standardize() {
  y_mean_ = Mean(y_raw_);
  y_std_ = Stddev(y_raw_);
  if (y_std_ < 1e-12) y_std_ = 1.0;  // constant targets
  y_standardized_.resize(y_raw_.size());
  for (std::size_t i = 0; i < y_raw_.size(); ++i) {
    y_standardized_[i] = (y_raw_[i] - y_mean_) / y_std_;
  }
}

void GaussianProcess::RefreshAlphaAndLml(GridFit& fit) const {
  const std::size_t n = y_standardized_.size();
  const auto tmp = SolveLower(fit.chol, y_standardized_);
  fit.alpha = SolveLowerTranspose(fit.chol, tmp);

  // log p(y) = -1/2 y^T alpha - sum log L_ii - n/2 log(2 pi)
  double fit_term = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fit_term += y_standardized_[i] * fit.alpha[i];
  }
  fit.lml = -0.5 * fit_term - fit.log_det_half -
            0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
}

void GaussianProcess::SelectBest() {
  double best_lml = -std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  for (std::size_t g = 0; g < grid_fits_.size(); ++g) {
    if (grid_fits_[g].lml > best_lml) {
      best_lml = grid_fits_[g].lml;
      best = g;
    }
  }
  best_index_ = best;
  lengthscale_ = kLengthscaleGrid[best];
  kernel_ = &grid_kernels_[best];
  lml_ = grid_fits_[best].lml;
}

bool GaussianProcess::ExtendsCurrentFit(
    const std::vector<std::vector<double>>& x,
    const std::vector<double>& y) const {
  if (!IsFit() || x.size() < x_.size()) return false;
  for (std::size_t i = 0; i < x_.size(); ++i) {
    if (y[i] != y_raw_[i] || x[i] != x_[i]) return false;
  }
  return true;
}

void GaussianProcess::AppendObservation(std::vector<double> x, double y) {
  const std::size_t n = x_.size();

  // Extend the shared squared-distance triangle by one row.
  std::vector<double> d2_row(n + 1);
  for (std::size_t i = 0; i < n; ++i) d2_row[i] = SquaredDistance(x, x_[i]);
  d2_row[n] = 0.0;

  x_.push_back(std::move(x));
  y_raw_.push_back(y);
  Standardize();

  std::vector<double> k_new(n);
  for (std::size_t g = 0; g < grid_fits_.size(); ++g) {
    const Matern52Kernel& kernel = grid_kernels_[g];
    GridFit& fit = grid_fits_[g];
    for (std::size_t i = 0; i < n; ++i) {
      k_new[i] = kernel.FromSquaredDistance(d2_row[i]);
    }
    const double kappa =
        kernel.FromSquaredDistance(0.0) + options_.noise_variance;
    const double new_diag = CholeskyAppendRow(fit.chol, k_new, kappa, kJitter);
    fit.log_det_half += std::log(new_diag);
    RefreshAlphaAndLml(fit);
  }
  d2_rows_.push_back(std::move(d2_row));
  SelectBest();
}

void GaussianProcess::Append(std::vector<double> x, double y) {
  HT_CHECK_MSG(IsFit(), "Append called before Fit");
  HT_CHECK(x.size() == x_.front().size());
  const auto start = std::chrono::steady_clock::now();
  AppendObservation(std::move(x), y);
  RecordFit(/*full=*/false, /*appended=*/1, SecondsSince(start));
}

void GaussianProcess::Fit(std::vector<std::vector<double>> x,
                          std::vector<double> y) {
  HT_CHECK_MSG(!x.empty() && x.size() == y.size(),
               "GP fit needs matching non-empty inputs, got " << x.size()
                                                              << " points");
  const std::size_t d = x.front().size();
  for (const auto& point : x) HT_CHECK(point.size() == d);

  const auto start = std::chrono::steady_clock::now();

  if (ExtendsCurrentFit(x, y)) {
    // The data extends the current fit point-for-point: extend each grid
    // factorization by one row per new point (O(n^2) each) instead of
    // refactorizing from scratch. Bit-identical to the full path.
    const std::size_t appended = x.size() - x_.size();
    for (std::size_t i = x_.size(); i < x.size(); ++i) {
      AppendObservation(std::move(x[i]), y[i]);
    }
    if (appended > 0) {
      RecordFit(/*full=*/false, static_cast<std::int64_t>(appended),
                SecondsSince(start));
    }
    return;
  }

  const std::size_t n = x.size();
  x_ = std::move(x);
  y_raw_ = std::move(y);
  Standardize();

  // Pairwise squared distances, computed once and shared by the whole
  // lengthscale grid (the kernel is a function of d2 alone).
  d2_rows_.clear();
  d2_rows_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(i + 1);
    for (std::size_t j = 0; j < i; ++j) row[j] = SquaredDistance(x_[i], x_[j]);
    row[i] = 0.0;
    d2_rows_.push_back(std::move(row));
  }

  TriangularMatrix k(n);
  for (std::size_t g = 0; g < grid_fits_.size(); ++g) {
    const Matern52Kernel& kernel = grid_kernels_[g];
    for (std::size_t i = 0; i < n; ++i) {
      const double* d2_row = d2_rows_[i].data();
      double* k_row = k.Row(i);
      for (std::size_t j = 0; j < i; ++j) {
        k_row[j] = kernel.FromSquaredDistance(d2_row[j]);
      }
      k_row[i] =
          kernel.FromSquaredDistance(d2_row[i]) + options_.noise_variance;
    }
    GridFit& fit = grid_fits_[g];
    fit.chol = CholeskyFactor(k, kJitter);
    fit.log_det_half = 0;
    for (std::size_t i = 0; i < n; ++i) {
      fit.log_det_half += std::log(fit.chol.at(i, i));
    }
    RefreshAlphaAndLml(fit);
  }
  // The best factorization was retained during the grid loop — no winner
  // refit needed.
  SelectBest();
  RecordFit(/*full=*/true, /*appended=*/0, SecondsSince(start));
}

GpPrediction GaussianProcess::Predict(std::span<const double> x) const {
  HT_CHECK_MSG(IsFit(), "Predict called before Fit");
  const std::size_t n = x_.size();
  const GridFit& fit = grid_fits_[best_index_];
  std::vector<double> k_star(n);
  for (std::size_t i = 0; i < n; ++i) {
    k_star[i] = kernel_->FromSquaredDistance(SquaredDistance(x_[i], x));
  }

  double mean_std = 0;
  for (std::size_t i = 0; i < n; ++i) mean_std += k_star[i] * fit.alpha[i];

  const auto v = SolveLower(fit.chol, k_star);
  double reduction = 0;
  for (double vi : v) reduction += vi * vi;
  const double prior_var = kernel_->FromSquaredDistance(0.0);
  const double var_std = std::max(1e-12, prior_var - reduction);

  return {y_mean_ + y_std_ * mean_std, y_std_ * y_std_ * var_std};
}

std::vector<GpPrediction> GaussianProcess::PredictBatch(
    std::span<const std::vector<double>> xs) const {
  HT_CHECK_MSG(IsFit(), "PredictBatch called before Fit");
  const std::size_t m = xs.size();
  if (m == 0) return {};
  const std::size_t n = x_.size();
  const std::size_t d = x_.front().size();
  for (const auto& x : xs) HT_CHECK(x.size() == d);
  const GridFit& fit = grid_fits_[best_index_];

  // K* with one candidate per column: row-major, so the solve and the
  // reductions below stream contiguously across candidates.
  Matrix k_star(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = k_star.Row(i);
    for (std::size_t c = 0; c < m; ++c) {
      row[c] = kernel_->FromSquaredDistance(SquaredDistance(x_[i], xs[c]));
    }
  }

  std::vector<double> mean_std(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = k_star.Row(i);
    const double alpha_i = fit.alpha[i];
    for (std::size_t c = 0; c < m; ++c) mean_std[c] += row[c] * alpha_i;
  }

  SolveLowerInPlace(fit.chol, k_star);  // k_star now holds V = L^-1 K*
  std::vector<double> reduction(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = k_star.Row(i);
    for (std::size_t c = 0; c < m; ++c) reduction[c] += row[c] * row[c];
  }

  const double prior_var = kernel_->FromSquaredDistance(0.0);
  std::vector<GpPrediction> predictions(m);
  for (std::size_t c = 0; c < m; ++c) {
    const double var_std = std::max(1e-12, prior_var - reduction[c]);
    predictions[c] = {y_mean_ + y_std_ * mean_std[c],
                      y_std_ * y_std_ * var_std};
  }
  return predictions;
}

}  // namespace hypertune
