// Property tests for the incremental BO substrate: the rank-1 append path,
// packed-storage Cholesky, batched prediction, and parallel EI scoring must
// all reproduce the results of their naive counterparts — mostly exactly
// (bit-identical), at worst within 1e-8 — so that seeded tuning runs make
// identical decisions whichever path computed them.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bo/acquisition.h"
#include "bo/gp.h"
#include "bo/matrix.h"
#include "common/check.h"
#include "common/rng.h"
#include "telemetry/telemetry.h"

namespace hypertune {
namespace {

std::vector<std::vector<double>> RandomPoints(std::size_t n, std::size_t dim,
                                              Rng& rng) {
  std::vector<std::vector<double>> x(n, std::vector<double>(dim));
  for (auto& p : x) {
    for (auto& v : p) v = rng.Uniform();
  }
  return x;
}

std::vector<double> RandomTargets(std::size_t n, Rng& rng) {
  std::vector<double> y(n);
  for (auto& v : y) v = rng.Normal();
  return y;
}

/// Builds a random SPD matrix A = B B^T + n I in both layouts.
void RandomSpd(std::size_t n, Rng& rng, Matrix* dense,
               TriangularMatrix* packed) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b.at(i, j) = rng.Uniform();
  *dense = Matrix(n, n);
  *packed = TriangularMatrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0;
      for (std::size_t k = 0; k < n; ++k) sum += b.at(i, k) * b.at(j, k);
      if (i == j) sum += static_cast<double>(n);
      dense->at(i, j) = sum;
      if (j <= i) packed->at(i, j) = sum;
    }
  }
}

TEST(TriangularMatrix, PackedCholeskyMatchesDenseBitwise) {
  Rng rng(11);
  for (const std::size_t n : {1u, 2u, 5u, 17u, 40u}) {
    Matrix dense;
    TriangularMatrix packed;
    RandomSpd(n, rng, &dense, &packed);
    const Matrix ld = CholeskyFactor(dense, 1e-10);
    const TriangularMatrix lp = CholeskyFactor(packed, 1e-10);
    ASSERT_EQ(lp.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        EXPECT_EQ(lp.at(i, j), ld.at(i, j)) << "n=" << n << " (" << i << ","
                                            << j << ")";
  }
}

TEST(TriangularMatrix, AppendRowMatchesRefactorizationBitwise) {
  // Factor the leading k x k block, then extend row by row; every
  // intermediate factor must equal the from-scratch factorization of the
  // corresponding leading block, bit for bit.
  Rng rng(12);
  const std::size_t n = 24;
  Matrix dense;
  TriangularMatrix packed;
  RandomSpd(n, rng, &dense, &packed);

  const std::size_t start = 6;
  TriangularMatrix head(start);
  for (std::size_t i = 0; i < start; ++i)
    for (std::size_t j = 0; j <= i; ++j) head.at(i, j) = packed.at(i, j);
  TriangularMatrix l = CholeskyFactor(head, 1e-10);

  for (std::size_t m = start; m < n; ++m) {
    std::vector<double> k(m);
    for (std::size_t j = 0; j < m; ++j) k[j] = packed.at(m, j);
    const double new_diag = CholeskyAppendRow(l, k, packed.at(m, m), 1e-10);
    ASSERT_EQ(l.size(), m + 1);
    EXPECT_EQ(new_diag, l.at(m, m));

    TriangularMatrix block(m + 1);
    for (std::size_t i = 0; i <= m; ++i)
      for (std::size_t j = 0; j <= i; ++j) block.at(i, j) = packed.at(i, j);
    const TriangularMatrix ref = CholeskyFactor(block, 1e-10);
    for (std::size_t i = 0; i <= m; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        ASSERT_EQ(l.at(i, j), ref.at(i, j))
            << "m=" << m << " (" << i << "," << j << ")";
  }
}

TEST(TriangularMatrix, AppendRowRejectsNonPdExtension) {
  // Extending with a row that makes the matrix singular must throw and is
  // detected by the sqrt of a non-positive pivot.
  TriangularMatrix a(1);
  a.at(0, 0) = 1.0;
  TriangularMatrix l = CholeskyFactor(a, 0.0);
  // [[1, 1], [1, 1]] is singular.
  EXPECT_THROW(CholeskyAppendRow(l, std::vector<double>{1.0}, 1.0, 0.0),
               CheckError);
}

TEST(TriangularMatrix, MultiRhsSolveMatchesScalarBitwise) {
  Rng rng(13);
  const std::size_t n = 20, m = 7;
  Matrix dense;
  TriangularMatrix packed;
  RandomSpd(n, rng, &dense, &packed);
  const TriangularMatrix l = CholeskyFactor(packed, 1e-10);

  Matrix b(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) b.at(i, j) = rng.Normal();
  Matrix b_solved = b;
  SolveLowerInPlace(l, b_solved);

  for (std::size_t j = 0; j < m; ++j) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = b.at(i, j);
    const auto x = SolveLower(l, col);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(b_solved.at(i, j), x[i]) << "rhs " << j << " row " << i;
  }
}

TEST(Gp, AppendMatchesFromScratchFit) {
  // The headline property: over randomized sequences, growing a GP one
  // Append at a time gives the same mean/variance/LML as a from-scratch Fit
  // on the full data — within 1e-8 (in practice bit-identical).
  for (const std::uint64_t seed : {1ull, 7ull, 21ull}) {
    Rng rng(seed);
    const std::size_t dim = 3, total = 48, start = 5;
    const auto x = RandomPoints(total, dim, rng);
    const auto y = RandomTargets(total, rng);
    const auto queries = RandomPoints(16, dim, rng);

    GaussianProcess incremental;
    incremental.Fit({x.begin(), x.begin() + start},
                    {y.begin(), y.begin() + start});
    for (std::size_t i = start; i < total; ++i) {
      incremental.Append(x[i], y[i]);

      GaussianProcess scratch;
      scratch.Fit({x.begin(), x.begin() + i + 1}, {y.begin(), y.begin() + i + 1});
      ASSERT_NEAR(incremental.LogMarginalLikelihood(),
                  scratch.LogMarginalLikelihood(), 1e-8)
          << "seed " << seed << " n=" << i + 1;
      ASSERT_EQ(incremental.FittedLengthscale(), scratch.FittedLengthscale());
      for (const auto& q : queries) {
        const auto a = incremental.Predict(q);
        const auto b = scratch.Predict(q);
        ASSERT_NEAR(a.mean, b.mean, 1e-8) << "seed " << seed << " n=" << i + 1;
        ASSERT_NEAR(a.variance, b.variance, 1e-8)
            << "seed " << seed << " n=" << i + 1;
      }
    }
  }
}

TEST(Gp, FitDetectsPrefixExtensionAndStaysExact) {
  // Fit called with data that extends the previous fit takes the rank-1
  // path (visible in fit_stats) yet remains equivalent to a full refit.
  Rng rng(3);
  const auto x = RandomPoints(30, 2, rng);
  const auto y = RandomTargets(30, rng);

  GaussianProcess gp;
  gp.Fit({x.begin(), x.begin() + 10}, {y.begin(), y.begin() + 10});
  EXPECT_EQ(gp.fit_stats().full_fits, 1);
  EXPECT_EQ(gp.fit_stats().rank1_updates, 0);

  gp.Fit(x, y);  // extends the previous data by 20 points
  EXPECT_EQ(gp.fit_stats().full_fits, 1);
  EXPECT_EQ(gp.fit_stats().rank1_updates, 20);

  GaussianProcess scratch;
  scratch.Fit(x, y);
  EXPECT_NEAR(gp.LogMarginalLikelihood(), scratch.LogMarginalLikelihood(),
              1e-8);
  const auto q = RandomPoints(1, 2, rng).front();
  EXPECT_NEAR(gp.Predict(q).mean, scratch.Predict(q).mean, 1e-8);

  // Refitting on *different* data (here: a shuffled prefix) falls back to
  // the full path.
  std::vector<std::vector<double>> reordered{x[1], x[0]};
  gp.Fit(reordered, {y[1], y[0]});
  EXPECT_EQ(gp.fit_stats().full_fits, 2);
}

TEST(Gp, PredictBatchMatchesScalarPredictBitwise) {
  Rng rng(5);
  const auto x = RandomPoints(40, 4, rng);
  const auto y = RandomTargets(40, rng);
  GaussianProcess gp;
  gp.Fit(x, y);

  const auto queries = RandomPoints(33, 4, rng);
  const auto batch = gp.PredictBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto scalar = gp.Predict(queries[i]);
    EXPECT_EQ(batch[i].mean, scalar.mean) << "query " << i;
    EXPECT_EQ(batch[i].variance, scalar.variance) << "query " << i;
  }
  EXPECT_TRUE(gp.PredictBatch({}).empty());
}

TEST(Acquisition, ArgMaxScoreBreaksTiesToLowestIndex) {
  EXPECT_EQ(ArgMaxScore(std::vector<double>{0.5}), 0u);
  EXPECT_EQ(ArgMaxScore(std::vector<double>{1.0, 2.0, 2.0, 0.0}), 1u);
  EXPECT_EQ(ArgMaxScore(std::vector<double>{3.0, 3.0}), 0u);
}

TEST(Gp, TelemetryCountsFitPaths) {
  auto telemetry = Telemetry::ForSimulation();
  Rng rng(2);
  const auto x = RandomPoints(12, 2, rng);
  const auto y = RandomTargets(12, rng);

  GaussianProcess gp;
  gp.SetTelemetry(telemetry.get());
  gp.Fit({x.begin(), x.begin() + 8}, {y.begin(), y.begin() + 8});
  gp.Fit(x, y);           // prefix extension: 4 rank-1 updates
  gp.Append(x[0], y[0]);  // one more rank-1 update

  auto& metrics = telemetry->metrics();
  EXPECT_EQ(metrics.counter("bo.fit_full").value(), 1);
  EXPECT_EQ(metrics.counter("bo.fit_rank1").value(), 5);
  EXPECT_EQ(
      metrics.histogram("bo.fit_seconds", ExponentialBuckets(1e-5, 4.0, 12))
          .count(),
      3);  // one observation per Fit/Append call
  EXPECT_EQ(gp.fit_stats().full_fits, 1);
  EXPECT_EQ(gp.fit_stats().rank1_updates, 5);
  EXPECT_GE(gp.fit_stats().fit_seconds, 0.0);
}

}  // namespace
}  // namespace hypertune
