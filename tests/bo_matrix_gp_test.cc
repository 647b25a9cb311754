#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bo/acquisition.h"
#include "bo/gp.h"
#include "bo/kernel.h"
#include "bo/matrix.h"
#include "common/check.h"
#include "common/rng.h"

namespace hypertune {
namespace {

TEST(Matrix, MatVec) {
  Matrix a(2, 3);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(0, 2) = 3;
  a.at(1, 0) = 4; a.at(1, 1) = 5; a.at(1, 2) = 6;
  const auto y = a.MatVec(std::vector<double>{1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  EXPECT_THROW(a.MatVec(std::vector<double>{1, 1}), CheckError);
}

TEST(Matrix, CholeskyKnownFactorization) {
  // A = [[4, 2], [2, 3]] = L L^T with L = [[2, 0], [1, sqrt(2)]].
  Matrix a(2, 2);
  a.at(0, 0) = 4; a.at(0, 1) = 2;
  a.at(1, 0) = 2; a.at(1, 1) = 3;
  const Matrix l = CholeskyFactor(a, 0.0);
  EXPECT_NEAR(l.at(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l.at(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l.at(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(l.at(0, 1), 0.0);
}

TEST(Matrix, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2;
  a.at(1, 0) = 2; a.at(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyFactor(a, 0.0), CheckError);
  EXPECT_THROW(CholeskyFactor(Matrix(2, 3)), CheckError);  // non-square
}

TEST(Matrix, TriangularSolvesRoundTrip) {
  Matrix a(3, 3);
  // SPD matrix.
  const double vals[3][3] = {{6, 2, 1}, {2, 5, 2}, {1, 2, 4}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) a.at(i, j) = vals[i][j];
  const Matrix l = CholeskyFactor(a, 0.0);
  const std::vector<double> b{1, 2, 3};
  // Solve A x = b via L then L^T; verify A x = b.
  const auto z = SolveLower(l, b);
  const auto x = SolveLowerTranspose(l, z);
  const auto back = a.MatVec(x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(back[i], b[i], 1e-10);
}

TEST(Kernel, Matern52Properties) {
  const Matern52Kernel k(0.5);
  const std::vector<double> x{0.0}, y{0.5};
  EXPECT_DOUBLE_EQ(k(x, x), 1.0);
  EXPECT_DOUBLE_EQ(k(x, y), k(y, x));
  // d/l = 1: (1 + sqrt5 + 5/3) exp(-sqrt5).
  const double expected =
      (1 + std::sqrt(5.0) + 5.0 / 3.0) * std::exp(-std::sqrt(5.0));
  EXPECT_NEAR(k(x, y), expected, 1e-12);
  // Decreases with distance.
  const std::vector<double> z{1.0};
  EXPECT_LT(k(x, z), k(x, y));
}

TEST(Gp, InterpolatesNoiselessData) {
  GpOptions options;
  options.noise_variance = 1e-8;
  GaussianProcess gp(options);
  std::vector<std::vector<double>> x{{0.1}, {0.5}, {0.9}};
  std::vector<double> y{1.0, -1.0, 2.0};
  gp.Fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto pred = gp.Predict(x[i]);
    EXPECT_NEAR(pred.mean, y[i], 1e-3);
    EXPECT_LT(pred.variance, 1e-2);
  }
}

TEST(Gp, RevertsToPriorFarFromData) {
  GaussianProcess gp;
  std::vector<std::vector<double>> x{{0.0, 0.0}};
  std::vector<double> y{5.0};
  gp.Fit(x, y);
  // Constant target: y_std falls back to 1; far away the mean reverts to
  // the target mean and variance grows toward the prior.
  const auto pred = gp.Predict(std::vector<double>{1.0, 1.0});
  EXPECT_NEAR(pred.mean, 5.0, 1.0);
  EXPECT_GT(pred.variance, 0.3);
}

TEST(Gp, LearnsSmoothFunction) {
  GaussianProcess gp;
  Rng rng(1);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    const double u = rng.Uniform();
    x.push_back({u});
    y.push_back(std::sin(6.0 * u));
  }
  gp.Fit(x, y);
  double max_err = 0;
  for (double u = 0.05; u < 1.0; u += 0.05) {
    const auto pred = gp.Predict(std::vector<double>{u});
    max_err = std::max(max_err, std::abs(pred.mean - std::sin(6.0 * u)));
  }
  EXPECT_LT(max_err, 0.2);
}

TEST(Gp, PredictBeforeFitThrows) {
  GaussianProcess gp;
  EXPECT_THROW(gp.Predict(std::vector<double>{0.5}), CheckError);
  EXPECT_THROW(gp.Fit({}, {}), CheckError);
}

TEST(Gp, LengthscaleSelectionPrefersSmoothFit) {
  // Data from a very smooth function: the grid search should not pick the
  // smallest lengthscale.
  GaussianProcess gp;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) {
    const double u = i / 10.0;
    x.push_back({u});
    y.push_back(2.0 * u);
  }
  gp.Fit(x, y);
  EXPECT_GT(gp.FittedLengthscale(), 0.1);
  EXPECT_TRUE(std::isfinite(gp.LogMarginalLikelihood()));
}

TEST(Acquisition, NormalCdfPdfSanity) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804, 1e-9);
}

TEST(Acquisition, ExpectedImprovementProperties) {
  // Zero variance: max(best - mean, 0).
  EXPECT_DOUBLE_EQ(ExpectedImprovement(0.3, 0.0, 0.5), 0.2);
  EXPECT_DOUBLE_EQ(ExpectedImprovement(0.7, 0.0, 0.5), 0.0);
  // Positive variance: EI > deterministic improvement, and EI > 0 even when
  // the mean is worse than best.
  EXPECT_GT(ExpectedImprovement(0.3, 0.04, 0.5), 0.2);
  EXPECT_GT(ExpectedImprovement(0.7, 0.04, 0.5), 0.0);
  // More variance -> more EI at equal mean.
  EXPECT_GT(ExpectedImprovement(0.5, 0.09, 0.5),
            ExpectedImprovement(0.5, 0.01, 0.5));
}

TEST(Acquisition, SuggestByEiFindsLowRegion) {
  // Fit a bowl with minimum near 0.25 and check suggestions concentrate
  // around it.
  GaussianProcess gp;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 20; ++i) {
    const double u = i / 20.0;
    x.push_back({u});
    y.push_back((u - 0.25) * (u - 0.25));
  }
  gp.Fit(x, y);
  Rng rng(3);
  const auto point = SuggestByEi(gp, 1, 0.0, 512, rng);
  EXPECT_NEAR(point[0], 0.25, 0.2);
}

}  // namespace
}  // namespace hypertune
