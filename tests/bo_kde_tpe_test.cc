#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "bo/kde.h"
#include "bo/tpe.h"
#include "common/check.h"

namespace hypertune {
namespace {

TEST(Kde, RejectsEmptyAndMismatchedInput) {
  EXPECT_THROW(KernelDensityEstimator kde({}), CheckError);
  std::vector<std::vector<double>> points{{0.1, 0.2}, {0.3}};
  EXPECT_THROW(KernelDensityEstimator kde(points), CheckError);
}

TEST(Kde, PdfHigherNearMass) {
  std::vector<std::vector<double>> points;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    points.push_back({0.3 + 0.02 * rng.Normal(), 0.7 + 0.02 * rng.Normal()});
  }
  const KernelDensityEstimator kde(points);
  EXPECT_GT(kde.Pdf({0.3, 0.7}), kde.Pdf({0.9, 0.1}));
  EXPECT_EQ(kde.Dim(), 2u);
  EXPECT_EQ(kde.NumPoints(), 100u);
}

TEST(Kde, PdfIntegratesToApproximatelyOne) {
  std::vector<std::vector<double>> points{{0.4}, {0.5}, {0.6}};
  const KernelDensityEstimator kde(points);
  double integral = 0;
  const int n = 2000;
  // Integrate over a wide interval (mass near [0,1] but tails exist).
  for (int i = 0; i < n; ++i) {
    const double u = -1.0 + 3.0 * (i + 0.5) / n;
    integral += kde.Pdf({u}) * 3.0 / n;
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Kde, SamplesStayInUnitCubeAndNearMass) {
  std::vector<std::vector<double>> points{{0.95, 0.05}};
  const KernelDensityEstimator kde(points, 3.0);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const auto x = kde.Sample(rng);
    ASSERT_EQ(x.size(), 2u);
    EXPECT_GE(x[0], 0.0);
    EXPECT_LE(x[0], 1.0);
    EXPECT_GE(x[1], 0.0);
    EXPECT_LE(x[1], 1.0);
  }
}

TEST(Kde, BandwidthShrinksWithMorePoints) {
  Rng rng(3);
  auto make_points = [&](int n) {
    std::vector<std::vector<double>> points;
    for (int i = 0; i < n; ++i) points.push_back({rng.Uniform()});
    return points;
  };
  const KernelDensityEstimator small(make_points(10));
  const KernelDensityEstimator large(make_points(1000));
  EXPECT_GT(small.bandwidths()[0], large.bandwidths()[0]);
}

SearchSpace TpeSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0))
      .Add("y", Domain::Continuous(0.0, 1.0));
  return space;
}

TEST(Tpe, RandomUntilEnoughObservations) {
  TpeSampler tpe(TpeSpace());
  EXPECT_EQ(tpe.ModelResource(), -1);
  Rng rng(4);
  const auto config = tpe.Sample(rng);  // must not crash without a model
  EXPECT_TRUE(TpeSpace().Contains(config));
}

TEST(Tpe, ModelUsesHighestQualifiedResource) {
  TpeOptions options;
  options.min_points = 3;
  options.top_fraction = 0.5;  // good/bad split reaches min_points quickly
  TpeSampler tpe(TpeSpace(), options);
  const auto space = TpeSpace();
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    tpe.Observe(space.Sample(rng), /*resource=*/1.0, /*loss=*/0.5);
  }
  EXPECT_DOUBLE_EQ(tpe.ModelResource(), 1.0);
  for (int i = 0; i < 12; ++i) {
    tpe.Observe(space.Sample(rng), /*resource=*/4.0, /*loss=*/0.4);
  }
  EXPECT_DOUBLE_EQ(tpe.ModelResource(), 4.0);
}

TEST(Tpe, IgnoresNonFiniteLosses) {
  TpeOptions options;
  options.min_points = 2;
  options.top_fraction = 0.5;
  TpeSampler tpe(TpeSpace(), options);
  const auto space = TpeSpace();
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    tpe.Observe(space.Sample(rng), 1.0,
                std::numeric_limits<double>::infinity());
  }
  EXPECT_EQ(tpe.ModelResource(), -1);  // nothing usable recorded
}

TEST(Tpe, ConcentratesSamplesOnGoodRegion) {
  // Good configs cluster near x=0.2, y=0.8; bad ones elsewhere. With
  // random_fraction = 0 the sampler should propose near the good cluster.
  TpeOptions options;
  options.random_fraction = 0.0;
  options.min_points = 5;
  TpeSampler tpe(TpeSpace(), options);
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    Configuration config;
    const bool good = i % 3 == 0;
    const double x = good ? 0.2 + 0.02 * rng.Normal() : rng.Uniform();
    const double y = good ? 0.8 + 0.02 * rng.Normal() : rng.Uniform();
    config.Set("x", ParamValue{std::clamp(x, 0.0, 1.0)});
    config.Set("y", ParamValue{std::clamp(y, 0.0, 1.0)});
    const double dist = std::abs(x - 0.2) + std::abs(y - 0.8);
    tpe.Observe(config, 1.0, dist);
  }
  double mean_x = 0, mean_y = 0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const auto config = tpe.Sample(rng);
    mean_x += config.GetDouble("x");
    mean_y += config.GetDouble("y");
  }
  EXPECT_NEAR(mean_x / n, 0.2, 0.15);
  EXPECT_NEAR(mean_y / n, 0.8, 0.15);
}

TEST(Tpe, OptionValidation) {
  TpeOptions bad;
  bad.top_fraction = 0.0;
  EXPECT_THROW(TpeSampler(TpeSpace(), bad), CheckError);
  bad = {};
  bad.random_fraction = 1.5;
  EXPECT_THROW(TpeSampler(TpeSpace(), bad), CheckError);
}

}  // namespace
}  // namespace hypertune
