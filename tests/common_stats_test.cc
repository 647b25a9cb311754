#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <vector>

#include "common/check.h"
#include "common/table.h"

namespace hypertune {
namespace {

TEST(Stats, MeanBasics) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{7.0}), 7.0);
}

TEST(Stats, VarianceSampleDenominator) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  // Population variance is 4; sample variance is 32/7.
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(Variance(std::vector<double>{3.0}), 0.0);
}

TEST(Stats, StddevIsSqrtVariance) {
  const std::vector<double> xs{1, 3, 5};
  EXPECT_DOUBLE_EQ(Stddev(xs), std::sqrt(Variance(xs)));
}

TEST(Stats, QuantileMatchesNumpyLinear) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.75), 3.25);
}

TEST(Stats, QuantileUnsortedInput) {
  const std::vector<double> xs{9, 1, 5};
  EXPECT_DOUBLE_EQ(Median(xs), 5.0);
}

TEST(Stats, QuantileValidation) {
  EXPECT_THROW(Quantile(std::vector<double>{}, 0.5), CheckError);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(Quantile(xs, -0.1), CheckError);
  EXPECT_THROW(Quantile(xs, 1.1), CheckError);
}

TEST(RunningStats, MatchesBatchStatistics) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.Count(), xs.size());
  EXPECT_NEAR(rs.Mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(rs.Variance(), Variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.Min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.Max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats rs;
  EXPECT_EQ(rs.Count(), 0u);
  EXPECT_DOUBLE_EQ(rs.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.Variance(), 0.0);
  rs.Add(3.5);
  EXPECT_DOUBLE_EQ(rs.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(rs.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.Min(), 3.5);
  EXPECT_DOUBLE_EQ(rs.Max(), 3.5);
}

TEST(Stats, ArgsortAscendingStable) {
  const std::vector<double> xs{3.0, 1.0, 2.0, 1.0};
  const auto idx = ArgsortAscending(xs);
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx[0], 1u);  // first 1.0 (stable)
  EXPECT_EQ(idx[1], 3u);  // second 1.0
  EXPECT_EQ(idx[2], 2u);
  EXPECT_EQ(idx[3], 0u);
}

TEST(Table, MarkdownLayout) {
  TextTable table({"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"longer"});
  const std::string md = table.ToMarkdown();
  EXPECT_NE(md.find("| a      | bb |"), std::string::npos);
  EXPECT_NE(md.find("| longer |    |"), std::string::npos);
  EXPECT_EQ(table.NumRows(), 2u);
}

TEST(Table, RejectsOversizedRow) {
  TextTable table({"only"});
  EXPECT_THROW(table.AddRow({"1", "2"}), CheckError);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(Table, WriteFileRoundTrip) {
  const std::string path = testing::TempDir() + "/ht_table_test/out.csv";
  ASSERT_TRUE(WriteFile(path, "a,b\n1,2\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "a,b\n1,2\n");
}

}  // namespace
}  // namespace hypertune
