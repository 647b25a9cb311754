// Differential test: the incrementally-indexed Rung against a naive
// reference implementation, under long random interleavings of Record /
// MarkPromoted / FirstPromotable. The two-heap split and the promotable
// list in core/rung.cc are the subtlest code in the scheduler hot path;
// this suite pins them to the obviously-correct version, including the
// paths schedulers reach around the ASHA loop: arbitrary promotions (SHA's
// TopK), promotions before the first query (snapshot restore), an eta
// change, and the ToJson / RungFromJson round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/rung.h"
#include "core/trial_json.h"

namespace hypertune {
namespace {

/// The obviously-correct rung: full rescan on every query.
class ReferenceRung {
 public:
  void Record(TrialId id, double loss) { results_.emplace_back(loss, id); }

  void MarkPromoted(TrialId id) { promoted_.insert(id); }

  bool IsPromoted(TrialId id) const { return promoted_.contains(id); }

  std::size_t size() const { return results_.size(); }

  /// The id recorded `index`-th (insertion order).
  TrialId IdAt(std::size_t index) const { return results_[index].second; }

  std::vector<Rung::Entry> Sorted() const {
    std::vector<Rung::Entry> sorted = results_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  std::optional<TrialId> FirstPromotable(double eta) const {
    const auto promotable = Promotable(eta);
    if (promotable.empty()) return std::nullopt;
    return promotable.front();
  }

  std::vector<TrialId> Promotable(double eta) const {
    const auto sorted = Sorted();
    const auto k = static_cast<std::size_t>(
        static_cast<double>(sorted.size()) / eta);
    std::vector<TrialId> out;
    for (std::size_t i = 0; i < k; ++i) {
      if (!IsPromoted(sorted[i].second)) out.push_back(sorted[i].second);
    }
    return out;
  }

  std::vector<TrialId> TopK(std::size_t k) const {
    const auto sorted = Sorted();
    std::vector<TrialId> out;
    for (std::size_t i = 0; i < std::min(k, sorted.size()); ++i) {
      out.push_back(sorted[i].second);
    }
    return out;
  }

  double BestLoss() const {
    return results_.empty() ? std::numeric_limits<double>::infinity()
                            : Sorted().front().first;
  }

  TrialId BestTrial() const {
    return results_.empty() ? TrialId{-1} : Sorted().front().second;
  }

  std::size_t NumPromoted() const { return promoted_.size(); }

 private:
  std::vector<Rung::Entry> results_;
  std::set<TrialId> promoted_;
};

/// Every query the rung answers, against the reference. Queries at `eta`
/// bind (or keep) the rung's index at that eta.
void ExpectSameAnswers(const Rung& rung, const ReferenceRung& reference,
                       double eta, Rng& rng) {
  ASSERT_EQ(rung.NumRecorded(), reference.size());
  EXPECT_EQ(rung.NumPromoted(), reference.NumPromoted());
  EXPECT_EQ(rung.SortedResults(), reference.Sorted());
  EXPECT_EQ(rung.PromotableTrials(eta), reference.Promotable(eta));
  EXPECT_EQ(rung.FirstPromotable(eta), reference.FirstPromotable(eta));
  EXPECT_EQ(rung.HasPromotable(eta),
            reference.FirstPromotable(eta).has_value());
  EXPECT_EQ(rung.BestLoss(), reference.BestLoss());
  EXPECT_EQ(rung.BestTrial(), reference.BestTrial());
  const auto k = rng.Index(reference.size() + 3);
  EXPECT_EQ(rung.TopK(k), reference.TopK(k)) << "k=" << k;
}

struct FuzzParams {
  double eta;
  std::uint64_t seed;
  int steps;
  /// Probability a step promotes (via the real rung's answer) vs records.
  double promote_probability;
  /// Losses drawn from a small discrete set to force ties when true.
  bool heavy_ties;
};

class RungDifferential : public testing::TestWithParam<FuzzParams> {};

TEST_P(RungDifferential, MatchesReferenceUnderRandomOps) {
  const auto params = GetParam();
  Rng rng(params.seed);
  Rng check_rng(params.seed + 100);  // TopK sizes, off the op stream
  Rung rung;
  ReferenceRung reference;
  TrialId next_id = 0;

  for (int step = 0; step < params.steps; ++step) {
    const bool try_promote = rng.Bernoulli(params.promote_probability);
    if (try_promote) {
      const auto real = rung.FirstPromotable(params.eta);
      const auto expected = reference.FirstPromotable(params.eta);
      // The O(1) existence check must agree with the full query at every
      // interleaving point (it backs Scheduler::Finished).
      ASSERT_EQ(rung.HasPromotable(params.eta), expected.has_value())
          << "step " << step;
      // Ties in the reference sort are broken by (loss, id) just like the
      // real rung's order, so answers must agree exactly.
      ASSERT_EQ(real.has_value(), expected.has_value()) << "step " << step;
      if (real) {
        ASSERT_EQ(*real, *expected) << "step " << step;
        rung.MarkPromoted(*real);
        reference.MarkPromoted(*expected);
      }
    } else {
      const double loss =
          params.heavy_ties
              ? 0.1 * static_cast<double>(rng.UniformInt(0, 5))
              : rng.Uniform();
      rung.Record(next_id, loss);
      reference.Record(next_id, loss);
      ++next_id;
    }
    if (step % 64 == 0) {
      SCOPED_TRACE("step " + std::to_string(step));
      ExpectSameAnswers(rung, reference, params.eta, check_rng);
    }
  }
  // Final full-state agreement.
  ExpectSameAnswers(rung, reference, params.eta, check_rng);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, RungDifferential,
    testing::Values(FuzzParams{2.0, 1, 4000, 0.3, false},
                    FuzzParams{2.0, 2, 4000, 0.6, true},
                    FuzzParams{3.0, 3, 4000, 0.4, false},
                    FuzzParams{3.0, 4, 2000, 0.5, true},
                    FuzzParams{4.0, 5, 4000, 0.2, false},
                    FuzzParams{4.0, 6, 4000, 0.45, true},
                    FuzzParams{8.0, 7, 4000, 0.3, false},
                    FuzzParams{2.0, 8, 500, 0.05, true},
                    FuzzParams{4.0, 9, 500, 0.9, false}),
    [](const testing::TestParamInfo<FuzzParams>& info) {
      const auto& p = info.param;
      return "eta" + std::to_string(static_cast<int>(p.eta)) + "_seed" +
             std::to_string(p.seed) + (p.heavy_ties ? "_ties" : "_uniform");
    });

struct MixedParams {
  double eta;
  std::uint64_t seed;
  int steps;
  bool heavy_ties;
  /// Every 500 steps, switch the queried eta between `eta` and `eta + 1`,
  /// forcing the rung to rebuild its split.
  bool switch_eta;
};

class RungDifferentialMixedOps : public testing::TestWithParam<MixedParams> {
};

TEST_P(RungDifferentialMixedOps, MatchesReferenceAcrossEveryPath) {
  const auto params = GetParam();
  Rng rng(params.seed);
  Rung rung;
  ReferenceRung reference;
  TrialId next_id = 0;
  const auto record = [&] {
    const double loss =
        params.heavy_ties ? 0.1 * static_cast<double>(rng.UniformInt(0, 5))
                          : rng.Uniform();
    rung.Record(next_id, loss);
    reference.Record(next_id, loss);
    // Mostly dense ids, with the occasional gap a shared bank leaves.
    next_id += rng.Bernoulli(0.02) ? rng.UniformInt(1, 5000) : 1;
  };
  // Promotes a recorded trial chosen without asking the rung: from the
  // current candidate prefix half the time, else from anywhere (SHA's TopK
  // promotions reach both). A second promotion of the same trial throws.
  const auto promote_arbitrary = [&](double eta) {
    const auto prefix = static_cast<std::size_t>(
        static_cast<double>(reference.size()) / eta);
    const TrialId id = prefix > 0 && rng.Bernoulli(0.5)
                           ? reference.Sorted()[rng.Index(prefix)].second
                           : reference.IdAt(rng.Index(reference.size()));
    if (reference.IsPromoted(id)) {
      EXPECT_THROW(rung.MarkPromoted(id), CheckError);
      return;
    }
    rung.MarkPromoted(id);
    reference.MarkPromoted(id);
  };

  // Records and promotions before the first query, as RungFromJson does.
  for (int i = 0; i < 300; ++i) record();
  for (int i = 0; i < 60; ++i) promote_arbitrary(params.eta);
  EXPECT_THROW(rung.FirstPromotable(1.5), CheckError);  // eta >= 2

  double eta = params.eta;
  for (int step = 0; step < params.steps; ++step) {
    if (params.switch_eta && step % 500 == 499) {
      eta = eta == params.eta ? params.eta + 1 : params.eta;
    }
    const double op = rng.Uniform();
    if (op < 0.45) {
      record();
    } else if (op < 0.7) {
      const auto real = rung.FirstPromotable(eta);
      ASSERT_EQ(real, reference.FirstPromotable(eta)) << "step " << step;
      if (real) {
        rung.MarkPromoted(*real);
        reference.MarkPromoted(*real);
      }
    } else if (op < 0.95) {
      promote_arbitrary(eta);
    } else {
      // Invalid operations throw and leave the rung unchanged.
      EXPECT_THROW(rung.Record(reference.IdAt(rng.Index(reference.size())),
                               0.5),
                   CheckError);
      EXPECT_THROW(rung.MarkPromoted(next_id + 1000), CheckError);
    }

    if (step % 97 == 0) {
      SCOPED_TRACE("step " + std::to_string(step));
      ExpectSameAnswers(rung, reference, eta, rng);
    }
    if (step % 389 == 0) {
      // Round trip through snapshot text: identical bytes and identical
      // answers, and the restored rung carries on in place of the original.
      SCOPED_TRACE("round trip at step " + std::to_string(step));
      const std::string bytes = ToJson(rung).Dump();
      Rung restored = RungFromJson(Json::Parse(bytes));
      EXPECT_EQ(ToJson(restored).Dump(), bytes);
      ExpectSameAnswers(restored, reference, eta, rng);
      rung = std::move(restored);
    }
  }
  ExpectSameAnswers(rung, reference, eta, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, RungDifferentialMixedOps,
    testing::Values(MixedParams{2.0, 11, 4000, false, false},
                    MixedParams{2.0, 12, 4000, true, true},
                    MixedParams{3.0, 13, 4000, false, true},
                    MixedParams{4.0, 14, 4000, true, false},
                    MixedParams{4.0, 15, 4000, false, true},
                    MixedParams{8.0, 16, 3000, true, true}),
    [](const testing::TestParamInfo<MixedParams>& info) {
      const auto& p = info.param;
      return "eta" + std::to_string(static_cast<int>(p.eta)) + "_seed" +
             std::to_string(p.seed) + (p.heavy_ties ? "_ties" : "_uniform") +
             (p.switch_eta ? "_switch" : "");
    });

}  // namespace
}  // namespace hypertune
