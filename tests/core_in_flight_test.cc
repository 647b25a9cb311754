// Differential test of InFlightJobs against a std::map reference with the
// same contract: Open refuses a trial already out, Resolve accepts only the
// exact job issued for its trial, and the listing is in ascending trial
// order. After every step both must agree on size(), empty() and the
// listing, and on whether the step was refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <vector>

#include "common/check.h"
#include "core/scheduler.h"

namespace hypertune {
namespace {

bool SameJob(const Job& a, const Job& b) {
  return a.trial_id == b.trial_id && a.rung == b.rung &&
         a.bracket == b.bracket && a.tag == b.tag &&
         a.from_resource == b.from_resource && a.to_resource == b.to_resource;
}

class Reference {
 public:
  bool Open(const Job& job) { return jobs_.emplace(job.trial_id, job).second; }

  bool Resolve(const Job& job) {
    const auto it = jobs_.find(job.trial_id);
    if (it == jobs_.end() || !SameJob(it->second, job)) return false;
    jobs_.erase(it);
    return true;
  }

  const std::map<TrialId, Job>& jobs() const { return jobs_; }

 private:
  std::map<TrialId, Job> jobs_;
};

/// Applies one step to both sides and checks they agree afterwards.
class Pair {
 public:
  void Open(const Job& job) {
    const bool accepted = reference_.Open(job);
    bool threw = false;
    try {
      table_.Open(job);
    } catch (const CheckError&) {
      threw = true;
    }
    ASSERT_EQ(threw, !accepted) << "open of trial " << job.trial_id;
    Check();
  }

  void Resolve(const Job& job) {
    const bool accepted = reference_.Resolve(job);
    bool threw = false;
    try {
      table_.Resolve(job);
    } catch (const CheckError&) {
      threw = true;
    }
    ASSERT_EQ(threw, !accepted) << "report of trial " << job.trial_id;
    Check();
  }

  const Reference& reference() const { return reference_; }

 private:
  void Check() const {
    ASSERT_EQ(table_.size(), reference_.jobs().size());
    ASSERT_EQ(table_.empty(), reference_.jobs().empty());
    const std::vector<Job> listing = table_.Sorted();
    ASSERT_EQ(listing.size(), reference_.jobs().size());
    auto it = reference_.jobs().begin();
    for (const Job& job : listing) {
      ASSERT_TRUE(SameJob(job, it->second)) << "trial " << job.trial_id;
      ASSERT_TRUE(job.config.empty());
      ++it;
    }
  }

  Reference reference_;
  InFlightJobs table_;
};

Job MakeJob(TrialId id, std::mt19937_64& rng) {
  Job job;
  job.trial_id = id;
  job.rung = static_cast<int>(rng() % 5);
  job.bracket = static_cast<int>(rng() % 3);
  job.tag = rng() % 4;
  job.from_resource = static_cast<double>(rng() % 4);
  job.to_resource = job.from_resource + 1 + static_cast<double>(rng() % 8);
  return job;
}

/// `job` with exactly one checked field changed.
Job Forge(Job job, int field) {
  switch (field) {
    case 0: ++job.rung; break;
    case 1: ++job.bracket; break;
    case 2: ++job.tag; break;
    case 3: job.from_resource += 0.5; break;
    default: job.to_resource += 0.5; break;
  }
  return job;
}

const Job& PickOut(const Reference& reference, std::mt19937_64& rng) {
  auto it = reference.jobs().begin();
  std::advance(it, static_cast<long>(rng() % reference.jobs().size()));
  return it->second;
}

TEST(InFlightJobs, EmptyTableRejectsEveryReport) {
  InFlightJobs table;
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.Sorted().empty());
  Job job;
  job.trial_id = 3;
  EXPECT_THROW(table.Resolve(job), CheckError);
  job.trial_id = -1;
  EXPECT_THROW(table.Open(job), CheckError);
  EXPECT_THROW(table.Resolve(job), CheckError);
  EXPECT_EQ(table.size(), 0u);
}

TEST(InFlightJobs, MatchesMapReferenceOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Pair pair;
    // Small id ranges make collisions, duplicates, re-opens and probe runs
    // that wrap past the last slot common; a wide one makes the table grow.
    const TrialId ids = seed % 4 == 0 ? 200 : 24;
    std::vector<Job> reported;  // settled jobs, for double reports
    for (int step = 0; step < 120; ++step) {
      const auto& out = pair.reference().jobs();
      const auto op = rng() % 10;
      if (op < 4 || out.empty()) {
        // An open; some land on a trial that is already out.
        pair.Open(MakeJob(static_cast<TrialId>(rng() % ids), rng));
      } else if (op < 6) {
        const Job job = PickOut(pair.reference(), rng);
        pair.Resolve(job);  // the correct report
        reported.push_back(job);
      } else if (op == 6) {
        pair.Resolve(Forge(PickOut(pair.reference(), rng),
                           static_cast<int>(rng() % 5)));
      } else if (op == 7 && !reported.empty()) {
        pair.Resolve(reported[rng() % reported.size()]);  // a double report
      } else if (op == 8) {
        Job unknown = MakeJob(ids + static_cast<TrialId>(rng() % 10), rng);
        pair.Resolve(unknown);  // a trial that was never issued
      } else {
        // A second open of a trial that is out, with fresh fields.
        pair.Open(MakeJob(PickOut(pair.reference(), rng).trial_id, rng));
      }
      if (HasFatalFailure()) return;
    }
  }
}

TEST(InFlightJobs, MatchesMapReferenceOverSlidingWindowOfIds) {
  // The simulator's shape: hundreds of jobs out, new trials at the top of
  // a moving id window, promotions reopening older ids. The table grows
  // from empty to 2048 slots and then runs near its half-full limit.
  // Fibonacci hashing spreads dense ids almost evenly, so seed 1 (dense ids,
  // as a scheduler issues them) forms few probe runs; seed 2 jitters
  // each new id within its own block of 1000, which forms runs for erases
  // to shift. Runs that wrap past the last slot are rare at this size; the
  // random sequences above, in tables of at most 512 slots, meet them often.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Pair pair;
    TrialId next_id = 0;
    const auto new_id = [&] {
      const TrialId block = next_id++;
      return seed == 1 ? block
                       : 1000 * block + static_cast<TrialId>(rng() % 1000);
    };
    std::vector<TrialId> paused;  // reported, awaiting promotion
    for (int step = 0; step < 3000; ++step) {
      const std::size_t out = pair.reference().jobs().size();
      const std::size_t target = step < 2000 ? 1000 : 900;
      if (out < target) {
        if (!paused.empty() && rng() % 3 == 0) {
          const std::size_t pick = rng() % paused.size();
          const TrialId id = paused[pick];
          paused[pick] = paused.back();
          paused.pop_back();
          pair.Open(MakeJob(id, rng));  // a promotion
        } else {
          pair.Open(MakeJob(new_id(), rng));
        }
      } else {
        const Job job = PickOut(pair.reference(), rng);
        if (rng() % 8 == 0) {
          pair.Resolve(Forge(job, static_cast<int>(rng() % 5)));
        }
        pair.Resolve(job);
        if (rng() % 4 != 0) paused.push_back(job.trial_id);
        if (paused.size() > 400) paused.erase(paused.begin());
      }
      if (HasFatalFailure()) return;
    }
    EXPECT_GE(next_id, 1000);
  }
}

}  // namespace
}  // namespace hypertune
