// The simulator-engine contract (DESIGN.md §9): the event heap pops in
// exactly ascending (end, seq) order, so the driver's completion order is
// fixed by the events alone. These tests check BinaryEventHeap against a
// sorted-vector reference on randomized driver-shaped workloads, pin the
// idle-worker set's lowest-index-first order, and check the stranded
// in-flight accounting in DriverResult.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/asha.h"
#include "sim/driver.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"

namespace hypertune {
namespace {

// The reference queue: a vector kept sorted by (end, seq), popped from the
// front. Obviously correct and O(n) per operation; it compares with its
// own key, not the EventBefore the heap uses.
class SortedVectorQueue {
 public:
  void Push(const SimEvent& event) {
    auto key = [](const SimEvent& e) { return std::tie(e.end, e.seq); };
    events_.insert(std::upper_bound(events_.begin(), events_.end(), event,
                                    [&](const SimEvent& a, const SimEvent& b) {
                                      return key(a) < key(b);
                                    }),
                   event);
  }
  const SimEvent& Top() const { return events_.front(); }
  void PopTop() { events_.erase(events_.begin()); }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<SimEvent> events_;
};

// Drives the heap and the reference through the driver's pattern: `workers`
// slots each hold at most one event; each pop frees its slot, and the
// freed slots are refilled (lowest first) unless the scheduler is "dry" on
// this pop, so the live count wanders below `workers` and back. Durations
// span four powers of three, as ASHA rungs do. With `quantize`, ends land
// on integer ticks, so many events share an instant and only seq orders
// them.
void CheckAgainstReference(std::uint64_t seed, int workers, bool quantize) {
  Rng rng(seed);
  BinaryEventHeap heap;
  SortedVectorQueue reference;
  std::vector<std::uint32_t> idle;
  for (int w = workers - 1; w >= 0; --w) {
    idle.push_back(static_cast<std::uint32_t>(w));
  }
  const int budget = std::max(2000, 4 * workers);  // pushes in total
  int pushed = 0;
  std::uint64_t seq = 0;
  double now = 0;
  auto dispatch_idle = [&] {
    while (!idle.empty() && pushed < budget) {
      double duration = rng.Uniform(0.01, 1.0);
      if (quantize) duration = static_cast<double>(rng.UniformInt(1, 3));
      for (std::int64_t rung = rng.UniformInt(0, 3); rung > 0; --rung) {
        duration *= 3;
      }
      const SimEvent event{now + duration, seq++, idle.back()};
      idle.pop_back();
      heap.Push(event);
      reference.Push(event);
      ++pushed;
    }
  };

  dispatch_idle();
  int popped = 0;
  while (!reference.empty()) {
    ASSERT_FALSE(heap.empty());
    const SimEvent want = reference.Top();
    const SimEvent got = heap.Top();
    ASSERT_EQ(got.end, want.end) << "pop " << popped;
    ASSERT_EQ(got.seq, want.seq) << "pop " << popped;
    ASSERT_EQ(got.slot, want.slot) << "pop " << popped;
    heap.PopTop();
    reference.PopTop();
    now = want.end;
    ++popped;
    idle.insert(std::upper_bound(idle.begin(), idle.end(), want.slot,
                                 std::greater<>()),
                want.slot);
    if (reference.empty() || rng.Uniform() < 0.8) dispatch_idle();
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(popped, budget);
}

constexpr int kFleets[] = {1, 4, 16, 512, 4096};

TEST(EventQueueProperty, HeapMatchesSortedReference) {
  for (const int workers : kFleets) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "workers " << workers << " seed " << seed);
      CheckAgainstReference(seed, workers, /*quantize=*/false);
    }
  }
}

TEST(EventQueueProperty, SameTickTiesBreakBySeq) {
  // Quantized ends put many events on the same instant; FIFO seq order is
  // the only thing separating them.
  for (const int workers : kFleets) {
    for (std::uint64_t seed = 10; seed <= 13; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "workers " << workers << " seed " << seed);
      CheckAgainstReference(seed, workers, /*quantize=*/true);
    }
  }
}

TEST(IdleWorkerSet, PopsLowestIndexFirst) {
  // 130 workers spans three 64-bit words, exercising the summary level.
  IdleWorkerSet idle(130);
  for (int i = 0; i < 130; ++i) {
    ASSERT_FALSE(idle.empty());
    EXPECT_EQ(idle.PopLowest(), i);
  }
  EXPECT_TRUE(idle.empty());

  idle.Insert(129);
  idle.Insert(64);
  idle.Insert(3);
  EXPECT_EQ(idle.PopLowest(), 3);
  EXPECT_EQ(idle.PopLowest(), 64);
  EXPECT_EQ(idle.PopLowest(), 129);
  EXPECT_TRUE(idle.empty());
}

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

/// Loss = the config's x value; duration = resource increment.
class LinearEnv final : public JobEnvironment {
 public:
  double Loss(const Configuration& config, Resource resource) override {
    (void)resource;
    return config.GetDouble("x");
  }
  double Duration(const Configuration& config, Resource from,
                  Resource to) override {
    (void)config;
    return to - from;
  }
};

AshaOptions SmallAsha() {
  AshaOptions options;
  options.R = 27;
  options.eta = 3;
  options.max_trials = 40;
  return options;
}

DriverResult RunAsha(int workers, std::size_t max_jobs = 0) {
  AshaScheduler scheduler(MakeRandomSampler(UnitSpace()), SmallAsha());
  LinearEnv env;
  auto telemetry = Telemetry::ForSimulation();
  DriverOptions options;
  options.num_workers = workers;
  options.telemetry = telemetry.get();
  options.max_completed_jobs = max_jobs;
  SimulationDriver driver(scheduler, env, options);
  return driver.Run();
}

TEST(StrandedAccounting, InFlightJobsAreCountedNotDropped) {
  // Cap completions mid-run with several workers: the jobs still occupying
  // workers at the stop are in flight — not completed, not dropped.
  const DriverResult result = RunAsha(8, /*max_jobs=*/10);
  EXPECT_EQ(result.jobs_completed, 10u);
  EXPECT_GT(result.jobs_in_flight, 0u);
  EXPECT_LE(result.jobs_in_flight, 7u);  // at most workers - 1
  EXPECT_EQ(result.completions.size(),
            result.jobs_completed + result.jobs_dropped);
}

TEST(StrandedAccounting, DrainedRunHasNoInFlightJobs) {
  const DriverResult result = RunAsha(4);
  EXPECT_EQ(result.jobs_in_flight, 0u);
  EXPECT_GT(result.jobs_completed, 0u);
}

TEST(StrandedAccounting, StrandedCounterMatchesResult) {
  AshaScheduler scheduler(MakeRandomSampler(UnitSpace()), SmallAsha());
  LinearEnv env;
  auto telemetry = Telemetry::ForSimulation();
  DriverOptions options;
  options.num_workers = 8;
  options.telemetry = telemetry.get();
  options.max_completed_jobs = 10;
  SimulationDriver driver(scheduler, env, options);
  const DriverResult result = driver.Run();
  ASSERT_GT(result.jobs_in_flight, 0u);
  EXPECT_EQ(telemetry->metrics().counter("driver.jobs_stranded").value(),
            static_cast<std::int64_t>(result.jobs_in_flight));
}

}  // namespace
}  // namespace hypertune
