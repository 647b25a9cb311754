// The simulation engine's event queue and idle-worker pool.
//
// The driver keeps job payloads in a slab indexed by worker slot and orders
// only 20-byte {end, seq, slot} events, so a sift never moves a Job or its
// Configuration. BinaryEventHeap, a plain array binary min-heap, is the one
// event queue. It pops in exactly ascending (end, seq) order — `seq` is the
// driver's FIFO tie-break for same-tick completions — and a property test
// (tests/sim_engine_test.cc) checks its pop sequence against a sorted-vector
// reference on randomized driver-shaped workloads.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace hypertune {

/// One scheduled completion: when (`end`), FIFO rank (`seq`), and which
/// slab slot holds the job payload (the executing worker's index).
struct SimEvent {
  double end = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

/// The total order the queue pops in: by end time, FIFO within a tick.
inline bool EventBefore(const SimEvent& a, const SimEvent& b) {
  if (a.end != b.end) return a.end < b.end;
  return a.seq < b.seq;
}

class BinaryEventHeap {
 public:
  void Reserve(std::size_t n) { events_.reserve(n); }

  /// Empties the heap keeping its capacity — sweep contexts reuse one heap
  /// across thousands of runs instead of reallocating per run.
  void Clear() { events_.clear(); }

  // Push/PopTop are defined inline: they run once per simulated job and a
  // cross-TU call costs as much as the sift itself at small queue sizes.
  void Push(const SimEvent& event) {
    events_.push_back(event);
    std::size_t i = events_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!EventBefore(events_[i], events_[parent])) break;
      std::swap(events_[i], events_[parent]);
      i = parent;
    }
  }

  /// Smallest (end, seq) event; queue must be non-empty.
  const SimEvent& Top() const {
    HT_CHECK(!events_.empty());
    return events_.front();
  }

  void PopTop() {
    HT_CHECK(!events_.empty());
    events_.front() = events_.back();
    events_.pop_back();
    const std::size_t n = events_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      const std::size_t smallest =
          (right < n && EventBefore(events_[right], events_[left])) ? right
                                                                    : left;
      if (!EventBefore(events_[smallest], events_[i])) break;
      std::swap(events_[i], events_[smallest]);
      i = smallest;
    }
  }

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<SimEvent> events_;  // implicit binary min-heap
};

/// The idle-worker pool: a two-level bitmap with O(1) lowest-free-index pop,
/// replacing the std::set<int> (one node allocation per insert) while
/// preserving the deterministic lowest-index-first assignment order.
class IdleWorkerSet {
 public:
  /// All of 0..n-1 start idle.
  explicit IdleWorkerSet(int n);

  /// Re-marks all of 0..n-1 idle, reusing the bitmap storage when `n` does
  /// not outgrow it.
  void Reset(int n);

  // Inline like the event heap: one Insert/PopLowest pair per job.
  void Insert(int worker) {
    const auto w = static_cast<std::size_t>(worker);
    words_[w / 64] |= std::uint64_t{1} << (w % 64);
    summary_[(w / 64) / 64] |= std::uint64_t{1} << ((w / 64) % 64);
    ++count_;
  }

  /// Removes and returns the lowest idle index; set must be non-empty.
  int PopLowest() {
    HT_CHECK(count_ > 0);
    std::size_t group = 0;
    while (summary_[group] == 0) ++group;
    const std::size_t word =
        group * 64 +
        static_cast<std::size_t>(std::countr_zero(summary_[group]));
    const auto bit = static_cast<std::size_t>(std::countr_zero(words_[word]));
    words_[word] &= words_[word] - 1;  // clear lowest set bit
    if (words_[word] == 0) {
      summary_[group] &= ~(std::uint64_t{1} << (word % 64));
    }
    --count_;
    return static_cast<int>(word * 64 + bit);
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

 private:
  std::vector<std::uint64_t> words_;    // bit per worker
  std::vector<std::uint64_t> summary_;  // bit per non-empty word
  std::size_t count_ = 0;
};

}  // namespace hypertune
