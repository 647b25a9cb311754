#include "sim/event_queue.h"

namespace hypertune {

IdleWorkerSet::IdleWorkerSet(int n) { Reset(n); }

void IdleWorkerSet::Reset(int n) {
  HT_CHECK(n > 0);
  const std::size_t workers = static_cast<std::size_t>(n);
  words_.assign((workers + 63) / 64, ~std::uint64_t{0});
  // Clear the bits past n-1 in the last word.
  const std::size_t tail = workers % 64;
  if (tail != 0) words_.back() = (std::uint64_t{1} << tail) - 1;
  summary_.assign((words_.size() + 63) / 64, 0);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    summary_[w / 64] |= std::uint64_t{1} << (w % 64);
  }
  count_ = workers;
}

}  // namespace hypertune
