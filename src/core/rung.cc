#include "core/rung.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

#include "common/check.h"

namespace hypertune {
namespace {

/// floor(n / eta): how many of a rung's n entries are promotion candidates.
std::size_t CandidateCount(std::size_t n, double eta) {
  return static_cast<std::size_t>(static_cast<double>(n) / eta);
}

}  // namespace

std::size_t Rung::IdTable::Probe(TrialId id) const {
  // Ids hash in blocks of kBlock. The bank hands out dense ids, so a run
  // of consecutive ids fills adjacent slots and stays in cache; Fibonacci
  // hashing of the block number scatters the blocks, so runs of ids that
  // lie a multiple of the table size apart (one bracket's share of a shared
  // bank) do not pile onto one probe cluster.
  const std::size_t mask = slots_.size() - 1;
  const auto key = static_cast<std::uint64_t>(id);
  const std::uint64_t block =
      (key / kBlock * 0x9E3779B97F4A7C15ULL) >> block_shift_;
  std::size_t i = static_cast<std::size_t>(block * kBlock + key % kBlock);
  while (slots_[i].used && slots_[i].id != id) i = (i + 1) & mask;
  return i;
}

const Rung::IdTable::Slot* Rung::IdTable::Find(TrialId id) const {
  if (size_ == 0) return nullptr;
  const Slot& slot = slots_[Probe(id)];
  return slot.used ? &slot : nullptr;
}

Rung::IdTable::Slot* Rung::IdTable::Find(TrialId id) {
  return const_cast<Slot*>(std::as_const(*this).Find(id));
}

void Rung::IdTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = std::max<std::size_t>(16, 2 * old.size());
  slots_.assign(capacity, Slot{});
  block_shift_ = 64 - std::countr_zero(capacity / kBlock);
  for (const Slot& slot : old) {
    if (slot.used) slots_[Probe(slot.id)] = slot;
  }
}

bool Rung::IdTable::Insert(TrialId id, double loss) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  Slot& slot = slots_[Probe(id)];
  if (slot.used) return false;
  slot = Slot{id, loss, /*used=*/true, /*promoted=*/false};
  ++size_;
  return true;
}

void Rung::RebuildIndex(double eta) const {
  eta_ = eta;
  rest_.insert(rest_.end(), candidates_.begin(), candidates_.end());
  const auto split = rest_.begin() + static_cast<std::ptrdiff_t>(
                                         CandidateCount(rest_.size(), eta));
  std::nth_element(rest_.begin(), split, rest_.end());
  candidates_.assign(rest_.begin(), split);
  rest_.erase(rest_.begin(), split);
  std::make_heap(candidates_.begin(), candidates_.end());
  std::make_heap(rest_.begin(), rest_.end(), std::greater<>{});
  promotable_.clear();
  for (const Entry& entry : candidates_) {
    if (!IsPromoted(entry.second)) promotable_.push_back(entry);
  }
  std::sort(promotable_.begin(), promotable_.end(), std::greater<>{});
  index_valid_ = true;
}

void Rung::GrowCandidates() const {
  HT_CHECK(!rest_.empty());
  std::pop_heap(rest_.begin(), rest_.end(), std::greater<>{});
  const Entry joined = rest_.back();
  rest_.pop_back();
  candidates_.push_back(joined);
  std::push_heap(candidates_.begin(), candidates_.end());
  if (!IsPromoted(joined.second)) AddPromotable(joined);
}

void Rung::AddPromotable(const Entry& entry) const {
  promotable_.insert(std::lower_bound(promotable_.begin(), promotable_.end(),
                                      entry, std::greater<>{}),
                     entry);
}

bool Rung::RemovePromotable(const Entry& entry) const {
  const auto it = std::lower_bound(promotable_.begin(), promotable_.end(),
                                   entry, std::greater<>{});
  if (it == promotable_.end() || *it != entry) return false;
  promotable_.erase(it);
  return true;
}

void Rung::Record(TrialId id, double loss) {
  const bool inserted = ids_.Insert(id, loss);
  HT_CHECK_MSG(inserted, "trial " << id << " already recorded in rung");
  const Entry entry{loss, id};
  if (NumRecorded() == 1 || entry < best_) best_ = entry;
  if (!index_valid_) {
    rest_.push_back(entry);
    return;
  }

  if (!candidates_.empty() && entry < candidates_.front()) {
    // The new entry displaces the worst candidate across the split; that
    // one leaves the promotable list if it was on it.
    const Entry displaced = candidates_.front();
    std::pop_heap(candidates_.begin(), candidates_.end());
    candidates_.back() = entry;
    std::push_heap(candidates_.begin(), candidates_.end());
    AddPromotable(entry);
    RemovePromotable(displaced);
    rest_.push_back(displaced);
  } else {
    rest_.push_back(entry);
  }
  std::push_heap(rest_.begin(), rest_.end(), std::greater<>{});

  // k = floor(n / eta) grows by at most one per record; the best
  // non-candidate then joins the candidates.
  if (CandidateCount(NumRecorded(), eta_) > candidates_.size()) {
    GrowCandidates();
  }
}

void Rung::MarkPromoted(TrialId id) {
  IdTable::Slot* slot = ids_.Find(id);
  HT_CHECK_MSG(slot != nullptr, "promoting trial " << id << " not in rung");
  HT_CHECK_MSG(!slot->promoted, "trial " << id << " promoted twice");
  slot->promoted = true;
  ++num_promoted_;
  const Entry entry{slot->loss, id};
  if (index_valid_ && !candidates_.empty() &&
      !(candidates_.front() < entry)) {
    const bool removed = RemovePromotable(entry);
    HT_CHECK(removed);
  }
}

bool Rung::IsPromoted(TrialId id) const {
  const IdTable::Slot* slot = ids_.Find(id);
  return slot != nullptr && slot->promoted;
}

std::optional<TrialId> Rung::FirstPromotable(double eta) const {
  if (!HasPromotable(eta)) return std::nullopt;
  return promotable_.back().second;
}

bool Rung::HasPromotable(double eta) const {
  HT_CHECK(eta >= 2.0);
  if (!index_valid_ || eta_ != eta) RebuildIndex(eta);
  return !promotable_.empty();
}

std::vector<TrialId> Rung::PromotableTrials(double eta) const {
  HT_CHECK(eta >= 2.0);
  const auto sorted = SortedResults();
  std::vector<TrialId> out;
  for (std::size_t i = 0; i < CandidateCount(sorted.size(), eta); ++i) {
    if (!IsPromoted(sorted[i].second)) out.push_back(sorted[i].second);
  }
  return out;
}

std::vector<TrialId> Rung::TopK(std::size_t k) const {
  const auto sorted = SortedResults();
  std::vector<TrialId> out(std::min(k, sorted.size()));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = sorted[i].second;
  return out;
}

double Rung::BestLoss() const {
  return NumRecorded() == 0 ? std::numeric_limits<double>::infinity()
                            : best_.first;
}

TrialId Rung::BestTrial() const {
  return NumRecorded() == 0 ? TrialId{-1} : best_.second;
}

std::vector<Rung::Entry> Rung::SortedResults() const {
  std::vector<Entry> out = candidates_;
  out.insert(out.end(), rest_.begin(), rest_.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hypertune
