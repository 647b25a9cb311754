// A rung: the set of configurations evaluated at one resource level of a
// successive-halving bracket, with promotion bookkeeping.
//
// Implementation notes: results live in flat arrays split at rank
// k = floor(n/eta). The k best (loss, id) entries — the promotion
// candidates — form a max-heap and the rest a min-heap, so a Record moves
// at most one entry across the split with O(log n) swaps in contiguous
// memory. The unpromoted candidates sit in a small sorted vector whose
// best entry is FirstPromotable, and an open-addressed table maps each id
// to its loss and promotion mark. Large-scale simulations push tens of
// thousands of results into the bottom rung and ask FirstPromotable on
// every worker request; both stay O(1) and Record allocates nothing once
// the arrays have grown. The split binds eta on the first promotion query
// (until then Record only appends); ordered views (TopK, SortedResults,
// the snapshot) sort a copy on demand.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/types.h"

namespace hypertune {

class Rung {
 public:
  /// A result as ordered in the rung: ascending loss, ties by id.
  using Entry = std::pair<double, TrialId>;

  /// Records a completed evaluation. A trial may appear at most once.
  void Record(TrialId id, double loss);

  bool Contains(TrialId id) const { return ids_.Find(id) != nullptr; }

  /// Number of recorded results ("|rung k|" in Algorithm 2).
  std::size_t NumRecorded() const { return ids_.size(); }

  /// Marks a trial as promoted out of this rung. Requires it was recorded
  /// here and not already promoted.
  void MarkPromoted(TrialId id);

  bool IsPromoted(TrialId id) const;

  std::size_t NumPromoted() const { return num_promoted_; }

  /// Algorithm 2 lines 14-17: the best not-yet-promoted trial among the top
  /// floor(NumRecorded()/eta), if any. `eta` must be >= 2 and must not vary
  /// across calls on one rung (successive halving uses a fixed eta); a new
  /// eta rebuilds the split in O(n).
  std::optional<TrialId> FirstPromotable(double eta) const;

  /// FirstPromotable(eta).has_value() without building the optional: O(1),
  /// allocation-free. Schedulers' Finished() checks run this on every
  /// worker-loop iteration.
  bool HasPromotable(double eta) const;

  /// All promotable trials (best first), from a full sort; used by tests as
  /// the oracle the incremental index is differential-tested against.
  std::vector<TrialId> PromotableTrials(double eta) const;

  /// The best `k` recorded trials (fewer if the rung is smaller), best
  /// first, regardless of promotion state — synchronous SHA's rung-
  /// completion elimination (Algorithm 1 line 10).
  std::vector<TrialId> TopK(std::size_t k) const;

  /// Lowest recorded loss; +inf when empty.
  double BestLoss() const;

  /// Trial id achieving BestLoss(); -1 when empty.
  TrialId BestTrial() const;

  /// Every result in ascending (loss, id) order.
  std::vector<Entry> SortedResults() const;

 private:
  /// Open-addressed (linear probing) map from trial id to its loss and
  /// promotion mark. A rung never forgets a trial, so there is no erase.
  class IdTable {
   public:
    struct Slot {
      TrialId id = 0;
      double loss = 0;
      bool used = false;
      bool promoted = false;
    };

    std::size_t size() const { return size_; }
    Slot* Find(TrialId id);
    const Slot* Find(TrialId id) const;
    /// Adds `id`; returns false if it is already present.
    bool Insert(TrialId id, double loss);

   private:
    /// Index of `id`'s slot, or of the empty slot where it would go.
    std::size_t Probe(TrialId id) const;
    void Grow();

    static constexpr std::uint64_t kBlock = 8;

    std::vector<Slot> slots_;  // power-of-two size, at most half full
    int block_shift_ = 64;     // 64 - log2(slots_.size() / kBlock)
    std::size_t size_ = 0;
  };

  /// Splits every entry at rank floor(n/eta) and rebuilds `promotable_`.
  void RebuildIndex(double eta) const;
  /// Moves the best non-candidate into the candidate heap.
  void GrowCandidates() const;
  void AddPromotable(const Entry& entry) const;
  /// Removes `entry` from `promotable_`; returns whether it was there.
  bool RemovePromotable(const Entry& entry) const;

  IdTable ids_;
  std::size_t num_promoted_ = 0;
  Entry best_{};  // running minimum; meaningful once NumRecorded() > 0

  // The split is mutable: it is bound to eta lazily on the first query.
  // Until then every entry sits unordered in `rest_`.
  mutable bool index_valid_ = false;
  mutable double eta_ = 0;
  /// The best floor(n/eta_) entries, a max-heap (front is the worst).
  mutable std::vector<Entry> candidates_;
  /// Every other entry, a min-heap (front is the best).
  mutable std::vector<Entry> rest_;
  /// Unpromoted candidates in descending order — back() is FirstPromotable,
  /// so promoting it pops the back.
  mutable std::vector<Entry> promotable_;
};

}  // namespace hypertune
