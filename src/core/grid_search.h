// Grid search: exhaustively evaluates a Cartesian grid over the search
// space at the full resource R. The classical baseline the paper's
// introduction dismisses for high-dimensional spaces — included so users
// can measure exactly why (grid size explodes as resolution^d).
#pragma once

#include <memory>
#include <vector>

#include "core/incumbent.h"
#include "core/scheduler.h"
#include "searchspace/space.h"

namespace hypertune {

struct GridSearchOptions {
  double R = 256;
  /// Points per continuous/integer dimension (choices enumerate all
  /// options). Grid size is the product across dimensions.
  std::size_t resolution = 4;
};

class GridSearchScheduler final : public Scheduler {
 public:
  GridSearchScheduler(SearchSpace space, GridSearchOptions options);

  std::optional<Job> GetJob() override;
  void ReportResult(const Job& job, double loss) override;
  void ReportLost(const Job& job) override;
  bool Finished() const override;
  std::optional<Recommendation> Current() const override;
  const TrialBank& trials() const override { return *bank_; }
  std::string name() const override { return "Grid"; }

  /// Total number of grid points.
  std::size_t GridSize() const;

 private:
  /// Decodes a flat grid index into a configuration.
  Configuration PointAt(std::size_t index) const;

  SearchSpace space_;
  GridSearchOptions options_;
  std::shared_ptr<TrialBank> bank_;
  std::vector<std::size_t> dims_;  // points per dimension
  std::size_t next_index_ = 0;
  /// Jobs issued and not yet reported.
  InFlightJobs in_flight_;
  IncumbentTracker incumbent_;
};

}  // namespace hypertune
