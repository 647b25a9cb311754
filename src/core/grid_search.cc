#include "core/grid_search.h"

#include "common/check.h"

namespace hypertune {

GridSearchScheduler::GridSearchScheduler(SearchSpace space,
                                         GridSearchOptions options)
    : space_(std::move(space)),
      options_(options),
      bank_(std::make_shared<TrialBank>()) {
  HT_CHECK(options_.R > 0);
  HT_CHECK(options_.resolution >= 1);
  HT_CHECK(space_.NumParams() > 0);
  for (std::size_t i = 0; i < space_.NumParams(); ++i) {
    const Domain& domain = space_.domain(i);
    const std::size_t cardinality = domain.Cardinality();
    if (cardinality > 0) {
      dims_.push_back(std::min(cardinality, options_.resolution));
    } else {
      dims_.push_back(options_.resolution);
    }
  }
}

std::size_t GridSearchScheduler::GridSize() const {
  std::size_t total = 1;
  for (std::size_t d : dims_) total *= d;
  return total;
}

Configuration GridSearchScheduler::PointAt(std::size_t index) const {
  Configuration config;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const std::size_t coord = index % dims_[i];
    index /= dims_[i];
    // Bucket midpoints keep points interior (0.5/n, 1.5/n, ...).
    const double u = (static_cast<double>(coord) + 0.5) /
                     static_cast<double>(dims_[i]);
    config.Set(space_.name(i), space_.domain(i).FromUnit(u));
  }
  return config;
}

std::optional<Job> GridSearchScheduler::GetJob() {
  if (next_index_ >= GridSize()) return std::nullopt;
  Configuration config = PointAt(next_index_++);
  const TrialId id = bank_->Create(std::move(config), /*bracket=*/0);
  Trial& trial = bank_->Get(id);
  Job job;
  job.trial_id = id;
  job.config = trial.config;
  job.from_resource = 0;
  job.to_resource = options_.R;
  in_flight_.Open(job);
  trial.status = TrialStatus::kRunning;
  return job;
}

void GridSearchScheduler::ReportResult(const Job& job, double loss) {
  in_flight_.Resolve(job);
  bank_->RecordObservation(job.trial_id, job.to_resource, loss);
  bank_->Get(job.trial_id).status = TrialStatus::kCompleted;
  incumbent_.Offer(job.trial_id, loss, job.to_resource);
}

void GridSearchScheduler::ReportLost(const Job& job) {
  in_flight_.Resolve(job);
  bank_->Get(job.trial_id).status = TrialStatus::kLost;
}

bool GridSearchScheduler::Finished() const {
  return next_index_ >= GridSize() && in_flight_.empty();
}

std::optional<Recommendation> GridSearchScheduler::Current() const {
  return incumbent_.Current();
}

}  // namespace hypertune
