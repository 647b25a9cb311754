#include "core/scheduler.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/json.h"

namespace hypertune {

Json Scheduler::Snapshot() const {
  throw CheckError("scheduler '" + name() + "' does not support Snapshot()");
}

void Scheduler::Restore(const Json& snapshot, RestorePolicy policy) {
  (void)snapshot;
  (void)policy;
  throw CheckError("scheduler '" + name() + "' does not support Restore()");
}

void InFlightJobs::Open(const Job& job) {
  HT_CHECK_MSG(job.trial_id >= 0, "job has no trial (id " << job.trial_id
                                                          << ")");
  HT_CHECK_MSG(Find(job.trial_id) == slots_.size(),
               "trial " << job.trial_id << " already has a job in flight");
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
  }
  Insert({job.trial_id, job.rung, job.bracket, job.tag, job.from_resource,
          job.to_resource});
  ++size_;
}

void InFlightJobs::Resolve(const Job& job) {
  std::size_t i = Find(job.trial_id);
  HT_CHECK_MSG(i != slots_.size(),
               "trial " << job.trial_id << " has no job in flight");
  const Entry& issued = slots_[i];
  HT_CHECK_MSG(job.rung == issued.rung && job.bracket == issued.bracket &&
                   job.tag == issued.tag &&
                   job.from_resource == issued.from &&
                   job.to_resource == issued.to,
               "reported job (trial " << job.trial_id << ", rung " << job.rung
                   << ") is not the one in flight (rung " << issued.rung
                   << ")");
  // Backward-shift erase: walk the rest of the probe run and pull into the
  // hole every entry whose home slot does not lie between the hole and it,
  // so no lookup ever meets a gap before its key.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].trial >= 0;
       j = (j + 1) & mask) {
    if (((j - Home(slots_[j].trial)) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i].trial = -1;
  --size_;
  // Halve at an eighth full (growth doubles at half full, so the two never
  // chase each other): a table sized by a burst gives its memory back, and
  // a process serving many studies holds what they have out, not their
  // peaks.
  if (slots_.size() > kMinSlots && 8 * size_ < slots_.size()) {
    Rehash(slots_.size() / 2);
  }
}

std::vector<Job> InFlightJobs::Sorted() const {
  std::vector<Job> jobs;
  jobs.reserve(size_);
  for (const Entry& entry : slots_) {
    if (entry.trial < 0) continue;
    Job job;
    job.trial_id = entry.trial;
    job.from_resource = entry.from;
    job.to_resource = entry.to;
    job.rung = entry.rung;
    job.bracket = entry.bracket;
    job.tag = entry.tag;
    jobs.push_back(std::move(job));
  }
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.trial_id < b.trial_id;
  });
  return jobs;
}

std::size_t InFlightJobs::Find(TrialId id) const {
  if (size_ == 0 || id < 0) return slots_.size();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Home(id);; i = (i + 1) & mask) {
    if (slots_[i].trial == id) return i;
    if (slots_[i].trial < 0) return slots_.size();
  }
}

void InFlightJobs::Insert(const Entry& entry) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Home(entry.trial);
  while (slots_[i].trial >= 0) i = (i + 1) & mask;
  slots_[i] = entry;
}

void InFlightJobs::Rehash(std::size_t capacity) {
  std::vector<Entry> old = std::move(slots_);
  slots_.assign(capacity, Entry{});
  shift_ = 64 - std::countr_zero(capacity);
  for (const Entry& entry : old) {
    if (entry.trial >= 0) Insert(entry);
  }
}

}  // namespace hypertune
