#include "core/scheduler.h"

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

void ResolveInFlight(std::map<TrialId, Job>& in_flight, const Job& job) {
  const auto it = in_flight.find(job.trial_id);
  HT_CHECK_MSG(it != in_flight.end(),
               "trial " << job.trial_id << " has no job in flight");
  const Job& issued = it->second;
  HT_CHECK_MSG(job.rung == issued.rung && job.bracket == issued.bracket &&
                   job.tag == issued.tag &&
                   job.from_resource == issued.from_resource &&
                   job.to_resource == issued.to_resource,
               "reported job (trial " << job.trial_id << ", rung " << job.rung
                   << ") is not the one in flight (rung " << issued.rung
                   << ")");
  in_flight.erase(it);
}

}  // namespace hypertune
