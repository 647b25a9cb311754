// JSON (de)serialization of trials and trial banks, used both for result
// export and for scheduler snapshot/restore — and the rest of the snapshot
// vocabulary: every Snapshot()/Restore() in the scheduler family, and the
// hazard stream's, writes and reads its RNG, incumbent, in-flight jobs and
// rungs through the functions below, so the format lives in this one file.
#pragma once

#include <string>

#include "common/json.h"
#include "common/rng.h"
#include "core/incumbent.h"
#include "core/rung.h"
#include "core/scheduler.h"
#include "core/trial.h"

namespace hypertune {

const char* StatusName(TrialStatus status);
TrialStatus StatusFromName(const std::string& name);

Json ToJson(const Trial& trial);
Trial TrialFromJson(const Json& json);

Json ToJson(const TrialBank& bank);
/// Rebuilds a bank; trial ids must be dense and in order (as produced by
/// ToJson).
TrialBank TrialBankFromJson(const Json& json);

/// Wire format for jobs (the tuning service sends these to workers).
Json ToJson(const Job& job);
Job JobFromJson(const Json& json);

/// Sets "rng" (the four engine words) on `snapshot` and, while a Box–Muller
/// spare is cached, "spare_normal". ReadRng restores both, so the restored
/// stream repeats the original's draws bit for bit, normals included.
void WriteRng(const Rng& rng, Json& snapshot);
void ReadRng(const Json& snapshot, Rng& rng);

/// Sets "incumbent" when the tracker holds a recommendation.
void WriteIncumbent(const IncumbentTracker& incumbent, Json& snapshot);
void ReadIncumbent(const Json& snapshot, IncumbentTracker& incumbent);

/// Sets "in_flight": the jobs, in ascending trial order, each with its
/// trial's config from `bank` (the table keeps none). ReadInFlight rebuilds
/// the table (empty when the key is absent) and throws CheckError when an
/// entry names a trial that `bank` lacks, that is not running, or whose
/// config differs from the bank's, or when two entries name one trial.
void WriteInFlight(const InFlightJobs& in_flight, const TrialBank& bank,
                   Json& snapshot);
InFlightJobs ReadInFlight(const Json& snapshot, const TrialBank& bank);

/// A rung's results and promotion marks.
Json ToJson(const Rung& rung);
Rung RungFromJson(const Json& json);

/// The restore-time options check: every field of `identity` (the object
/// the scheduler's Snapshot writes to say which options produced it) must
/// equal the same field of `stored`. Numbers compare by value, so the check
/// holds however a Dump()/Parse() round trip typed them. Throws CheckError
/// naming the first mismatch.
void CheckIdentity(const Json& stored, const Json& identity);

/// RestorePolicy::kDropInFlight: the workers died with the service, so
/// every job in `in_flight` — the scheduler's own table, which ReportLost
/// resolves from — is resolved as lost, in ascending trial order, with its
/// trial's config from `bank`.
void DropInFlight(Scheduler& scheduler, const InFlightJobs& in_flight,
                  const TrialBank& bank);

}  // namespace hypertune
