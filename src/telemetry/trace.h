// EventTracer — an append-only log of structured, timestamped events.
//
// Two event shapes cover everything the system emits: instants (a trial was
// promoted, a lease expired) and spans (a worker ran a job from t to
// t+dur). Events carry a category for filtering, a worker/track id, and an
// optional Json args object. The tracer is thread-safe at all times (one
// mutex around the append), and every emitter records its event at the
// moment it happens, so an event's log position is its emission order.
// The lock is uncontended in the single-threaded simulator.
//
// Exports:
//   ToJsonl()       one compact JSON object per line — grep/jq-friendly.
//   ToChromeTrace() the Chrome trace_event format (JSON object with a
//                   "traceEvents" array), loadable in chrome://tracing and
//                   https://ui.perfetto.dev. Spans become "X" (complete)
//                   events, instants become "i" events; `worker` maps to
//                   tid so each worker gets its own track.
// Both are deterministic functions of the recorded events.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace hypertune {

struct TraceEvent {
  /// Seconds (virtual or steady, per the owning Telemetry's clock).
  double time = 0;
  /// Span length in seconds; negative means an instant event.
  double duration = -1;
  std::string name;
  /// Dotted lowercase taxonomy: "trial", "rung", "job", "lease", "worker".
  std::string category;
  /// Track id: worker index for spans, 0 for scheduler/server events.
  std::int64_t worker = 0;
  /// Optional structured payload (Json object) or null.
  Json args;

  bool IsSpan() const { return duration >= 0; }
};

class EventTracer {
 public:
  void Record(TraceEvent event);

  std::size_t size() const;
  /// Copy of all events recorded so far (in record order).
  std::vector<TraceEvent> Events() const;

  std::string ToJsonl() const;
  Json ToChromeTrace() const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

}  // namespace hypertune
