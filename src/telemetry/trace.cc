#include "telemetry/trace.h"

namespace hypertune {

void EventTracer::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::size_t EventTracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> EventTracer::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

namespace {

Json JsonlLine(const TraceEvent& event) {
  Json line = JsonObject{};
  line.Set("t", Json(event.time));
  if (event.IsSpan()) line.Set("dur", Json(event.duration));
  line.Set("name", Json(event.name));
  line.Set("cat", Json(event.category));
  line.Set("worker", Json(event.worker));
  if (!event.args.IsNull()) line.Set("args", event.args);
  return line;
}

}  // namespace

std::string EventTracer::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& event : events_) {
    out += JsonlLine(event).Dump();
    out += '\n';
  }
  return out;
}

Json EventTracer::ToChromeTrace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json trace_events = JsonArray{};
  for (const auto& event : events_) {
    Json entry = JsonObject{};
    entry.Set("name", Json(event.name));
    entry.Set("cat", Json(event.category));
    entry.Set("ph", Json(event.IsSpan() ? "X" : "i"));
    // trace_event timestamps are microseconds.
    entry.Set("ts", Json(event.time * 1e6));
    if (event.IsSpan()) {
      entry.Set("dur", Json(event.duration * 1e6));
    } else {
      entry.Set("s", Json("t"));  // instant scope: thread
    }
    entry.Set("pid", Json(std::int64_t{0}));
    entry.Set("tid", Json(event.worker));
    if (!event.args.IsNull()) entry.Set("args", event.args);
    trace_events.PushBack(std::move(entry));
  }
  Json trace = JsonObject{};
  trace.Set("traceEvents", std::move(trace_events));
  trace.Set("displayTimeUnit", Json("ms"));
  return trace;
}

}  // namespace hypertune
