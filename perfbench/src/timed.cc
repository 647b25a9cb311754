#include "timed.h"

#include "common/json.h"
#include "trace.h"

namespace perfbench {

using hypertune::Json;

std::optional<hypertune::Job> TimedScheduler::GetJob() {
  Span span(SpanKind::kSchedulerGetJob);
  return inner_->GetJob();
}

void TimedScheduler::ReportResult(const hypertune::Job& job, double loss) {
  Span span(SpanKind::kSchedulerReport);
  inner_->ReportResult(job, loss);
}

void TimedScheduler::ReportLost(const hypertune::Job& job) {
  Span span(SpanKind::kSchedulerReport);
  inner_->ReportLost(job);
}

Json TimedScheduler::Snapshot() const { return inner_->Snapshot(); }

void TimedScheduler::Restore(const Json& snapshot,
                             hypertune::RestorePolicy policy) {
  inner_->Restore(snapshot, policy);
}

double TimedEnvironment::Loss(const hypertune::Configuration& config,
                              hypertune::Resource resource) {
  Span span(SpanKind::kSurrogateLookup);
  return inner_.Loss(config, resource);
}

double TimedEnvironment::Duration(const hypertune::Configuration& config,
                                  hypertune::Resource from,
                                  hypertune::Resource to) {
  Span span(SpanKind::kSurrogateLookup);
  return inner_.Duration(config, from, to);
}

void TimedService::AttachOnFirstCall() {
  if (attached_.load(std::memory_order_relaxed)) return;
  GlobalTracer().AttachThisThread("net-loop");
  thread_ = pthread_self();
  attached_.store(true, std::memory_order_release);
}

namespace {

SpanKind KindOf(const Json& message) {
  if (!message.IsObject() || !message.Has("type")) return SpanKind::kStudyAdmin;
  const Json& type = message.at("type");
  if (!type.IsString()) return SpanKind::kStudyAdmin;
  const std::string& name = type.AsString();
  if (name == "request_job") {
    const bool any = message.Has("study") && message.at("study").IsString() &&
                     message.at("study").AsString() == "*";
    return any ? SpanKind::kStudyRequestAny : SpanKind::kStudyRequestJob;
  }
  if (name == "heartbeat") return SpanKind::kStudyHeartbeat;
  if (name == "report") return SpanKind::kStudyReport;
  return SpanKind::kStudyAdmin;
}

}  // namespace

Json TimedService::HandleMessage(const Json& message, double now) {
  AttachOnFirstCall();
  Span span(KindOf(message), ++messages_, /*cpu_time=*/true);
  return inner_.HandleMessage(message, now);
}

void TimedService::Tick(double now) {
  AttachOnFirstCall();
  Span span(SpanKind::kStudyTick, 0, /*cpu_time=*/true);
  inner_.Tick(now);
}

}  // namespace perfbench
