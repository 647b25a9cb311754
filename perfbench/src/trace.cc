#include "trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCodecEncode: return "codec.encode";
    case SpanKind::kCodecFeed: return "codec.feed";
    case SpanKind::kCodecDecode: return "codec.decode";
    case SpanKind::kStudyRequestJob: return "study.handle.request_job";
    case SpanKind::kStudyRequestAny: return "study.handle.request_any";
    case SpanKind::kStudyHeartbeat: return "study.handle.heartbeat";
    case SpanKind::kStudyReport: return "study.handle.report";
    case SpanKind::kStudyAdmin: return "study.handle.admin";
    case SpanKind::kStudyTick: return "study.tick";
    case SpanKind::kSchedulerGetJob: return "scheduler.get_job";
    case SpanKind::kSchedulerReport: return "scheduler.report";
    case SpanKind::kSurrogateLookup: return "surrogate.lookup";
    case SpanKind::kSweepCell: return "sweep.cell";
    case SpanKind::kSweepCellSetup: return "sweep.cell_setup";
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kCount: break;
  }
  return "?";
}

struct Tracer::Lane {
  struct Frame {
    SpanKind kind;
    std::int64_t start;
    std::int64_t cpu_start;  // -1 = not timing CPU
    std::int64_t child_ns;
    std::int64_t record;  // index into records, -1 = not logged
    std::uint64_t request;
  };
  struct Record {
    SpanKind kind;
    std::int64_t parent;
    std::uint64_t request;
    std::int64_t start;
    std::int64_t end;
  };

  std::string label;
  std::vector<Frame> stack;
  std::vector<Record> records;
  std::size_t log_budget = 0;
  Totals totals{};
};

namespace {

thread_local Tracer::Lane* t_lane = nullptr;

constexpr std::size_t kLaneLogBudget = 1 << 15;

}  // namespace

void Tracer::AttachThisThread(const std::string& label) {
  auto lane = std::make_unique<Lane>();
  lane->label = label;
  std::scoped_lock lock(mu_);
  lane->log_budget = std::min(kLaneLogBudget, kMaxLoggedSpans - logged_);
  logged_ += lane->log_budget;
  t_lane = lane.get();
  lanes_.push_back(std::move(lane));
}

void Tracer::DetachThisThread() { t_lane = nullptr; }

Totals Tracer::Sum() const {
  std::scoped_lock lock(mu_);
  Totals sum{};
  for (const auto& lane : lanes_) {
    for (std::size_t k = 0; k < sum.size(); ++k) {
      sum[k].count += lane->totals[k].count;
      sum[k].wall_ns += lane->totals[k].wall_ns;
      sum[k].self_ns += lane->totals[k].self_ns;
      sum[k].cpu_ns += lane->totals[k].cpu_ns;
    }
  }
  return sum;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::scoped_lock lock(mu_);
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const Lane& lane = *lanes_[l];
    for (std::size_t i = 0; i < lane.records.size(); ++i) {
      const Lane::Record& r = lane.records[i];
      std::fprintf(out,
                   "{\"lane\":%zu,\"thread\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                   "\"request\":%llu}\n",
                   l, lane.label.c_str(), i, SpanName(r.kind),
                   static_cast<long long>(r.start - epoch_ns_),
                   static_cast<long long>(r.end - epoch_ns_),
                   static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.request));
    }
  }
  return std::fclose(out) == 0;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

Span::Span(SpanKind kind, std::uint64_t request, bool cpu_time)
    : lane_(t_lane) {
  if (lane_ == nullptr) return;
  Tracer::Lane::Frame frame{kind, 0, -1, 0, -1, request};
  if (!lane_->stack.empty()) {
    const auto& parent = lane_->stack.back();
    if (frame.request == 0) frame.request = parent.request;
  }
  if (lane_->records.size() < lane_->log_budget) {
    frame.record = static_cast<std::int64_t>(lane_->records.size());
    const std::int64_t parent_record =
        lane_->stack.empty() ? -1 : lane_->stack.back().record;
    lane_->records.push_back({kind, parent_record, frame.request, 0, 0});
  }
  if (cpu_time) frame.cpu_start = ThreadCpuNs();
  frame.start = NowNs();
  lane_->stack.push_back(frame);
}

Span::~Span() {
  if (lane_ == nullptr) return;
  const std::int64_t end = NowNs();
  const Tracer::Lane::Frame frame = lane_->stack.back();
  lane_->stack.pop_back();
  const std::int64_t wall = end - frame.start;
  SpanTotals& totals = lane_->totals[static_cast<std::size_t>(frame.kind)];
  ++totals.count;
  totals.wall_ns += wall;
  totals.self_ns += wall - frame.child_ns;
  if (frame.cpu_start >= 0) totals.cpu_ns += ThreadCpuNs() - frame.cpu_start;
  if (!lane_->stack.empty()) lane_->stack.back().child_ns += wall;
  if (frame.record >= 0) {
    auto& record = lane_->records[static_cast<std::size_t>(frame.record)];
    record.start = frame.start;
    record.end = end;
  }
}

}  // namespace perfbench
