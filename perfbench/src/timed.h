// Timing decorators over hypertune's public interfaces. Traced runs put
// them between layers; untraced runs never construct them.
//
//   TimedScheduler    Scheduler     -> scheduler.get_job / scheduler.report
//   TimedEnvironment  JobEnvironment -> surrogate.lookup (table Loss/Duration)
//   TimedService      MessageService -> study.handle.<kind> / study.tick,
//                                       with thread-CPU time, and the
//                                       identity of the thread it runs on
//                                       (the NetServer loop thread)
#pragma once

#include <pthread.h>
#include <sys/types.h>

#include <atomic>
#include <memory>

#include "core/scheduler.h"
#include "service/server.h"
#include "sim/environment.h"

namespace perfbench {

class TimedScheduler final : public hypertune::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<hypertune::Scheduler> inner)
      : inner_(std::move(inner)) {}

  void SetTelemetry(hypertune::Telemetry* telemetry) override {
    inner_->SetTelemetry(telemetry);
  }
  hypertune::SchedulerCost Cost() const override { return inner_->Cost(); }
  std::optional<hypertune::Job> GetJob() override;
  void ReportResult(const hypertune::Job& job, double loss) override;
  void ReportLost(const hypertune::Job& job) override;
  bool Finished() const override { return inner_->Finished(); }
  std::optional<hypertune::Recommendation> Current() const override {
    return inner_->Current();
  }
  const hypertune::TrialBank& trials() const override {
    return inner_->trials();
  }
  std::string name() const override { return inner_->name(); }
  bool SupportsSnapshot() const override { return inner_->SupportsSnapshot(); }
  hypertune::Json Snapshot() const override;
  using hypertune::Scheduler::Restore;
  void Restore(const hypertune::Json& snapshot,
               hypertune::RestorePolicy policy) override;

 private:
  std::unique_ptr<hypertune::Scheduler> inner_;
};

class TimedEnvironment final : public hypertune::JobEnvironment {
 public:
  explicit TimedEnvironment(hypertune::JobEnvironment& inner)
      : inner_(inner) {}

  double Loss(const hypertune::Configuration& config,
              hypertune::Resource resource) override;
  double Duration(const hypertune::Configuration& config,
                  hypertune::Resource from, hypertune::Resource to) override;

 private:
  hypertune::JobEnvironment& inner_;
};

class TimedService final : public hypertune::MessageService {
 public:
  explicit TimedService(hypertune::MessageService& inner) : inner_(inner) {}

  hypertune::Json HandleMessage(const hypertune::Json& message,
                                double now) override;
  void Tick(double now) override;

  /// True once a message or tick has run; loop_thread() is valid after.
  bool attached() const { return attached_.load(std::memory_order_acquire); }
  pthread_t loop_thread() const { return thread_; }

 private:
  void AttachOnFirstCall();

  hypertune::MessageService& inner_;
  std::uint64_t messages_ = 0;  // loop thread only
  pthread_t thread_{};
  std::atomic<bool> attached_{false};
};

}  // namespace perfbench
