#include "mon/monitor_module.hpp"

namespace loom::mon {

MonitorModule::MonitorModule(sim::Scheduler& scheduler, std::string name,
                             Monitor& monitor, const spec::Alphabet& alphabet,
                             sim::Module* parent)
    : sim::Module(scheduler, std::move(name), parent),
      monitor_(monitor),
      alphabet_(alphabet) {}

void MonitorModule::observe(spec::Name name) {
  observe(name, scheduler().now());
}

void MonitorModule::observe(spec::Name name, sim::Time time) {
  monitor_.observe(name, time);
  after_step();
}

void MonitorModule::observe_batch(const spec::Trace& slice,
                                  BatchPolicy policy) {
  if (policy == BatchPolicy::ReplayAll) {
    monitor_.observe_batch(slice);
  } else {
    for (const auto& ev : slice) {
      monitor_.observe(ev.name, ev.time);
      // Stop stepping once violated: the remaining slice cannot un-violate
      // the monitor and the violation report should point at its cause.
      if (monitor_.verdict() == Verdict::Violated) break;
    }
  }
  after_step();
}

void MonitorModule::finish() {
  monitor_.finish(scheduler().now());
  after_step();
}

void MonitorModule::after_step() {
  if (!violation_reported_ && monitor_.verdict() == Verdict::Violated &&
      monitor_.violation().has_value()) {
    violation_reported_ = true;
    for (const auto& cb : callbacks_) cb(*monitor_.violation());
  }
  arm_watchdog();
}

void MonitorModule::arm_watchdog() {
  if (!arm_watchdogs_) return;
  const auto deadline = monitor_.deadline();
  if (!deadline.has_value()) {
    if (watchdog_token_ != nullptr) *watchdog_token_ = true;  // disarm
    armed_deadline_.reset();
    return;
  }
  if (deadline == armed_deadline_) return;
  if (watchdog_token_ != nullptr) *watchdog_token_ = true;
  armed_deadline_ = deadline;
  watchdog_token_ = std::make_shared<bool>(false);
  // Fire one resolution step past the deadline: finishing exactly on the
  // deadline is allowed.
  scheduler().schedule_at(
      *deadline + sim::Time::ps(1),
      [this] {
        monitor_.poll(scheduler().now());
        armed_deadline_.reset();
        if (!violation_reported_ && monitor_.verdict() == Verdict::Violated &&
            monitor_.violation().has_value()) {
          violation_reported_ = true;
          for (const auto& cb : callbacks_) cb(*monitor_.violation());
        }
      },
      watchdog_token_);
}

}  // namespace loom::mon
