#include "mon/antecedent_monitor.hpp"

#include <stdexcept>

#include "mon/snapshot.hpp"
#include "support/diagnostics.hpp"

namespace loom::mon {
namespace {
// Format tag: a snapshot written by one monitor kind must never restore
// into another (the state layouts differ silently otherwise).
constexpr std::uint32_t kSnapshotKind = 0x414E5443;  // "ANTC"
}  // namespace

AntecedentMonitor::AntecedentMonitor(spec::Antecedent property)
    : AntecedentMonitor(std::move(property), nullptr) {}

AntecedentMonitor::AntecedentMonitor(
    spec::Antecedent property, std::shared_ptr<const spec::OrderingPlan> plan)
    : property_(std::move(property)),
      plan_(plan != nullptr ? std::move(plan)
                            : std::make_shared<const spec::OrderingPlan>(
                                  spec::plan_antecedent(property_))),
      recognizer_(*plan_, stats_) {
  recognizer_.activate();
}

void AntecedentMonitor::observe(spec::Name name, sim::Time time) {
  const auto before = stats_.begin_event();
  const std::size_t ordinal = ordinal_++;
  if (verdict_ == Verdict::Holds || verdict_ == Verdict::Violated) {
    stats_.end_event(before);
    return;  // retired
  }
  stats_.add();  // alphabet filter
  if (!plan_->alphabet.test(name)) {
    stats_.end_event(before);
    return;
  }
  switch (recognizer_.step(name, time)) {
    case OrderingRecognizer::Out::None:
      verdict_ = recognizer_.in_progress() ? Verdict::Pending
                                           : Verdict::Monitoring;
      break;
    case OrderingRecognizer::Out::Completed:
      ++validated_;
      if (property_.repeated) {
        recognizer_.restart();
        verdict_ = Verdict::Monitoring;
      } else {
        verdict_ = Verdict::Holds;
      }
      break;
    case OrderingRecognizer::Out::Err:
      verdict_ = Verdict::Violated;
      violation_ = Violation{ordinal, time, name, recognizer_.error()};
      break;
  }
  stats_.end_event(before);
}

void AntecedentMonitor::finish(sim::Time) {
  // Antecedent requirements are pure safety properties: nothing to check at
  // the end of observation; a Pending verdict means "weakly holds".
}

std::size_t AntecedentMonitor::space_bits() const {
  return recognizer_.space_bits() + 2;  // verdict encoding
}

void AntecedentMonitor::reset() {
  // Stats first: restart() re-runs the activation (RangeRecognizer::start
  // charges one op per range of F1), and a fresh monitor carries exactly
  // those ops — clearing afterwards would lose them and make a reused
  // instance distinguishable from a fresh one (mon_reset_reuse_test).
  stats_.reset();
  recognizer_.restart();
  verdict_ = Verdict::Monitoring;
  violation_.reset();
  validated_ = 0;
  ordinal_ = 0;
}

void AntecedentMonitor::snapshot(Snapshot& out) const {
  out.clear();
  out.put_u64(snapshot_tag(kSnapshotKind));
  stats_.snapshot(out);
  recognizer_.snapshot(out);
  out.put_u64(static_cast<std::uint64_t>(verdict_));
  snapshot_violation(out, violation_);
  out.put_u64(validated_);
  out.put_u64(ordinal_);
}

void AntecedentMonitor::restore(const Snapshot& in) {
  SnapshotReader r(in);
  check_snapshot_tag(r.u64(), kSnapshotKind, "AntecedentMonitor::restore");
  stats_.restore(r);
  recognizer_.restore(r);
  verdict_ = static_cast<Verdict>(r.u64());
  restore_violation(r, violation_);
  validated_ = r.u64();
  ordinal_ = static_cast<std::size_t>(r.u64());
  LOOM_DASSERT(r.exhausted());  // format drift: snapshot wrote more fields
}

}  // namespace loom::mon
