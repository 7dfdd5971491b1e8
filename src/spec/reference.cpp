#include "spec/reference.hpp"

#include <algorithm>
#include <cassert>

#include "spec/attributes.hpp"

namespace loom::spec {
namespace {

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

// One walk over the whole trace: the body of every reference_check.
template <typename Binding>
RefResult check_whole(const Binding& property, const OrderingPlan& plan,
                      const Trace& trace, sim::Time end_time) {
  RefCursor cursor;
  cursor.bind(property, plan);
  cursor.advance(trace, 0, trace.size());
  return cursor.finish(end_time).to_result();
}

}  // namespace

const char* to_string(RefVerdict v) {
  switch (v) {
    case RefVerdict::Accepted: return "accepted";
    case RefVerdict::Pending: return "pending";
    case RefVerdict::Rejected: return "rejected";
  }
  return "?";
}

std::string describe(RefReason reason, std::uint32_t a, std::uint32_t b) {
  switch (reason) {
    case RefReason::None:
      return "";
    case RefReason::AboveMax:
      return "more than v=" + std::to_string(a) +
             " consecutive occurrences of the range name";
    case RefReason::BlockBelowMin:
      return "block ended after " + std::to_string(a) +
             " occurrences, below u=" + std::to_string(b);
    case RefReason::BlockReopened:
      return "range block reopened after it ended";
    case RefReason::FragmentStoppedBelowMin:
      return "fragment stopped while a block had only " + std::to_string(a) +
             " occurrences, below u=" + std::to_string(b);
    case RefReason::ConjunctionIncomplete:
      return "conjunctive fragment stopped before all its ranges were "
             "observed";
    case RefReason::DisjunctionIncomplete:
      return "disjunctive fragment stopped before any of its ranges was "
             "observed";
    case RefReason::TriggerTooEarly:
      return "trigger observed before the pattern was recognized";
    case RefReason::CompletedFragment:
      return "name belongs to an already-completed fragment";
    case RefReason::LaterFragment:
      return "name belongs to a later fragment";
    case RefReason::OutsideAlphabet:
      return "name not in the property alphabet";
    case RefReason::ConsequentLate:
      return "consequent finished after the deadline";
    case RefReason::DeadlineElapsed:
      return "deadline elapsed before the consequent finished";
    case RefReason::ObservationEndedLate:
      return "observation ended after the deadline with the consequent "
             "unfinished";
  }
  return "?";
}

RefResult RefOutcome::to_result() const {
  return {verdict, error_index, describe(reason, a, b)};
}

void RefCursor::bind(const Antecedent& a, const OrderingPlan& plan) {
  timed_ = false;
  repeated_ = a.repeated;
  bound_ = sim::Time::zero();
  bind_plan(plan);
}

void RefCursor::bind(const TimedImplication& t, const OrderingPlan& plan) {
  timed_ = true;
  repeated_ = true;
  bound_ = t.bound;
  bind_plan(plan);
}

void RefCursor::bind(const Property& p, const OrderingPlan& plan) {
  if (p.is_antecedent()) {
    bind(p.antecedent(), plan);
  } else {
    bind(p.timed(), plan);
  }
}

void RefCursor::bind_plan(const OrderingPlan& plan) {
  plan_ = &plan;
  std::size_t width = 0;
  for (const auto& f : plan.fragments) width = std::max(width, f.ranges.size());
  slots_.resize(width);  // zeroed by reset_round() below
  walked_ = 0;
  armed_ = false;
  q_done_ = false;
  t_start_ = sim::Time::zero();
  decided_ = false;
  decision_ = RefOutcome{};
  reset_round();
}

// Restarts the chain at fragment 0 (a new round).
void RefCursor::reset_round() {
  k_ = 0;
  consumed_ = false;
  enter_fragment();
}

// Clears the per-fragment block accounting for fragment k_.
void RefCursor::enter_fragment() {
  current_ = kNoSlot;
  closed_count_ = 0;
  frag_min_complete_ = false;
  frag_min_time_ = sim::Time::zero();
  std::fill(slots_.begin(), slots_.end(), Slot{});
}

RefCursor::Step RefCursor::fail(RefReason reason, std::uint32_t a,
                                std::uint32_t b) {
  decision_.reason = reason;
  decision_.a = a;
  decision_.b = b;
  return Step::Error;
}

void RefCursor::decide(RefVerdict verdict, std::size_t index) {
  decided_ = true;
  decision_.verdict = verdict;
  decision_.error_index = index;
}

bool RefCursor::fragment_min_complete() const {
  const FragmentPlan& f = plan_->fragments[k_];
  if (f.join == Join::Conj) {
    for (std::size_t s = 0; s < f.ranges.size(); ++s) {
      if (slots_[s].count < f.ranges[s].lo) return false;
    }
    return true;
  }
  for (std::size_t s = 0; s < f.ranges.size(); ++s) {
    if (slots_[s].count >= f.ranges[s].lo) return true;
  }
  return false;
}

// Processes one projected event against the current fragment.  On Error
// the reason is in decision_.
RefCursor::Step RefCursor::step(Name name, sim::Time time) {
  for (;;) {
    const FragmentPlan& f = plan_->fragments[k_];
    if (f.alphabet.test(name)) {
      consumed_ = true;
      std::uint32_t s = 0;
      while (f.ranges[s].name != name) ++s;
      const RangePlan& r = f.ranges[s];
      if (s == current_) {
        if (++slots_[s].count > r.hi) return fail(RefReason::AboveMax, r.hi);
      } else {
        if (current_ != kNoSlot) {
          Slot& cur = slots_[current_];
          const std::uint32_t lo = f.ranges[current_].lo;
          if (cur.count < lo) {
            return fail(RefReason::BlockBelowMin, cur.count, lo);
          }
          cur.closed = true;
          ++closed_count_;
        }
        if (slots_[s].closed) return fail(RefReason::BlockReopened);
        current_ = s;
        slots_[s].count = 1;
      }
      if (!frag_min_complete_ && fragment_min_complete()) {
        frag_min_complete_ = true;
        frag_min_time_ = time;
      }
      return Step::Consumed;
    }
    if (f.accept.test(name)) {
      if (current_ != kNoSlot) {
        Slot& cur = slots_[current_];
        const std::uint32_t lo = f.ranges[current_].lo;
        if (cur.count < lo) {
          return fail(RefReason::FragmentStoppedBelowMin, cur.count, lo);
        }
        cur.closed = true;
        ++closed_count_;
      }
      const bool complete = f.join == Join::Conj
                                ? closed_count_ == f.ranges.size()
                                : closed_count_ >= 1;
      if (!complete) {
        return fail(f.join == Join::Conj ? RefReason::ConjunctionIncomplete
                                         : RefReason::DisjunctionIncomplete);
      }
      ++k_;
      if (k_ == plan_->fragments.size()) return Step::RoundCompleted;
      enter_fragment();
      continue;  // the same event opens the next fragment
    }
    // Out-of-place name: classify for the diagnostic.
    if (plan_->terminal.test(name)) return fail(RefReason::TriggerTooEarly);
    for (std::size_t j = 0; j < plan_->fragments.size(); ++j) {
      if (plan_->fragments[j].alphabet.test(name)) {
        return fail(j < k_ ? RefReason::CompletedFragment
                           : RefReason::LaterFragment);
      }
    }
    return fail(RefReason::OutsideAlphabet);
  }
}

// Antecedent (P << i, b): a completed round validates the trigger; without
// `repeated` that settles the whole trace.  Returns false once decided.
bool RefCursor::step_antecedent(const TimedEvent& ev, std::size_t index) {
  switch (step(ev.name, ev.time)) {
    case Step::Consumed:
      return true;
    case Step::RoundCompleted:
      if (!repeated_) {
        decide(RefVerdict::Accepted, kNoIndex);
        return false;
      }
      reset_round();
      return true;
    case Step::Error:
      decide(RefVerdict::Rejected, index);
      return false;
  }
  return true;
}

// Timed (P => Q, t): the chain P ++ Q restarts on the event completing Q,
// and the deadline runs from P's min-completion to Q's.  Returns false
// once decided.
bool RefCursor::step_timed(const TimedEvent& ev, std::size_t index) {
  if (armed_ && !q_done_ && ev.time > t_start_ + bound_) {
    fail(RefReason::DeadlineElapsed);
    decide(RefVerdict::Rejected, index);
    return false;
  }
  Step st = step(ev.name, ev.time);
  if (st == Step::RoundCompleted) {
    // The completing event restarts the chain at fragment 0.
    armed_ = false;
    q_done_ = false;
    reset_round();
    st = step(ev.name, ev.time);
  }
  if (st == Step::Error) {
    decide(RefVerdict::Rejected, index);
    return false;
  }
  const std::size_t p_last = plan_->p_boundary - 1;
  const std::size_t q_last = plan_->fragments.size() - 1;
  if (!armed_ && (k_ > p_last || (k_ == p_last && frag_min_complete_))) {
    armed_ = true;
    t_start_ = k_ == p_last ? frag_min_time_ : ev.time;
  }
  if (armed_ && !q_done_ && k_ == q_last && frag_min_complete_) {
    q_done_ = true;
    if (frag_min_time_ - t_start_ > bound_) {
      fail(RefReason::ConsequentLate);
      decide(RefVerdict::Rejected, index);
      return false;
    }
  }
  return true;
}

void RefCursor::advance(const Trace& trace, std::size_t begin,
                        std::size_t end) {
  assert(begin == walked_ && begin <= end && end <= trace.size());
  walked_ = end;
  if (decided_) return;
  for (std::size_t i = begin; i < end; ++i) {
    const TimedEvent& ev = trace[i];
    if (!plan_->alphabet.test(ev.name)) continue;  // projection
    const bool open = timed_ ? step_timed(ev, i) : step_antecedent(ev, i);
    if (!open) return;
  }
}

RefOutcome RefCursor::finish(sim::Time end_time) const {
  if (decided_) return decision_;
  RefOutcome out;
  if (timed_) {
    if (armed_ && !q_done_ && end_time > t_start_ + bound_) {
      out.verdict = RefVerdict::Rejected;
      out.error_index = walked_ == 0 ? kNoIndex : walked_ - 1;
      out.reason = RefReason::ObservationEndedLate;
      return out;
    }
    // Mid-round at end of trace: if the final fragment already reached its
    // minimum within the deadline, the obligation is met (earliest-match).
    if (q_done_) return out;
  }
  if (consumed_) out.verdict = RefVerdict::Pending;
  return out;
}

RefResult reference_check(const Antecedent& a, const Trace& trace) {
  return reference_check(a, plan_antecedent(a), trace);
}

RefResult reference_check(const Antecedent& a, const OrderingPlan& plan,
                          const Trace& trace) {
  return check_whole(a, plan, trace, sim::Time::zero());
}

RefResult reference_check(const TimedImplication& t, const Trace& trace,
                          sim::Time end_time) {
  return reference_check(t, plan_timed(t), trace, end_time);
}

RefResult reference_check(const TimedImplication& t, const OrderingPlan& plan,
                          const Trace& trace, sim::Time end_time) {
  return check_whole(t, plan, trace, end_time);
}

RefResult reference_check(const Property& p, const Trace& trace,
                          sim::Time end_time) {
  if (p.is_antecedent()) return reference_check(p.antecedent(), trace);
  return reference_check(p.timed(), trace, end_time);
}

RefResult reference_check(const Property& p, const OrderingPlan& plan,
                          const Trace& trace, sim::Time end_time) {
  return check_whole(p, plan, trace, end_time);
}

}  // namespace loom::spec
