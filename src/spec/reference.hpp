// Declarative reference semantics (test oracle).
//
// An independent, offline implementation of Definitions 1-5 used to
// cross-check the online monitors: it walks a trace with the block-greedy
// interpretation (names of a property are pairwise disjoint, so matching is
// deterministic; see DESIGN.md §3).  It is deliberately written in a
// different style from the recognizer automata: block accounting over the
// projected trace instead of per-range state machines.
//
// The walk is one resumable value type, RefCursor; every reference_check
// overload is a thin wrapper that binds a cursor, advances it over the
// whole trace and formats the outcome.  The cursor contract:
//   - its state after advance(trace, 0, n) is a pure function of the
//     walked prefix trace[0, n) (and of the bound property and plan), so
//     two traces sharing that prefix share that state;
//   - copying a cursor is a checkpoint and assigning the copy back is the
//     restore (copy-assignment reuses the target's buffer capacity);
//     resuming a checkpoint over trace[n, end) gives exactly the outcome of
//     one walk over trace[0, end);
//   - the end-of-observation time is read only by finish(), never by the
//     walk, so a checkpoint does not depend on it;
//   - rejection reasons are a code plus up to two integer operands; the
//     text is formatted only when a RefResult is asked for.
// The campaign engine uses this to resume each mutant's check at the
// checkpoint-ladder rung below the mutant's divergence position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "spec/ast.hpp"

namespace loom::spec {

struct TimedEvent {
  Name name = kInvalidName;
  sim::Time time;

  bool operator==(const TimedEvent&) const = default;
};

using Trace = std::vector<TimedEvent>;

enum class RefVerdict {
  Accepted,  // no violation, no recognition in progress
  Pending,   // no violation, recognition in progress at end of trace
  Rejected,  // violation
};

const char* to_string(RefVerdict v);

/// Why the reference rejected a trace.  Operands, where a reason has them,
/// are listed next to it; describe() renders the text.
enum class RefReason : std::uint8_t {
  None,
  AboveMax,                 // a = v
  BlockBelowMin,            // a = block length, b = u
  BlockReopened,
  FragmentStoppedBelowMin,  // a = block length, b = u
  ConjunctionIncomplete,
  DisjunctionIncomplete,
  TriggerTooEarly,
  CompletedFragment,
  LaterFragment,
  OutsideAlphabet,  // unreachable for a well-formed plan
  ConsequentLate,
  DeadlineElapsed,
  ObservationEndedLate,
};

/// The diagnostic text of a rejection reason ("" for None).
std::string describe(RefReason reason, std::uint32_t a = 0,
                     std::uint32_t b = 0);

struct RefResult {
  RefVerdict verdict = RefVerdict::Accepted;
  /// Index (into the full trace) of the offending event when Rejected.
  std::size_t error_index = static_cast<std::size_t>(-1);
  std::string reason;

  bool rejected() const { return verdict == RefVerdict::Rejected; }
};

/// A check's outcome without the text: what the campaign engine's
/// per-mutant loop reads.  to_result() formats the reason.
struct RefOutcome {
  RefVerdict verdict = RefVerdict::Accepted;
  std::size_t error_index = static_cast<std::size_t>(-1);
  RefReason reason = RefReason::None;
  std::uint32_t a = 0;  // operands of `reason`
  std::uint32_t b = 0;

  bool rejected() const { return verdict == RefVerdict::Rejected; }
  RefResult to_result() const;
};

struct OrderingPlan;  // spec/attributes.hpp

/// The resumable reference walk (see the contract at the top of this
/// file).  A cursor borrows the plan it is bound to, which must outlive
/// every use of the cursor and of its copies.  The state is
/// a small fixed-size record plus one buffer of per-range counters, sized
/// to the widest fragment and indexed by the range's slot in the current
/// fragment (not by name, so its size does not grow with the alphabet).
class RefCursor {
 public:
  /// (Re)binds the cursor and resets it to the empty prefix, reusing the
  /// buffer's capacity.  `plan` must be the property's flattened plan
  /// (plan_antecedent / plan_timed, or mon::CompiledProperty::plan()).
  void bind(const Antecedent& a, const OrderingPlan& plan);
  void bind(const TimedImplication& t, const OrderingPlan& plan);
  void bind(const Property& p, const OrderingPlan& plan);

  /// Walks trace[begin, end), continuing where the previous advance (or
  /// the checkpoint this cursor was assigned from) stopped, so `begin`
  /// must equal walked().  Stops at the first decision: a rejection, or
  /// the acceptance of a non-repeated antecedent; once decided, further
  /// advances only move walked().
  void advance(const Trace& trace, std::size_t begin, std::size_t end);

  /// Length of the prefix fed to advance() so far.
  std::size_t walked() const { return walked_; }
  /// True once the walk has reached a verdict no suffix can change.
  bool decided() const { return decided_; }

  /// The verdict for the walked prefix when observation stops at
  /// `end_time` (deadline checks run against it).  Does not change the
  /// cursor.
  RefOutcome finish(sim::Time end_time) const;

 private:
  enum class Step { Consumed, RoundCompleted, Error };
  struct Slot {
    std::uint32_t count = 0;
    bool closed = false;
  };
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  void bind_plan(const OrderingPlan& plan);
  void reset_round();
  void enter_fragment();
  Step step(Name name, sim::Time time);
  bool step_antecedent(const TimedEvent& ev, std::size_t index);
  bool step_timed(const TimedEvent& ev, std::size_t index);
  bool fragment_min_complete() const;
  Step fail(RefReason reason, std::uint32_t a = 0, std::uint32_t b = 0);
  void decide(RefVerdict verdict, std::size_t index);

  // Fields are grouped by size so a ladder rung carries no padding holes.
  const OrderingPlan* plan_ = nullptr;
  sim::Time bound_;  // timed properties: the deadline t
  std::size_t walked_ = 0;
  std::size_t k_ = 0;  // current fragment
  sim::Time frag_min_time_;
  sim::Time t_start_;    // timed properties: the obligation's start
  RefOutcome decision_;  // the decision, or the pending Error's reason
  std::uint32_t current_ = kNoSlot;  // slot of the open block
  std::uint32_t closed_count_ = 0;   // closed blocks in this fragment
  bool timed_ = false;
  bool repeated_ = false;  // antecedents: the b flag
  bool consumed_ = false;  // this round has consumed an event
  bool frag_min_complete_ = false;
  bool armed_ = false;   // timed: P min-complete, obligation running
  bool q_done_ = false;  // timed: Q min-complete in this round
  bool decided_ = false;
  std::vector<Slot> slots_;
};

/// Checks an antecedent requirement against a finite trace.
RefResult reference_check(const Antecedent& a, const Trace& trace);

/// Checks a timed implication constraint; `end_time` is the simulation time
/// at which observation stopped (deadline checks run against it).
RefResult reference_check(const TimedImplication& t, const Trace& trace,
                          sim::Time end_time);

RefResult reference_check(const Property& p, const Trace& trace,
                          sim::Time end_time);

/// Plan-reusing forms: identical semantics, but the caller supplies the
/// property's flattened OrderingPlan (plan_antecedent / plan_timed — e.g.
/// mon::CompiledProperty::plan()) instead of this function re-planning on
/// every call.  The plan is a pure function of the property, so the result
/// is byte-identical either way.
RefResult reference_check(const Antecedent& a, const OrderingPlan& plan,
                          const Trace& trace);
RefResult reference_check(const TimedImplication& t, const OrderingPlan& plan,
                          const Trace& trace, sim::Time end_time);
RefResult reference_check(const Property& p, const OrderingPlan& plan,
                          const Trace& trace, sim::Time end_time);

}  // namespace loom::spec
