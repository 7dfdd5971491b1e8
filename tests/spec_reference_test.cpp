#include <gtest/gtest.h>

#include <span>

#include "spec/attributes.hpp"
#include "spec/parser.hpp"
#include "spec/reference.hpp"
#include "testing.hpp"

namespace loom::spec {
namespace {

Trace trace_of(const std::string& names, Alphabet& ab) {
  Trace t;
  std::string w;
  std::istringstream in(names);
  std::uint64_t i = 1;
  while (in >> w) t.push_back({ab.name(w), sim::Time::ns(10 * i++)});
  return t;
}

struct AntecedentCase {
  const char* property;
  const char* trace;
  RefVerdict expected;
};

// Prints the case for gtest, which names the ctest entry after it; the
// default byte dump would show the string pointers, which change each run.
void PrintTo(const AntecedentCase& c, std::ostream* os) {
  *os << c.property << " on [" << c.trace << ']';
}

class AntecedentRef : public ::testing::TestWithParam<AntecedentCase> {};

TEST_P(AntecedentRef, Verdict) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property(GetParam().property, ab, sink);
  ASSERT_TRUE(p.has_value()) << sink.to_string();
  Trace t = trace_of(GetParam().trace, ab);
  const RefResult r = reference_check(p->antecedent(), t);
  EXPECT_EQ(r.verdict, GetParam().expected)
      << "property: " << GetParam().property
      << "\ntrace: " << GetParam().trace << "\nreason: " << r.reason;
}

constexpr AntecedentCase kSingleRangeRepeated[] = {
    AntecedentCase{"(n << i, true)", "", RefVerdict::Accepted},
    AntecedentCase{"(n << i, true)", "n i", RefVerdict::Accepted},
    AntecedentCase{"(n << i, true)", "n i n i", RefVerdict::Accepted},
    AntecedentCase{"(n << i, true)", "n", RefVerdict::Pending},
    AntecedentCase{"(n << i, true)", "i", RefVerdict::Rejected},
    AntecedentCase{"(n << i, true)", "n i i", RefVerdict::Rejected},
    AntecedentCase{"(n << i, true)", "n n i", RefVerdict::Rejected},
    AntecedentCase{"(n << i, true)", "n i n n", RefVerdict::Rejected},
};
INSTANTIATE_TEST_SUITE_P(SingleRangeRepeated, AntecedentRef,
                         ::testing::ValuesIn(kSingleRangeRepeated));

constexpr AntecedentCase kSingleRangeNonRepeated[] = {
    AntecedentCase{"(n << i, false)", "n i", RefVerdict::Accepted},
    // After the first validated i, everything is unconstrained.
    AntecedentCase{"(n << i, false)", "n i i i n n",
                   RefVerdict::Accepted},
    AntecedentCase{"(n << i, false)", "i", RefVerdict::Rejected},
    AntecedentCase{"(n << i, false)", "n n", RefVerdict::Rejected},
};
INSTANTIATE_TEST_SUITE_P(SingleRangeNonRepeated, AntecedentRef,
                         ::testing::ValuesIn(kSingleRangeNonRepeated));

constexpr AntecedentCase kRangeBounds[] = {
    AntecedentCase{"(n[2,4] << i, true)", "n n i", RefVerdict::Accepted},
    AntecedentCase{"(n[2,4] << i, true)", "n n n n i",
                   RefVerdict::Accepted},
    AntecedentCase{"(n[2,4] << i, true)", "n i", RefVerdict::Rejected},
    AntecedentCase{"(n[2,4] << i, true)", "n n n n n i",
                   RefVerdict::Rejected},
    AntecedentCase{"(n[2,4] << i, true)", "n n n", RefVerdict::Pending},
};
INSTANTIATE_TEST_SUITE_P(RangeBounds, AntecedentRef,
                         ::testing::ValuesIn(kRangeBounds));

constexpr AntecedentCase kConjunctiveFragment[] = {
    // Paper Example 2 shape: all three inputs, any order, then start.
    AntecedentCase{"(({a, b, c}, &) << s, false)", "a b c s",
                   RefVerdict::Accepted},
    AntecedentCase{"(({a, b, c}, &) << s, false)", "c a b s",
                   RefVerdict::Accepted},
    AntecedentCase{"(({a, b, c}, &) << s, false)", "a b s",
                   RefVerdict::Rejected},
    AntecedentCase{"(({a, b, c}, &) << s, false)", "a b c",
                   RefVerdict::Pending},
    AntecedentCase{"(({a, b, c}, &) << s, false)", "a b a c s",
                   RefVerdict::Rejected},  // block a reopened
    AntecedentCase{"(({a, b, c}, &) << s, false)", "a a b c s",
                   RefVerdict::Rejected},  // a[1,1] exceeded
};
INSTANTIATE_TEST_SUITE_P(ConjunctiveFragment, AntecedentRef,
                         ::testing::ValuesIn(kConjunctiveFragment));

constexpr AntecedentCase kDisjunctiveFragment[] = {
    AntecedentCase{"(({a, b}, |) << i, true)", "a i", RefVerdict::Accepted},
    AntecedentCase{"(({a, b}, |) << i, true)", "b i", RefVerdict::Accepted},
    AntecedentCase{"(({a, b}, |) << i, true)", "a b i",
                   RefVerdict::Accepted},
    AntecedentCase{"(({a, b}, |) << i, true)", "i", RefVerdict::Rejected},
    AntecedentCase{"(({a, b}, |) << i, true)", "a b a i",
                   RefVerdict::Rejected},
};
INSTANTIATE_TEST_SUITE_P(DisjunctiveFragment, AntecedentRef,
                         ::testing::ValuesIn(kDisjunctiveFragment));

constexpr AntecedentCase kMultiFragment[] = {
    AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                   "n1 n2 n3 n3 n5 i", RefVerdict::Accepted},
    AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                   "n2 n1 n3 n3 n3 n4 n5 i", RefVerdict::Accepted},
    AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                   "n1 n2 n4 n3 n3 n5 i", RefVerdict::Accepted},
    // n3 below its minimum.
    AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                   "n1 n2 n3 n5 i", RefVerdict::Rejected},
    // n1 reappears in fragment 2 (name of an earlier fragment).
    AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                   "n1 n2 n3 n3 n1 n5 i", RefVerdict::Rejected},
    // n5 too early (belongs to a later fragment).
    AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                   "n1 n5 i", RefVerdict::Rejected},
    // Fragment 2 skipped entirely.
    AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                   "n1 n2 n5 i", RefVerdict::Rejected},
    // Trigger before anything.
    AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                   "i", RefVerdict::Rejected},
};
INSTANTIATE_TEST_SUITE_P(MultiFragment, AntecedentRef,
                         ::testing::ValuesIn(kMultiFragment));

TEST(AntecedentRefDetails, ErrorIndexPointsAtOffendingEvent) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property("(n << i, true)", ab, sink);
  ASSERT_TRUE(p.has_value());
  Trace t = trace_of("n i i", ab);
  const RefResult r = reference_check(p->antecedent(), t);
  ASSERT_EQ(r.verdict, RefVerdict::Rejected);
  EXPECT_EQ(r.error_index, 2u);
  EXPECT_FALSE(r.reason.empty());
}

TEST(AntecedentRefDetails, IrrelevantNamesAreProjectedAway) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property("(n << i, true)", ab, sink);
  ASSERT_TRUE(p.has_value());
  Trace t = trace_of("x n y i z", ab);
  EXPECT_EQ(reference_check(p->antecedent(), t).verdict,
            RefVerdict::Accepted);
}

struct TimedCase {
  const char* property;
  const char* trace;  // "name@ns" entries
  std::uint64_t end_ns;
  RefVerdict expected;
};

// Same as for AntecedentCase: a readable, run-independent test name.
void PrintTo(const TimedCase& c, std::ostream* os) {
  *os << c.property << " on [" << c.trace << "] until " << c.end_ns
      << "ns";
}

class TimedRef : public ::testing::TestWithParam<TimedCase> {};

Trace timed_trace(const std::string& entries, Alphabet& ab) {
  Trace t;
  std::istringstream in(entries);
  std::string w;
  while (in >> w) {
    const auto at = w.find('@');
    t.push_back({ab.name(w.substr(0, at)),
                 sim::Time::ns(std::stoull(w.substr(at + 1)))});
  }
  return t;
}

TEST_P(TimedRef, Verdict) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property(GetParam().property, ab, sink);
  ASSERT_TRUE(p.has_value()) << sink.to_string();
  Trace t = timed_trace(GetParam().trace, ab);
  const RefResult r =
      reference_check(p->timed(), t, sim::Time::ns(GetParam().end_ns));
  EXPECT_EQ(r.verdict, GetParam().expected)
      << "property: " << GetParam().property
      << "\ntrace: " << GetParam().trace << "\nreason: " << r.reason;
}

constexpr TimedCase kBasic[] = {
    // (a => b, 100ns): b must follow a within 100 ns.
    TimedCase{"(a => b, 100ns)", "a@10 b@50", 200, RefVerdict::Accepted},
    TimedCase{"(a => b, 100ns)", "a@10 b@110", 200,
              RefVerdict::Accepted},  // exactly on the deadline
    TimedCase{"(a => b, 100ns)", "a@10 b@111", 200, RefVerdict::Rejected},
    TimedCase{"(a => b, 100ns)", "a@10", 300, RefVerdict::Rejected},
    TimedCase{"(a => b, 100ns)", "a@10", 50, RefVerdict::Pending},
    TimedCase{"(a => b, 100ns)", "", 500, RefVerdict::Accepted},
    // Repetition: each a needs its own timely b.
    TimedCase{"(a => b, 100ns)", "a@10 b@20 a@30 b@40", 500,
              RefVerdict::Accepted},
    TimedCase{"(a => b, 100ns)", "a@10 b@20 a@30 b@200", 500,
              RefVerdict::Rejected},
    // b without a: out-of-place (chain starts at a).
    TimedCase{"(a => b, 100ns)", "b@10", 100, RefVerdict::Rejected},
};
INSTANTIATE_TEST_SUITE_P(Basic, TimedRef,
                         ::testing::ValuesIn(kBasic));

constexpr TimedCase kPaperExample3Shape[] = {
    // (start => read_img[2,5] < set_irq, 1us)
    TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
              "start@10 read_img@20 read_img@30 set_irq@40", 2000,
              RefVerdict::Accepted},
    TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
              "start@10 read_img@20 set_irq@30", 2000,
              RefVerdict::Rejected},  // too few reads
    TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
              "start@10 read_img@20 read_img@30 read_img@40 read_img@50 "
              "read_img@60 read_img@70",
              2000, RefVerdict::Rejected},  // six reads > v=5
    TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
              "start@10 read_img@20 read_img@900 set_irq@1200", 2000,
              RefVerdict::Rejected},  // irq after deadline (10+1000)
    TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
              "start@10 read_img@20 read_img@30 set_irq@40 start@50 "
              "read_img@60 read_img@70 set_irq@80",
              2000, RefVerdict::Accepted},  // two clean rounds
    // set_irq without the reads.
    TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
              "start@10 set_irq@20", 2000, RefVerdict::Rejected},
};
INSTANTIATE_TEST_SUITE_P(PaperExample3Shape, TimedRef,
                         ::testing::ValuesIn(kPaperExample3Shape));

constexpr TimedCase kMinCompleteSemantics[] = {
    // Final fragment with lo<hi: obligation met at the lower bound.
    TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20 b@30", 500,
              RefVerdict::Accepted},
    TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 b@40 b@50", 500,
              RefVerdict::Accepted},  // draining up to hi
    TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20", 500,
              RefVerdict::Rejected},  // min never reached, deadline passes
    TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 b@40 b@50 b@60", 500,
              RefVerdict::Rejected},  // five b's > hi
    // New round: restart name after the block.
    TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 a@40 b@50 b@60", 500,
              RefVerdict::Accepted},
    // t_start is min-completion of P: with P = p[2,3], the clock starts
    // at the second p.
    TimedCase{"(p[2,3] => q, 100ns)", "p@10 p@50 q@140", 500,
              RefVerdict::Accepted},
    TimedCase{"(p[2,3] => q, 100ns)", "p@10 p@50 p@60 q@160", 500,
              RefVerdict::Rejected},  // deadline from second p (150)
};
INSTANTIATE_TEST_SUITE_P(MinCompleteSemantics, TimedRef,
                         ::testing::ValuesIn(kMinCompleteSemantics));

TEST(TimedRefDetails, DeadlineAtEndOfObservation) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property("(a => b, 100ns)", ab, sink);
  ASSERT_TRUE(p.has_value());
  Trace t = timed_trace("a@10", ab);
  // end_time within the deadline: still pending
  EXPECT_EQ(reference_check(p->timed(), t, sim::Time::ns(100)).verdict,
            RefVerdict::Pending);
  // end_time past the deadline: rejected
  EXPECT_EQ(reference_check(p->timed(), t, sim::Time::ns(111)).verdict,
            RefVerdict::Rejected);
}

// --- RefCursor: resume at any cut ≡ one walk -------------------------------

::testing::AssertionResult same_result(const RefResult& got,
                                       const RefResult& want) {
  if (got.verdict == want.verdict && got.error_index == want.error_index &&
      got.reason == want.reason) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got " << to_string(got.verdict) << " at " << got.error_index
         << " (" << got.reason << "), want " << to_string(want.verdict)
         << " at " << want.error_index << " (" << want.reason << ")";
}

// A cursor last bound to another property, walked to a decision: the
// restore targets of the resume checks, so a restore must overwrite every
// bit of foreign state (including a wider or narrower counter buffer).
struct DirtyCursors {
  std::vector<Property> properties;
  std::vector<OrderingPlan> plans;
  std::vector<RefCursor> cursors;

  explicit DirtyCursors(Alphabet& ab) {
    for (const char* src : {"(({x1, x2, x3, x4}, &) < y << z, false)",
                            "(x1[2,3] => y, 5ns)"}) {
      properties.push_back(loom::testing::parse(src, ab));
    }
    for (const Property& p : properties) {
      plans.push_back(p.is_antecedent() ? plan_antecedent(p.antecedent())
                                        : plan_timed(p.timed()));
    }
    const Trace noise = trace_of("x1 x2 x1 y z", ab);
    for (std::size_t i = 0; i < properties.size(); ++i) {
      cursors.emplace_back();
      cursors.back().bind(properties[i], plans[i]);
      cursors.back().advance(noise, 0, noise.size());
    }
  }
};

// Checkpoints a cursor at every cut k of `t`, restores the copy into a
// dirty cursor and resumes it over t[k, n); every resumed result, and a
// rebind of the dirty cursor walked from 0, must equal the one-shot result.
void expect_resume_equals_one_shot(const Property& p, const Trace& t,
                                   sim::Time end, DirtyCursors& dirty,
                                   const std::string& label) {
  const OrderingPlan plan = p.is_antecedent() ? plan_antecedent(p.antecedent())
                                              : plan_timed(p.timed());
  const RefResult whole = reference_check(p, plan, t, end);
  RefCursor walker;
  walker.bind(p, plan);
  for (std::size_t k = 0; k <= t.size(); ++k) {
    if (k > 0) walker.advance(t, k - 1, k);
    RefCursor& target = dirty.cursors[k % dirty.cursors.size()];
    target = walker;  // the checkpoint's restore
    target.advance(t, k, t.size());
    ASSERT_TRUE(same_result(target.finish(end).to_result(), whole))
        << label << " resumed at cut " << k;
  }
  ASSERT_TRUE(same_result(walker.finish(end).to_result(), whole))
      << label << " walked one event at a time";
  RefCursor& rebound = dirty.cursors.front();
  rebound.bind(p, plan);
  rebound.advance(t, 0, t.size());
  ASSERT_TRUE(same_result(rebound.finish(end).to_result(), whole))
      << label << " rebound from another plan";
}

TEST(RefCursor, ResumeEqualsOneShotOnCaseTables) {
  for (const std::span<const AntecedentCase> table :
       {std::span<const AntecedentCase>(kSingleRangeRepeated),
        std::span<const AntecedentCase>(kSingleRangeNonRepeated),
        std::span<const AntecedentCase>(kRangeBounds),
        std::span<const AntecedentCase>(kConjunctiveFragment),
        std::span<const AntecedentCase>(kDisjunctiveFragment),
        std::span<const AntecedentCase>(kMultiFragment)}) {
    for (const AntecedentCase& c : table) {
      Alphabet ab;
      const Property p = loom::testing::parse(c.property, ab);
      DirtyCursors dirty(ab);
      const Trace t = trace_of(c.trace, ab);
      expect_resume_equals_one_shot(p, t, sim::Time::zero(), dirty,
                                    std::string(c.property) + " on [" +
                                        c.trace + "]");
    }
  }
  for (const std::span<const TimedCase> table :
       {std::span<const TimedCase>(kBasic),
        std::span<const TimedCase>(kPaperExample3Shape),
        std::span<const TimedCase>(kMinCompleteSemantics)}) {
    for (const TimedCase& c : table) {
      Alphabet ab;
      const Property p = loom::testing::parse(c.property, ab);
      DirtyCursors dirty(ab);
      const Trace t = timed_trace(c.trace, ab);
      expect_resume_equals_one_shot(p, t, sim::Time::ns(c.end_ns), dirty,
                                    std::string(c.property) + " on [" +
                                        c.trace + "]");
    }
  }
}

// Every trace of the exhaustive small-model sweeps (mon_exhaustive_test's
// properties, alphabets and length bounds), checkpointed at every cut.
class RefCursorExhaustive : public ::testing::TestWithParam<const char*> {};

TEST_P(RefCursorExhaustive, ResumeEqualsOneShotOnAllTraces) {
  Alphabet ab;
  const Property p = loom::testing::parse(GetParam(), ab);
  const std::vector<Name> names = loom::testing::alphabet_names(p);
  DirtyCursors dirty(ab);
  std::size_t checked = 0;
  loom::testing::for_all_traces(
      names, loom::testing::exhaustive_max_len(p), [&](const Trace& t) {
        const sim::Time last = t.empty() ? sim::Time::zero() : t.back().time;
        for (const sim::Time end : {last, last + sim::Time::us(1)}) {
          ++checked;
          expect_resume_equals_one_shot(p, t, end, dirty, GetParam());
          if (::testing::Test::HasFatalFailure()) return;
        }
      });
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Antecedents, RefCursorExhaustive,
    ::testing::ValuesIn(loom::testing::kExhaustiveAntecedents));
INSTANTIATE_TEST_SUITE_P(Timed, RefCursorExhaustive,
                         ::testing::ValuesIn(loom::testing::kExhaustiveTimed));

TEST(RefCursor, DecisionInThePrefixSurvivesTheResume) {
  Alphabet ab;
  // Non-repeated antecedent: accepted at the first validated i, whatever
  // the suffix holds; a rejection stays at its index.
  const Property once = loom::testing::parse("(n << i, false)", ab);
  const OrderingPlan plan = plan_antecedent(once.antecedent());
  const Trace t = trace_of("n i i n", ab);
  RefCursor cursor;
  cursor.bind(once, plan);
  cursor.advance(t, 0, 2);
  ASSERT_TRUE(cursor.decided());
  RefCursor resumed = cursor;
  resumed.advance(t, 2, t.size());
  EXPECT_EQ(resumed.finish(sim::Time::zero()).verdict, RefVerdict::Accepted);

  const Trace bad = trace_of("i n i", ab);
  cursor.bind(once, plan);
  cursor.advance(bad, 0, 1);
  resumed = cursor;
  resumed.advance(bad, 1, bad.size());
  const RefOutcome out = resumed.finish(sim::Time::zero());
  EXPECT_EQ(out.verdict, RefVerdict::Rejected);
  EXPECT_EQ(out.error_index, 0u);
}

TEST(RefCursor, EndTimeIsReadOnlyAtFinish) {
  Alphabet ab;
  const Property p = loom::testing::parse("(a => b, 100ns)", ab);
  const OrderingPlan plan = plan_timed(p.timed());
  const Trace t = timed_trace("a@10", ab);
  RefCursor cursor;
  cursor.bind(p, plan);
  cursor.advance(t, 0, t.size());
  EXPECT_EQ(cursor.finish(sim::Time::ns(100)).verdict, RefVerdict::Pending);
  EXPECT_EQ(cursor.finish(sim::Time::ns(111)).verdict, RefVerdict::Rejected);
  EXPECT_EQ(cursor.finish(sim::Time::ns(100)).verdict, RefVerdict::Pending);
}

// --- Rejection reasons, byte for byte ---------------------------------------

struct ReasonCase {
  const char* property;
  const char* trace;  // "name@ns" entries
  std::uint64_t end_ns;
  RefReason reason;
  std::size_t error_index;
  const char* text;
};

void PrintTo(const ReasonCase& c, std::ostream* os) {
  *os << c.property << " on [" << c.trace << "] until " << c.end_ns << "ns";
}

class RefReasonText : public ::testing::TestWithParam<ReasonCase> {};

TEST_P(RefReasonText, ExactText) {
  const ReasonCase& c = GetParam();
  Alphabet ab;
  const Property p = loom::testing::parse(c.property, ab);
  const Trace t = timed_trace(c.trace, ab);
  const OrderingPlan plan = p.is_antecedent() ? plan_antecedent(p.antecedent())
                                              : plan_timed(p.timed());
  RefCursor cursor;
  cursor.bind(p, plan);
  cursor.advance(t, 0, t.size());
  const RefOutcome out = cursor.finish(sim::Time::ns(c.end_ns));
  EXPECT_EQ(out.verdict, RefVerdict::Rejected);
  EXPECT_EQ(out.reason, c.reason);
  EXPECT_EQ(out.error_index, c.error_index);
  const RefResult r = reference_check(p, t, sim::Time::ns(c.end_ns));
  EXPECT_EQ(r.reason, c.text);
  EXPECT_EQ(r.error_index, c.error_index);
}

// One row per reason a trace can trigger, with the text loomcheck and the
// test diagnostics print.
constexpr ReasonCase kReasons[] = {
    {"(n[2,4] << i, true)", "n@10 n@20 n@30 n@40 n@50", 0,
     RefReason::AboveMax, 4,
     "more than v=4 consecutive occurrences of the range name"},
    {"(({a[2,3], b}, &) << i, true)", "a@10 b@20", 0,
     RefReason::BlockBelowMin, 1, "block ended after 1 occurrences, below u=2"},
    {"(({a, b, c}, &) << s, false)", "a@10 b@20 a@30", 0,
     RefReason::BlockReopened, 2, "range block reopened after it ended"},
    {"(n[2,4] << i, true)", "n@10 i@20", 0,
     RefReason::FragmentStoppedBelowMin, 1,
     "fragment stopped while a block had only 1 occurrences, below u=2"},
    {"(({a, b, c}, &) << s, false)", "a@10 b@20 s@30", 0,
     RefReason::ConjunctionIncomplete, 2,
     "conjunctive fragment stopped before all its ranges were observed"},
    {"(({a, b}, |) << i, true)", "i@10", 0,
     RefReason::DisjunctionIncomplete, 0,
     "disjunctive fragment stopped before any of its ranges was observed"},
    {"(a < b << i, true)", "a@10 i@20", 0, RefReason::TriggerTooEarly, 1,
     "trigger observed before the pattern was recognized"},
    {"(a < b << i, true)", "a@10 b@20 a@30", 0,
     RefReason::CompletedFragment, 2,
     "name belongs to an already-completed fragment"},
    {"(a < b < c << i, true)", "a@10 c@20", 0, RefReason::LaterFragment, 1,
     "name belongs to a later fragment"},
    {"(a => b, 100ns)", "a@10 b@111", 200, RefReason::DeadlineElapsed, 1,
     "deadline elapsed before the consequent finished"},
    {"(a => b, 100ns)", "a@10", 300, RefReason::ObservationEndedLate, 0,
     "observation ended after the deadline with the consequent unfinished"},
};
INSTANTIATE_TEST_SUITE_P(Triggered, RefReasonText,
                         ::testing::ValuesIn(kReasons));

// The two reasons no trace reaches: a projected name is always in some
// fragment or the terminal set, and the per-event deadline check fires
// before a late consequent could min-complete.  Their texts are pinned
// directly, and the table above must cover every other reason.
TEST(RefReasonText, UnreachableReasonsAndCoverage) {
  EXPECT_EQ(describe(RefReason::OutsideAlphabet),
            "name not in the property alphabet");
  EXPECT_EQ(describe(RefReason::ConsequentLate),
            "consequent finished after the deadline");
  EXPECT_EQ(describe(RefReason::None), "");
  std::vector<RefReason> missing;
  for (auto r = static_cast<int>(RefReason::AboveMax);
       r <= static_cast<int>(RefReason::ObservationEndedLate); ++r) {
    const auto reason = static_cast<RefReason>(r);
    if (reason == RefReason::OutsideAlphabet ||
        reason == RefReason::ConsequentLate) {
      continue;
    }
    const bool covered = std::any_of(
        std::begin(kReasons), std::end(kReasons),
        [&](const ReasonCase& c) { return c.reason == reason; });
    if (!covered) missing.push_back(reason);
  }
  EXPECT_TRUE(missing.empty()) << missing.size() << " reasons untested";
}

}  // namespace
}  // namespace loom::spec
