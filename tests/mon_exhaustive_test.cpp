// Exhaustive small-model checking (our replacement for the paper's SPOT
// validation): for small alphabets, enumerate EVERY trace up to a length
// bound and require
//   - Drct monitor verdict == declarative reference verdict (exact), and
//   - ViaPSL soundness: no false alarms, agreement on accepted traces.
// Unlike the randomized suites, these sweeps cover every corner the bound
// allows — thousands of traces per property.
#include <gtest/gtest.h>

#include "psl/clause_monitor.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

std::string render(const spec::Trace& t, const spec::Alphabet& ab) {
  std::string out;
  for (const auto& ev : t) out += ab.text(ev.name) + " ";
  return out;
}

class ExhaustiveAntecedent : public ::testing::TestWithParam<const char*> {};

TEST_P(ExhaustiveAntecedent, DrctEqualsReferenceOnAllTraces) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(GetParam(), ab);
  const std::vector<spec::Name> names = loom::testing::alphabet_names(p);
  std::size_t checked = 0;
  loom::testing::for_all_traces(names, loom::testing::exhaustive_max_len(p), [&](const spec::Trace& t) {
    ++checked;
    const auto ref = spec::reference_check(p.antecedent(), t);
    AntecedentMonitor m(p.antecedent());
    loom::testing::run_monitor(m, t);
    ASSERT_EQ(loom::testing::as_ref(m.verdict()), ref.verdict)
        << GetParam() << " on [" << render(t, ab) << "] ref=" << ref.reason;
    if (ref.rejected() && m.violation().has_value()) {
      ASSERT_EQ(m.violation()->event_ordinal, ref.error_index)
          << GetParam() << " on [" << render(t, ab) << "]";
    }
  });
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ExhaustiveAntecedent,
    ::testing::ValuesIn(loom::testing::kExhaustiveAntecedents));

class ExhaustivePslSoundness : public ::testing::TestWithParam<const char*> {
};

TEST_P(ExhaustivePslSoundness, NoFalseAlarmsAcceptedAgreement) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(GetParam(), ab);
  const std::vector<spec::Name> names = loom::testing::alphabet_names(p);
  const psl::Encoding enc = psl::encode(p);

  loom::testing::for_all_traces(names, 6, [&](const spec::Trace& t) {
    const auto ref = spec::reference_check(p.antecedent(), t);
    psl::ClauseMonitor m(enc);
    loom::testing::run_monitor(m, t);
    const auto psl_verdict = loom::testing::as_ref(m.verdict());
    if (psl_verdict == spec::RefVerdict::Rejected) {
      ASSERT_EQ(ref.verdict, spec::RefVerdict::Rejected)
          << GetParam() << " false alarm on [" << render(t, ab) << "]: "
          << (m.violation() ? m.violation()->reason.text() : "");
    }
    if (ref.verdict == spec::RefVerdict::Accepted) {
      ASSERT_EQ(psl_verdict, spec::RefVerdict::Accepted)
          << GetParam() << " on [" << render(t, ab) << "]";
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ExhaustivePslSoundness,
    ::testing::Values("(a << i, true)",             //
                      "(a << i, false)",            //
                      "(a[2,3] << i, true)",        //
                      "(({a, b}, &) << i, true)",   //
                      "(({a, b}, |) << i, true)",   //
                      "(a < b << i, true)"));

class ExhaustiveTimed : public ::testing::TestWithParam<const char*> {};

TEST_P(ExhaustiveTimed, DrctEqualsReferenceOnAllTraces) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(GetParam(), ab);
  const std::vector<spec::Name> names = loom::testing::alphabet_names(p);

  std::size_t checked = 0;
  loom::testing::for_all_traces(names, loom::testing::exhaustive_max_len(p),
                                [&](const spec::Trace& t) {
    // Two end-of-observation points: right at the last event, and long
    // after (forcing deadline checks at finish()).
    const sim::Time last = t.empty() ? sim::Time::zero() : t.back().time;
    for (const sim::Time end : {last, last + sim::Time::us(1)}) {
      ++checked;
      const auto ref = spec::reference_check(p.timed(), t, end);
      TimedImplicationMonitor m(p.timed());
      loom::testing::run_monitor(m, t, end);
      ASSERT_EQ(loom::testing::as_ref(m.verdict()), ref.verdict)
          << GetParam() << " on [" << render(t, ab)
          << "] end=" << end.to_string() << " ref=" << ref.reason
          << (m.violation() ? "\nmon=" + m.violation()->reason.text() : "");
    }
  });
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ExhaustiveTimed,
    ::testing::ValuesIn(loom::testing::kExhaustiveTimed));

}  // namespace
}  // namespace loom::mon
