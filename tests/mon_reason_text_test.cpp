// Violation reports, byte for byte, per backend.
//
// Every reason a Drct, Vm or ViaPSL monitor can report is triggered here by
// a small property and trace, and the complete Violation::to_string text is
// pinned: ordinal, time, name and reason.  Vm must print exactly what Drct
// prints; ViaPSL has its own texts for the clause and lexer errors.  Each
// report is also round-tripped through snapshot()/restore() into a fresh
// instance, which must print the same text.
#include <string>

#include "mon/compiled.hpp"
#include "mon/snapshot.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

enum class End : std::uint8_t { Finish, Poll };

struct TextCase {
  const char* property;
  const char* trace;  // "name@ns" entries
  std::uint64_t end_ns;
  End end;
  const char* drct;    // Drct and Vm text ("" when no violation)
  const char* viapsl;  // ViaPSL text ("" when no violation)
};

void PrintTo(const TextCase& c, std::ostream* os) {
  *os << c.property << " on [" << c.trace << "] until " << c.end_ns << "ns";
}

std::string run_text(const TextCase& c, Backend backend, bool via_snapshot) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(c.property, ab);
  const spec::Trace t = loom::testing::timed_trace_of(c.trace, ab);
  CompileOptions options;
  options.backend = backend;
  const CompiledProperty compiled = CompiledProperty::compile(p, ab, options);
  std::unique_ptr<Monitor> m = compiled.instantiate(backend);
  for (const auto& ev : t) m->observe(ev.name, ev.time);
  if (c.end == End::Poll) {
    m->poll(sim::Time::ns(c.end_ns));
  } else {
    m->finish(sim::Time::ns(c.end_ns));
  }
  if (via_snapshot) {
    Snapshot s;
    m->snapshot(s);
    std::unique_ptr<Monitor> fresh = compiled.instantiate(backend);
    fresh->restore(s);
    m = std::move(fresh);
  }
  const auto& v = m->violation();
  if (!v.has_value()) return "";
  EXPECT_EQ(m->verdict(), Verdict::Violated);
  return v->to_string(ab);
}

class MonReasonText : public ::testing::TestWithParam<TextCase> {};

TEST_P(MonReasonText, DrctAndVmPrintTheSameText) {
  const TextCase& c = GetParam();
  EXPECT_EQ(run_text(c, Backend::Drct, false), c.drct);
  EXPECT_EQ(run_text(c, Backend::Vm, false), c.drct);
}

TEST_P(MonReasonText, ViaPslText) {
  const TextCase& c = GetParam();
  EXPECT_EQ(run_text(c, Backend::ViaPSL, false), c.viapsl);
}

TEST_P(MonReasonText, SnapshotRestoreKeepsTheText) {
  const TextCase& c = GetParam();
  EXPECT_EQ(run_text(c, Backend::Drct, true), c.drct);
  EXPECT_EQ(run_text(c, Backend::Vm, true), c.drct);
  EXPECT_EQ(run_text(c, Backend::ViaPSL, true), c.viapsl);
}

// One row per reason; names are interned in order of appearance in the
// property, so 'n' is #0 in "(n[2,4] << i, true)".
constexpr TextCase kTexts[] = {
    {"(a < b < c << i, true)", "c@10", 10, End::Finish,
     "violation at event #0 (t=10 ns) on 'c': name from outside the active "
     "fragment (B or Af)",
     ""},
    {"(a < b << i, true)", "b@10", 10, End::Finish,
     "violation at event #0 (t=10 ns) on 'b': fragment stopped before any of "
     "its ranges started",
     ""},
    {"(({a, b}, &) < c << i, true)", "a@10 c@20", 20, End::Finish,
     "violation at event #1 (t=20 ns) on 'c': conjunctive fragment stopped "
     "before one of its ranges was observed",
     ""},
    {"(n[2,4] << i, true)", "n@10 n@20 n@30 n@40 n@50", 50, End::Finish,
     "violation at event #4 (t=50 ns) on 'n': more than v=4 consecutive "
     "occurrences",
     "violation at event #4 (t=50 ns) on 'n': lexer: block of '0' exceeds "
     "v=4"},
    {"(({a[2,3], b}, &) << i, true)", "a@10 b@20", 20, End::Finish,
     "violation at event #1 (t=20 ns) on 'b': block ended after 1 "
     "occurrences, below u=2",
     "violation at event #1 (t=20 ns) on 'b': lexer: block of '0' ended "
     "after 1 occurrences, below u=2"},
    {"(n[2,4] << i, true)", "n@10 i@20", 20, End::Finish,
     "violation at event #1 (t=20 ns) on 'i': fragment stopped after 1 "
     "occurrences, below u=2",
     "violation at event #1 (t=20 ns) on 'i': lexer: block of '0' ended "
     "after 1 occurrences, below u=2"},
    {"(({a, b, c}, &) << s, false)", "a@10 b@20 a@30", 30, End::Finish,
     "violation at event #2 (t=30 ns) on 'a': range block reopened after it "
     "ended",
     "violation at event #2 (t=30 ns) on 'a': PSL conjunct violated "
     "(max-one): always((a -> next((!a until! s))))"},
    {"(a => b, 100ns)", "a@10 b@111", 200, End::Finish,
     "violation at event #1 (t=111 ns) on 'b': deadline elapsed before the "
     "consequent finished",
     "violation at event #1 (t=111 ns) on 'b': deadline elapsed before the "
     "consequent finished"},
    {"(a => b, 100ns)", "a@10", 300, End::Poll,
     "violation at event #1 (t=300 ns): deadline elapsed before the "
     "consequent finished (watchdog)",
     "violation at event #1 (t=300 ns): deadline elapsed before the "
     "consequent finished (watchdog)"},
    {"(a => b, 100ns)", "a@10", 300, End::Finish,
     "violation at event #1 (t=300 ns): observation ended after the deadline "
     "with the consequent unfinished",
     "violation at event #1 (t=300 ns): observation ended after the deadline "
     "with the consequent unfinished"},
    {"(a => b[1,2], 100ns)", "a@10 b@20", 300, End::Finish, "",
     "violation at event #2 (t=300 ns) on 'b': consequent finished after the "
     "deadline (took 290 ns, bound 100 ns)"},
    {"(a => b, 100ns)", "b@10", 20, End::Finish,
     "violation at event #0 (t=10 ns) on 'b': fragment stopped before any of "
     "its ranges started",
     "violation at event #0 (t=10 ns) on 'b': PSL conjunct violated "
     "(before): (!b until! a)"},
};
INSTANTIATE_TEST_SUITE_P(Triggered, MonReasonText, ::testing::ValuesIn(kTexts));

// Every code's text straight from Reason::text, including ConsequentLate,
// which Drct and Vm cannot reach (their per-event deadline check fires
// first) and which ViaPSL reaches only at finish().
TEST(MonReasonText, EveryCodeFormatsFromItsOperands) {
  const std::uint32_t psl = intern_reason_text("PSL conjunct violated (x): y");
  EXPECT_EQ(intern_reason_text("PSL conjunct violated (x): y"), psl);
  const std::pair<Reason, const char*> rows[] = {
      {{MonReason::None}, ""},
      {{MonReason::OutsideFragment},
       "name from outside the active fragment (B or Af)"},
      {{MonReason::NeverStarted},
       "fragment stopped before any of its ranges started"},
      {{MonReason::ConjunctUnobserved},
       "conjunctive fragment stopped before one of its ranges was observed"},
      {{MonReason::AboveMax, 0, 7}, "more than v=7 consecutive occurrences"},
      {{MonReason::BlockBelowMin, 0, 1, 3},
       "block ended after 1 occurrences, below u=3"},
      {{MonReason::FragmentStoppedBelowMin, 0, 2, 5},
       "fragment stopped after 2 occurrences, below u=5"},
      {{MonReason::BlockReopened}, "range block reopened after it ended"},
      {{MonReason::ConsequentLate, 0, 290000, 100000},
       "consequent finished after the deadline (took 290 ns, bound 100 ns)"},
      {{MonReason::DeadlineElapsed},
       "deadline elapsed before the consequent finished"},
      {{MonReason::DeadlineElapsedWatchdog},
       "deadline elapsed before the consequent finished (watchdog)"},
      {{MonReason::ObservationEndedLate},
       "observation ended after the deadline with the consequent unfinished"},
      {{MonReason::PslConjunct, 0, psl}, "PSL conjunct violated (x): y"},
      {{MonReason::LexerAboveMax, 0, 4, 2}, "lexer: block of '4' exceeds v=2"},
      {{MonReason::LexerBelowMin, 3, 4, 1},
       "lexer: block of '4' ended after 1 occurrences, below u=3"},
  };
  for (const auto& [reason, text] : rows) {
    EXPECT_EQ(reason.text(), text);
  }
  EXPECT_EQ(std::size(rows),
            static_cast<std::size_t>(MonReason::LexerBelowMin) + 1);
}

}  // namespace
}  // namespace loom::mon
