// Direct unit tests of the fragment and ordering recognizers (the
// synchronous-parallel / sequential compositions of paper §6), independent
// of the full property monitors.
#include <gtest/gtest.h>

#include "mon/ordering_recognizer.hpp"
#include "spec/parser.hpp"

namespace loom::mon {
namespace {

struct Fixture {
  spec::Alphabet ab;
  spec::OrderingPlan plan;
  MonitorStats stats;

  explicit Fixture(const std::string& property_src) {
    support::DiagnosticSink sink;
    auto p = spec::parse_property(property_src, ab, sink);
    if (!p) throw std::runtime_error(sink.to_string());
    plan = spec::plan_antecedent(p->antecedent());
  }

  spec::Name id(const char* name) { return *ab.lookup(name); }
};

TEST(FragmentRecognizer, ConjunctiveCompletesInAnyOrder) {
  Fixture fx("(({a, b, c}, &) << i, true)");
  for (const auto& order : std::vector<std::vector<const char*>>{
           {"a", "b", "c"}, {"c", "b", "a"}, {"b", "a", "c"}}) {
    FragmentRecognizer frag(fx.plan.fragments[0], fx.stats);
    frag.start();
    EXPECT_FALSE(frag.min_complete());
    for (const char* n : order) {
      EXPECT_EQ(frag.step(fx.id(n), sim::Time::ns(1)),
                FragmentRecognizer::Out::None);
    }
    EXPECT_TRUE(frag.min_complete());
    EXPECT_TRUE(frag.in_progress());
    EXPECT_EQ(frag.step(fx.id("i"), sim::Time::ns(2)),
              FragmentRecognizer::Out::Ok);
  }
}

TEST(FragmentRecognizer, ConjunctiveMissingRangeErrsOnStop) {
  Fixture fx("(({a, b, c}, &) << i, true)");
  FragmentRecognizer frag(fx.plan.fragments[0], fx.stats);
  frag.start();
  frag.step(fx.id("a"), sim::Time::ns(1));
  frag.step(fx.id("b"), sim::Time::ns(2));
  EXPECT_EQ(frag.step(fx.id("i"), sim::Time::ns(3)),
            FragmentRecognizer::Out::Err);
  EXPECT_FALSE(frag.error().empty());
}

TEST(FragmentRecognizer, DisjunctiveMinCompleteAfterOneBlock) {
  Fixture fx("(({a[2,3], b}, |) << i, true)");
  FragmentRecognizer frag(fx.plan.fragments[0], fx.stats);
  frag.start();
  frag.step(fx.id("a"), sim::Time::ns(1));
  EXPECT_FALSE(frag.min_complete()) << "a needs two occurrences";
  frag.step(fx.id("a"), sim::Time::ns(2));
  EXPECT_TRUE(frag.min_complete());
  EXPECT_EQ(frag.min_complete_time(), sim::Time::ns(2));
  EXPECT_EQ(frag.step(fx.id("i"), sim::Time::ns(3)),
            FragmentRecognizer::Out::Ok);
}

TEST(FragmentRecognizer, MinCompleteTimeIsFirstInstant) {
  Fixture fx("(({a, b}, |) << i, true)");
  FragmentRecognizer frag(fx.plan.fragments[0], fx.stats);
  frag.start();
  frag.step(fx.id("a"), sim::Time::ns(5));
  ASSERT_TRUE(frag.min_complete());
  frag.step(fx.id("b"), sim::Time::ns(9));  // still min-complete
  EXPECT_EQ(frag.min_complete_time(), sim::Time::ns(5));
}

TEST(FragmentRecognizer, ResetClearsProgress) {
  Fixture fx("(({a, b}, &) << i, true)");
  FragmentRecognizer frag(fx.plan.fragments[0], fx.stats);
  frag.start();
  frag.step(fx.id("a"), sim::Time::ns(1));
  EXPECT_TRUE(frag.in_progress());
  frag.reset();
  EXPECT_FALSE(frag.in_progress());
  EXPECT_FALSE(frag.min_complete());
  EXPECT_EQ(frag.child(0).state(), RangeRecognizer::State::Idle);
}

TEST(OrderingRecognizer, ChainsFragmentsOnTheStoppingEvent) {
  Fixture fx("(({a, b}, &) < c << i, true)");
  OrderingRecognizer rec(fx.plan, fx.stats);
  rec.activate();
  EXPECT_EQ(rec.active_fragment(), 0u);
  rec.step(fx.id("b"), sim::Time::ns(1));
  rec.step(fx.id("a"), sim::Time::ns(2));
  EXPECT_EQ(rec.active_fragment(), 0u);
  // c stops fragment 1 and simultaneously opens fragment 2.
  EXPECT_EQ(rec.step(fx.id("c"), sim::Time::ns(3)),
            OrderingRecognizer::Out::None);
  EXPECT_EQ(rec.active_fragment(), 1u);
  EXPECT_TRUE(rec.fragment(1).in_progress())
      << "the chaining event must be consumed by the new fragment";
  EXPECT_EQ(rec.step(fx.id("i"), sim::Time::ns(4)),
            OrderingRecognizer::Out::Completed);
}

TEST(OrderingRecognizer, EarlyLaterFragmentNameErrs) {
  Fixture fx("(a < b < c << i, true)");
  OrderingRecognizer rec(fx.plan, fx.stats);
  rec.activate();
  rec.step(fx.id("a"), sim::Time::ns(1));
  EXPECT_EQ(rec.step(fx.id("c"), sim::Time::ns(2)),
            OrderingRecognizer::Out::Err)
      << "c belongs to fragment 3 while fragment 1 is still active";
}

TEST(OrderingRecognizer, EarlierFragmentNameErrsAfterAdvance) {
  Fixture fx("(a < b < c << i, true)");
  OrderingRecognizer rec(fx.plan, fx.stats);
  rec.activate();
  rec.step(fx.id("a"), sim::Time::ns(1));
  rec.step(fx.id("b"), sim::Time::ns(2));
  EXPECT_EQ(rec.active_fragment(), 1u);
  EXPECT_EQ(rec.step(fx.id("a"), sim::Time::ns(3)),
            OrderingRecognizer::Out::Err)
      << "a belongs to the completed fragment 1";
}

TEST(OrderingRecognizer, RestartBeginsANewRound) {
  Fixture fx("(a < b << i, true)");
  OrderingRecognizer rec(fx.plan, fx.stats);
  rec.activate();
  rec.step(fx.id("a"), sim::Time::ns(1));
  rec.step(fx.id("b"), sim::Time::ns(2));
  EXPECT_EQ(rec.step(fx.id("i"), sim::Time::ns(3)),
            OrderingRecognizer::Out::Completed);
  rec.restart();
  EXPECT_EQ(rec.active_fragment(), 0u);
  EXPECT_FALSE(rec.in_progress());
  rec.step(fx.id("a"), sim::Time::ns(4));
  EXPECT_TRUE(rec.in_progress());
}

TEST(OrderingRecognizer, SpaceSumsChildrenPlusIndex) {
  Fixture fx("(a < b << i, true)");
  OrderingRecognizer rec(fx.plan, fx.stats);
  const std::size_t child_bits =
      rec.fragment(0).space_bits() + rec.fragment(1).space_bits();
  EXPECT_EQ(rec.space_bits(), child_bits + bits_for_value(2));
}

TEST(OrderingRecognizer, OnlyActiveFragmentWorks) {
  // The ops spent on one event must not grow with the number of inactive
  // fragments — the structural source of the Drct Θ(max |α(F)|) bound.
  Fixture small("(a1 << i, true)");
  Fixture large("(a1 < b1 < c1 < d1 < e1 < f1 < g1 < h1 << i, true)");
  OrderingRecognizer rec_small(small.plan, small.stats);
  OrderingRecognizer rec_large(large.plan, large.stats);
  rec_small.activate();
  rec_large.activate();
  const auto before_small = small.stats.ops;
  rec_small.step(small.id("a1"), sim::Time::ns(1));
  const auto cost_small = small.stats.ops - before_small;
  const auto before_large = large.stats.ops;
  rec_large.step(large.id("a1"), sim::Time::ns(1));
  const auto cost_large = large.stats.ops - before_large;
  EXPECT_LE(cost_large, cost_small + 2);
}

}  // namespace
}  // namespace loom::mon
