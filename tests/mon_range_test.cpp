// Transition-level tests of the elementary range recognizer (paper Fig. 5).
#include <gtest/gtest.h>

#include "mon/range_recognizer.hpp"

namespace loom::mon {
namespace {

using State = RangeRecognizer::State;
using Out = RangeRecognizer::Out;

/// Context: R = n[u,v] with B = {b}, C = {c}, Ac = {ac}, Af = {af}.
/// Names are fixed ids: n=0, c=1, ac=2, af=3, b=4.
constexpr spec::Name kN = 0, kC = 1, kAc = 2, kAf = 3, kB = 4;

spec::RangePlan make_plan(std::uint32_t lo, std::uint32_t hi,
                          spec::Join join) {
  spec::RangePlan p;
  p.name = kN;
  p.lo = lo;
  p.hi = hi;
  p.parent_join = join;
  p.siblings.set(kC);
  p.accept.set(kAc);
  p.after.set(kAf);
  p.before.set(kB);
  return p;
}

class RangeFixture : public ::testing::Test {
 protected:
  MonitorStats stats;
};

TEST_F(RangeFixture, IdleIgnoresEverything) {
  auto plan = make_plan(1, 1, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  EXPECT_EQ(r.state(), State::Idle);
  for (spec::Name ev : {kN, kC, kAc, kAf, kB}) {
    EXPECT_EQ(r.step(ev), Out::None);
    EXPECT_EQ(r.state(), State::Idle);
  }
}

TEST_F(RangeFixture, S1FirstOwnNameStartsCounting) {
  auto plan = make_plan(2, 8, spec::Join::Disj);
  RangeRecognizer r(plan, stats);
  r.start();
  EXPECT_EQ(r.state(), State::WaitFirst);
  EXPECT_EQ(r.step(kN), Out::None);
  EXPECT_EQ(r.state(), State::Counting);
  EXPECT_EQ(r.count(), 1u);
}

TEST_F(RangeFixture, S1SiblingMovesToWaitSibling) {
  auto plan = make_plan(1, 1, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  EXPECT_EQ(r.step(kC), Out::None);
  EXPECT_EQ(r.state(), State::WaitFirstSibling);
}

TEST_F(RangeFixture, S1StoppingNameIsError) {
  for (auto join : {spec::Join::Conj, spec::Join::Disj}) {
    auto plan = make_plan(1, 1, join);
    RangeRecognizer r(plan, stats);
    r.start();
    EXPECT_EQ(r.step(kAc), Out::Err);
    EXPECT_EQ(r.state(), State::Error);
  }
}

TEST_F(RangeFixture, S1ForbiddenNamesAreErrors) {
  for (spec::Name bad : {kAf, kB}) {
    auto plan = make_plan(1, 1, spec::Join::Conj);
    RangeRecognizer r(plan, stats);
    r.start();
    EXPECT_EQ(r.step(bad), Out::Err);
  }
}

TEST_F(RangeFixture, S2OwnNameStartsCounting) {
  auto plan = make_plan(1, 2, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kC);
  EXPECT_EQ(r.step(kN), Out::None);
  EXPECT_EQ(r.state(), State::Counting);
  EXPECT_EQ(r.count(), 1u);
}

TEST_F(RangeFixture, S2SiblingStays) {
  auto plan = make_plan(1, 2, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kC);
  EXPECT_EQ(r.step(kC), Out::None);
  EXPECT_EQ(r.state(), State::WaitFirstSibling);
}

TEST_F(RangeFixture, S2StopUnderDisjunctionIsNok) {
  auto plan = make_plan(1, 2, spec::Join::Disj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kC);
  EXPECT_EQ(r.step(kAc), Out::Nok);
  EXPECT_EQ(r.state(), State::Idle);
}

TEST_F(RangeFixture, S2StopUnderConjunctionIsError) {
  auto plan = make_plan(1, 2, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kC);
  EXPECT_EQ(r.step(kAc), Out::Err);
}

TEST_F(RangeFixture, S3CountsUpToUpperBound) {
  auto plan = make_plan(2, 3, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  EXPECT_EQ(r.step(kN), Out::None);
  EXPECT_EQ(r.step(kN), Out::None);
  EXPECT_EQ(r.step(kN), Out::None);
  EXPECT_EQ(r.count(), 3u);
  EXPECT_EQ(r.step(kN), Out::Err) << "v=3 exceeded";
}

TEST_F(RangeFixture, S3SiblingBelowMinIsError) {
  auto plan = make_plan(2, 3, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kN);
  EXPECT_EQ(r.step(kC), Out::Err);
}

TEST_F(RangeFixture, S3SiblingAtMinMovesToDone) {
  auto plan = make_plan(2, 3, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kN);
  r.step(kN);
  EXPECT_EQ(r.step(kC), Out::None);
  EXPECT_EQ(r.state(), State::DoneSibling);
}

TEST_F(RangeFixture, S3StopAtMinIsOk) {
  auto plan = make_plan(2, 3, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kN);
  r.step(kN);
  EXPECT_EQ(r.step(kAc), Out::Ok);
  EXPECT_EQ(r.state(), State::Idle);
}

TEST_F(RangeFixture, S3StopBelowMinIsError) {
  auto plan = make_plan(2, 3, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kN);
  EXPECT_EQ(r.step(kAc), Out::Err);
}

TEST_F(RangeFixture, S3ForbiddenNamesAreErrors) {
  for (spec::Name bad : {kAf, kB}) {
    auto plan = make_plan(1, 3, spec::Join::Conj);
    RangeRecognizer r(plan, stats);
    r.start();
    r.step(kN);
    EXPECT_EQ(r.step(bad), Out::Err);
  }
}

TEST_F(RangeFixture, S4OwnNameReopeningIsError) {
  auto plan = make_plan(1, 3, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kN);
  r.step(kC);  // -> DoneSibling
  ASSERT_EQ(r.state(), State::DoneSibling);
  EXPECT_EQ(r.step(kN), Out::Err);
}

TEST_F(RangeFixture, S4SiblingStaysAndStopIsOk) {
  auto plan = make_plan(1, 3, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kN);
  r.step(kC);
  EXPECT_EQ(r.step(kC), Out::None);
  EXPECT_EQ(r.state(), State::DoneSibling);
  EXPECT_EQ(r.step(kAc), Out::Ok);
}

TEST_F(RangeFixture, ErrorStateIsAbsorbing) {
  auto plan = make_plan(1, 1, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kB);
  ASSERT_EQ(r.state(), State::Error);
  for (spec::Name ev : {kN, kC, kAc, kAf}) {
    EXPECT_EQ(r.step(ev), Out::Err);
    EXPECT_EQ(r.state(), State::Error);
  }
  EXPECT_FALSE(r.error().empty());
}

TEST_F(RangeFixture, MinReachedTracking) {
  auto plan = make_plan(2, 4, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  EXPECT_FALSE(r.min_reached());
  r.step(kN);
  EXPECT_FALSE(r.min_reached());
  r.step(kN);
  EXPECT_TRUE(r.min_reached());
  EXPECT_TRUE(r.started_counting());
}

TEST_F(RangeFixture, ResetReturnsToIdle) {
  auto plan = make_plan(1, 1, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  r.start();
  r.step(kB);
  r.reset();
  EXPECT_EQ(r.state(), State::Idle);
  EXPECT_EQ(r.count(), 0u);
  EXPECT_TRUE(r.error().empty());
}

TEST_F(RangeFixture, SpaceBitsMatchCounterWidth) {
  MonitorStats s;
  auto p1 = make_plan(1, 1, spec::Join::Conj);     // cpt in [0,1]: 1 bit
  auto p60k = make_plan(100, 60000, spec::Join::Conj);  // 16 bits
  EXPECT_EQ(RangeRecognizer(p1, s).space_bits(), 3u + 1u);
  EXPECT_EQ(RangeRecognizer(p60k, s).space_bits(), 3u + 16u);
}

TEST_F(RangeFixture, OpsAreCounted) {
  auto plan = make_plan(1, 4, spec::Join::Conj);
  RangeRecognizer r(plan, stats);
  const auto before = stats.ops;
  r.start();
  r.step(kN);
  r.step(kN);
  EXPECT_GT(stats.ops, before);
}

TEST(RangeStateNames, AllDistinct) {
  EXPECT_STREQ(to_string(State::Idle), "s0/idle");
  EXPECT_STREQ(to_string(State::Error), "s5/error");
}

}  // namespace
}  // namespace loom::mon
