// Differential lockdown of lane-batched mutant waves — the eighth engine
// invariant: a campaign that fills a wave of up to lane_width mutants per
// (seed, property, kind) unit and replays them through VmLaneBatch in
// block-lockstep must be byte-for-byte identical to the scalar
// one-mutant-at-a-time engine and to the reference campaign — at every
// lane width, every thread count, every worker count, with the checkpoint
// ladder on or off and the workers' frame deadline armed or not.  Plus
// lockdowns of the guard rails (a
// forced non-Vm backend cannot be combined with waves, width zero is
// rejected), of the lane counters (scheduling-independent, wire-exact,
// zero on the scalar path), and of the report surface (wave diagnostics
// land in the opt-in report only).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "abv/campaign.hpp"
#include "testing.hpp"
#include "wire/payload.hpp"
#include "wire/wire.hpp"

namespace loom::abv {
namespace {

using loom::testing::CampaignRun;
using loom::testing::matches_reference;

struct LaneConfig {
  mon::Backend backend = mon::Backend::Auto;
  std::size_t lane_width = 1;
  std::size_t threads = 1;
  std::size_t workers = 0;
  std::size_t checkpoint_stride = 32;
  std::size_t worker_timeout_ms = 0;
};

CampaignOptions options_for(const LaneConfig& s) {
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 4;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 6;
  opt.backend = s.backend;
  opt.lane_width = s.lane_width;
  opt.threads = s.threads;
  opt.workers = s.workers;
  opt.checkpoint_stride = s.checkpoint_stride;
  opt.worker_timeout_ms = s.worker_timeout_ms;
  return opt;
}

CampaignRun run_with(const char* source, const LaneConfig& s) {
  return loom::testing::run_production(source, options_for(s));
}

std::string describe(const LaneConfig& s) {
  return std::string("backend=") + to_string(s.backend) +
         " lanes=" + std::to_string(s.lane_width) +
         " threads=" + std::to_string(s.threads) +
         " workers=" + std::to_string(s.workers) +
         " stride=" + std::to_string(s.checkpoint_stride) +
         " timeout_ms=" + std::to_string(s.worker_timeout_ms);
}

class CampaignLaneDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(CampaignLaneDiff, LaneBatchedEqualsScalarByteForByte) {
  // The eighth engine invariant across the width grid: the scalar run
  // (lane_width 1, the per-mutant stepping loop) is computed once per
  // backend and every wave variant — any width, any thread count, any
  // worker count — must match it byte for byte, report text included;
  // both must match the reference campaign.
  // Widths straddle the unit size (6 mutants per kind): 2 and 3 flush
  // multiple full waves, 8 runs one partial wave, 13 exceeds every unit.
  for (const mon::Backend backend : {mon::Backend::Auto, mon::Backend::Vm}) {
    LaneConfig scalar;
    scalar.backend = backend;
    const CampaignRun baseline = run_with(GetParam(), scalar);
    const CampaignRun reference =
        loom::testing::run_reference(GetParam(), options_for(scalar));
    EXPECT_TRUE(matches_reference(baseline, reference)) << describe(scalar);
    EXPECT_EQ(baseline.result.lane_waves, 0u) << describe(scalar);
    EXPECT_EQ(baseline.result.lanes_filled, 0u) << describe(scalar);
    for (const std::size_t width : {std::size_t{2}, std::size_t{3},
                                    std::size_t{8}, std::size_t{13}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
          LaneConfig s;
          s.backend = backend;
          s.lane_width = width;
          s.threads = threads;
          s.workers = workers;
          const CampaignRun waved = run_with(GetParam(), s);
          EXPECT_TRUE(matches_reference(waved, baseline)) << describe(s);
          EXPECT_TRUE(matches_reference(waved, reference)) << describe(s);
          // Waves actually ran, and the occupancy accounting is coherent:
          // a lane is filled at most once per wave slot.
          EXPECT_GT(waved.result.lane_waves, 0u) << describe(s);
          EXPECT_GT(waved.result.lanes_filled, 0u) << describe(s);
          EXPECT_LE(waved.result.lanes_filled, waved.result.lane_capacity)
              << describe(s);
          EXPECT_EQ(waved.result.lane_capacity,
                    waved.result.lane_waves * width)
              << describe(s);
        }
      }
    }
  }
}

TEST_P(CampaignLaneDiff, WavesStayIdenticalUnderReplayAndSupervisionKnobs) {
  // The wave scheduler sits on top of the checkpoint ladder and below the
  // worker supervisor; a zero stride or an armed frame deadline must not
  // leak into the bytes.
  const CampaignRun reference =
      loom::testing::run_reference(GetParam(), options_for(LaneConfig{}));
  for (const std::size_t stride : {std::size_t{0}, std::size_t{32}}) {
    for (const std::size_t timeout_ms : {std::size_t{0}, std::size_t{10000}}) {
      LaneConfig scalar;
      scalar.checkpoint_stride = stride;
      scalar.worker_timeout_ms = timeout_ms;
      const CampaignRun baseline = run_with(GetParam(), scalar);
      EXPECT_TRUE(matches_reference(baseline, reference)) << describe(scalar);
      for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
        LaneConfig s = scalar;
        s.lane_width = width;
        s.threads = 4;
        s.workers = 2;
        const CampaignRun waved = run_with(GetParam(), s);
        EXPECT_TRUE(matches_reference(waved, reference)) << describe(s);
      }
    }
  }
}

TEST_P(CampaignLaneDiff, LaneCountersAreSchedulingIndependent) {
  // lane_waves / lanes_filled / lane_capacity are engine diagnostics, but
  // like the checkpoint counters they must be a pure function of the
  // campaign parameters: serial, threaded and cross-process runs agree
  // counter for counter — the wave layout follows the unit layout, never
  // the schedule.
  LaneConfig serial;
  serial.lane_width = 8;
  const CampaignRun a = run_with(GetParam(), serial);
  LaneConfig scattered = serial;
  scattered.threads = 4;
  scattered.workers = 2;
  const CampaignRun b = run_with(GetParam(), scattered);
  EXPECT_EQ(a.result.lane_waves, b.result.lane_waves);
  EXPECT_EQ(a.result.lanes_filled, b.result.lanes_filled);
  EXPECT_EQ(a.result.lane_capacity, b.result.lane_capacity);
  EXPECT_EQ(a.report, b.report);
}

TEST_P(CampaignLaneDiff, WireRoundTripPreservesWavedResultsExactly) {
  // A waved result that crosses the wire as a worker partial must keep
  // every counter a shard sets — the semantic fields and the lane counters
  // alike.  This is the seam the sixth invariant leans on when workers
  // wave.  The partial does not carry what run_campaigns fills in itself
  // (coverage ratios, plan-compilation stats, backends); restoring exactly
  // those from the original must reproduce it field for field.
  LaneConfig s;
  s.lane_width = 8;
  const CampaignRun waved = run_with(GetParam(), s);
  ASSERT_GT(waved.result.lane_waves, 0u);

  wire::WorkerPartialData part;
  part.partial = waved.result;
  wire::Encoder e;
  wire::encode_worker_partial(e, part);
  wire::Decoder d(e.bytes());
  wire::WorkerPartialData back_part;
  ASSERT_TRUE(wire::decode_worker_partial(d, back_part))
      << d.error().to_string();
  ASSERT_TRUE(d.exhausted());
  CampaignResult back = back_part.partial;
  EXPECT_EQ(back.lane_waves, waved.result.lane_waves);
  EXPECT_EQ(back.lanes_filled, waved.result.lanes_filled);
  EXPECT_EQ(back.lane_capacity, waved.result.lane_capacity);
  EXPECT_EQ(back.compile_stats.instances_stamped,
            waved.result.compile_stats.instances_stamped);
  EXPECT_EQ(back.compile_stats.instance_reuses,
            waved.result.compile_stats.instance_reuses);

  back.alphabet_coverage = waved.result.alphabet_coverage;
  back.recognizer_state_coverage = waved.result.recognizer_state_coverage;
  back.compile_stats.plans_built = waved.result.compile_stats.plans_built;
  back.compile_stats.viapsl_encodings =
      waved.result.compile_stats.viapsl_encodings;
  back.compile_stats.plan_cache_hits =
      waved.result.compile_stats.plan_cache_hits;
  back.compile_stats.plan_cache_misses =
      waved.result.compile_stats.plan_cache_misses;
  back.compile_stats.backend_requested =
      waved.result.compile_stats.backend_requested;
  back.compile_stats.backend_chosen = waved.result.compile_stats.backend_chosen;
  EXPECT_TRUE(loom::testing::results_identical(back, waved.result));
  spec::Alphabet ab;  // report text regenerates from the decoded counters
  EXPECT_EQ(back.report(ab, true), waved.result.report(ab, true));
}

TEST_P(CampaignLaneDiff, WaveDiagnosticsLandInTheOptInReportOnly) {
  LaneConfig s;
  s.lane_width = 8;
  const CampaignRun waved = run_with(GetParam(), s);
  EXPECT_EQ(waved.report.find("lanes:"), std::string::npos);
  spec::Alphabet ab;
  const std::string diag = waved.result.report(ab, true);
  EXPECT_NE(diag.find("lanes:"), std::string::npos);
  EXPECT_NE(diag.find("waves"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignLaneDiff,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

// ---------------------------------------------------------------------------
// Guard rails: the knob space that cannot wave is rejected up front with a
// diagnostic, never silently degraded or left to crash mid-campaign.

TEST(CampaignLaneDiffGuards, ForcedNonVmBackendRejectsWaveWidths) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(n << i, true)", ab);
  for (const mon::Backend backend :
       {mon::Backend::Drct, mon::Backend::ViaPSL}) {
    CampaignOptions opt;
    opt.seeds = 1;
    opt.mutants_per_kind = 1;
    opt.backend = backend;
    opt.lane_width = 2;
    try {
      run_campaign(p, ab, opt);
      FAIL() << "expected std::invalid_argument for backend="
             << to_string(backend);
    } catch (const std::invalid_argument& err) {
      // The diagnostic names both the conflict and the two ways out.
      const std::string what = err.what();
      EXPECT_NE(what.find("Vm backend"), std::string::npos) << what;
      EXPECT_NE(what.find(to_string(backend)), std::string::npos) << what;
      EXPECT_NE(what.find("lane_width=1"), std::string::npos) << what;
    }
  }
  // Auto is not a forced backend: any width is accepted, and the engine
  // simply runs scalar wherever Auto resolves away from the VM.
  CampaignOptions opt;
  opt.seeds = 1;
  opt.mutants_per_kind = 1;
  opt.lane_width = 13;
  EXPECT_TRUE(run_campaign(p, ab, opt).ok());
}

TEST(CampaignLaneDiffGuards, ZeroLaneWidthIsRejected) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(n << i, true)", ab);
  CampaignOptions opt;
  opt.seeds = 1;
  opt.mutants_per_kind = 1;
  opt.lane_width = 0;
  EXPECT_THROW(run_campaign(p, ab, opt), std::invalid_argument);
}

TEST(CampaignLaneDiffGuards, ScalarConfigurationsNeverWave) {
  // lane_width 1 and non-Vm resolutions keep the wave counters at zero —
  // bench_compare.py treats lane_occupancy as semantic, so a scalar
  // baseline must not report phantom occupancy.
  spec::Alphabet ab;
  auto p = loom::testing::parse("(n << i, true)", ab);
  CampaignOptions opt;
  opt.seeds = 2;
  opt.mutants_per_kind = 4;
  opt.lane_width = 1;
  const CampaignResult scalar = run_campaign(p, ab, opt);
  EXPECT_EQ(scalar.lane_waves, 0u);
  EXPECT_EQ(scalar.lanes_filled, 0u);
  EXPECT_EQ(scalar.lane_capacity, 0u);

  CampaignOptions drct = opt;
  drct.backend = mon::Backend::Drct;
  const CampaignResult forced = run_campaign(p, ab, drct);
  EXPECT_EQ(forced.lane_waves, 0u);
  EXPECT_EQ(forced.lane_capacity, 0u);
}

}  // namespace
}  // namespace loom::abv
