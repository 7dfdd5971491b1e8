// Differential lockdown of the zero-allocation steady state: a campaign
// run out of per-worker scratch arenas (reusable mutant buffers via
// mutate_into, per-shard monitor pools for valid and mutation units, the
// resumable reference oracle) must be byte-for-byte identical to the
// reference campaign, which allocates a fresh mutant, monitor and oracle
// plan for every check — for every backend, at every thread count and
// shard size.  Plus unit lockdowns of the pieces: mutate_into ≡ mutate
// under a dirty reused scratch, and the cross-campaign
// mon::CompiledPropertyCache (hit/miss accounting, stable references,
// alias rules of the normalized key).
#include <gtest/gtest.h>

#include "abv/campaign.hpp"
#include "abv/mutate.hpp"
#include "mon/compiled.hpp"
#include "mon/monitors.hpp"
#include "spec/reference.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

using loom::testing::CampaignRun;
using loom::testing::matches_reference;

constexpr mon::Backend kBackends[] = {
    mon::Backend::Auto, mon::Backend::Drct, mon::Backend::ViaPSL,
    mon::Backend::Vm};

constexpr MutationKind kKinds[] = {
    MutationKind::Drop, MutationKind::Duplicate, MutationKind::SwapAdjacent,
    MutationKind::EarlyTrigger, MutationKind::StallDeadline};

CampaignOptions options_for(mon::Backend backend, std::size_t threads,
                            std::size_t shard_size = 1, bool viapsl = false) {
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 3;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 6;
  opt.check_viapsl = viapsl;
  opt.backend = backend;
  loom::testing::scalar_lanes_if_forced(opt);
  opt.threads = threads;
  opt.shard_size = shard_size;
  return opt;
}

class CampaignScratchDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(CampaignScratchDiff, ScratchEqualsFreshByteForByte) {
  // The fourth engine invariant: scratch/pooled ≡ fresh at any thread
  // count, backend and shard size (which decides how many units share one
  // pooled monitor).  The fresh-allocating reference is computed once per
  // backend and every production variant must match it.
  for (const mon::Backend backend : kBackends) {
    const CampaignRun fresh =
        loom::testing::run_reference(GetParam(), options_for(backend, 1));
    for (const std::size_t shard_size : {std::size_t{1}, std::size_t{6}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const CampaignRun scratch = loom::testing::run_production(
            GetParam(), options_for(backend, threads, shard_size));
        const std::string what = std::string("backend=") + to_string(backend) +
                                 " threads=" + std::to_string(threads) +
                                 " shard_size=" + std::to_string(shard_size);
        EXPECT_TRUE(matches_reference(scratch, fresh)) << what;
      }
    }
  }
}

TEST_P(CampaignScratchDiff, ScratchIsDeterministicAcrossThreadCounts) {
  // The per-shard pool keeps even the instance diagnostics a pure function
  // of the deterministic shard layout, never of worker scheduling: serial
  // and 4-thread runs agree counter-for-counter at every shard size.
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{5}}) {
    const CampaignRun serial = loom::testing::run_production(
        GetParam(), options_for(mon::Backend::Auto, 1, shard_size));
    const CampaignRun parallel = loom::testing::run_production(
        GetParam(), options_for(mon::Backend::Auto, 4, shard_size));
    const std::string what = "shard_size=" + std::to_string(shard_size);
    EXPECT_EQ(parallel.report, serial.report) << what;
    EXPECT_EQ(parallel.result.compile_stats.instances_stamped,
              serial.result.compile_stats.instances_stamped)
        << what;
    EXPECT_EQ(parallel.result.compile_stats.instance_reuses,
              serial.result.compile_stats.instance_reuses)
        << what;
  }
}

TEST_P(CampaignScratchDiff, PoolingConservesTheLogicalDrawCount) {
  // Pooling changes how often a draw stamps vs resets, never how many
  // monitors the work logically needed: stamped + reused equals one draw
  // per valid unit plus one per replayed mutant — the monitors the
  // reference builds fresh — at every shard size.
  std::size_t reuses_unpooled = 0;
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{6}}) {
    const CampaignRun scratch = loom::testing::run_production(
        GetParam(), options_for(mon::Backend::Auto, 1, shard_size));
    EXPECT_EQ(scratch.result.compile_stats.instances_stamped +
                  scratch.result.compile_stats.instance_reuses,
              loom::testing::logical_draws(scratch.result))
        << "shard_size=" << shard_size;
    if (shard_size == 1) {
      reuses_unpooled = scratch.result.compile_stats.instance_reuses;
    } else {
      // Units sharing a shard now share instances — the pool must actually
      // reuse (this property has 4 valid units alone).
      EXPECT_GT(scratch.result.compile_stats.instance_reuses, reuses_unpooled)
          << "shard_size=" << shard_size;
    }
  }
}

TEST_P(CampaignScratchDiff, ViaPslCrossCheckPoolsTheSharedInstance) {
  const CampaignRun fresh = loom::testing::run_reference(
      GetParam(), options_for(mon::Backend::Drct, 1, /*shard_size=*/6,
                              /*viapsl=*/true));
  const CampaignRun scratch = loom::testing::run_production(
      GetParam(), options_for(mon::Backend::Drct, 4, /*shard_size=*/6,
                              /*viapsl=*/true));
  EXPECT_TRUE(matches_reference(scratch, fresh));
  EXPECT_EQ(scratch.result.compile_stats.viapsl_encodings, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignScratchDiff,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

// --- mutate_into ≡ mutate under a dirty, reused scratch -------------------

class MutateIntoFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(MutateIntoFuzz, ByteIdenticalToMutateAcrossKindsAndSeeds) {
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(GetParam(), ab);
  const spec::NameSet alphabet = property.alphabet();
  StimuliOptions sopt;
  sopt.rounds = 4;
  sopt.noise_permille = 150;

  // One scratch per in-place form for the whole fuzz: every call sees
  // whatever the previous kind/seed left behind — sizes, times and names
  // all differ, so a leak of stale bytes would surface as a trace mismatch.
  // The sites form draws from a per-seed index, the way the campaign
  // engine indexes a unit once and draws all of its mutants from it.
  MutationResult scratch;
  MutationResult by_sites;
  std::vector<std::size_t> sites;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng gen_rng = support::Rng::stream(seed, 0);
    const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
    mutation_sites_into(valid, alphabet, sites);
    for (const MutationKind kind : kKinds) {
      // Identical streams: the contract says identical Rng consumption.
      support::Rng rng_a = support::Rng::stream(seed, 7);
      support::Rng rng_b = support::Rng::stream(seed, 7);
      support::Rng rng_c = support::Rng::stream(seed, 7);
      for (int round = 0; round < 8; ++round) {
        const auto fresh = mutate(valid, kind, property, rng_a);
        const bool applied =
            mutate_into(valid, kind, property, alphabet, rng_b, scratch);
        const bool indexed =
            mutate_into(valid, sites, kind, property, rng_c, by_sites);
        const std::string what = std::string(to_string(kind)) + " seed=" +
                                 std::to_string(seed) + " round=" +
                                 std::to_string(round);
        ASSERT_EQ(applied, fresh.has_value()) << what;
        ASSERT_EQ(indexed, applied) << what;
        if (!applied) continue;
        for (const MutationResult* in_place : {&scratch, &by_sites}) {
          EXPECT_EQ(in_place->kind, fresh->kind) << what;
          EXPECT_EQ(in_place->position, fresh->position) << what;
          EXPECT_TRUE(
              loom::testing::traces_equal(in_place->trace, fresh->trace, ab))
              << what;
        }
        // And the streams must still agree for the *next* draw.
        const std::uint64_t next = rng_a.next();
        EXPECT_EQ(rng_b.next(), next) << what;
        EXPECT_EQ(rng_c.next(), next) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Properties, MutateIntoFuzz,
    ::testing::Values("(n << i, true)",
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

TEST(MutationSites, AscendingInAlphabetIndicesOfAHandTrace) {
  spec::Alphabet ab;
  const spec::Property property =
      loom::testing::parse("(({a, b}, &) << s, true)", ab);
  const spec::Trace trace = loom::testing::trace_of("x a y b a s z", ab);
  // Dirty on entry: the index is cleared, never appended to.
  std::vector<std::size_t> sites = {99, 7};
  mutation_sites_into(trace, property.alphabet(), sites);
  EXPECT_EQ(sites, (std::vector<std::size_t>{1, 3, 4, 5}));

  mutation_sites_into(spec::Trace{}, property.alphabet(), sites);
  EXPECT_TRUE(sites.empty());

  // A trace with no in-alphabet event has no site, so only the kinds that
  // do not draw from the index can apply.
  const spec::Trace noise = loom::testing::trace_of("x y z", ab);
  mutation_sites_into(noise, property.alphabet(), sites);
  EXPECT_TRUE(sites.empty());
  MutationResult out;
  support::Rng rng = support::Rng::stream(1, 1);
  EXPECT_FALSE(
      mutate_into(noise, sites, MutationKind::Drop, property, rng, out));
  EXPECT_FALSE(
      mutate_into(noise, sites, MutationKind::Duplicate, property, rng, out));
  EXPECT_FALSE(mutate_into(noise, sites, MutationKind::SwapAdjacent, property,
                           rng, out));
  EXPECT_TRUE(mutate_into(noise, sites, MutationKind::EarlyTrigger, property,
                          rng, out));
}

// --- plan-reusing reference oracle ----------------------------------------

TEST(ReferencePlanReuse, PlanOverloadMatchesThePlanningOverload) {
  spec::Alphabet ab;
  for (const char* source :
       {"(({a, b, c}, &) << s, true)", "(p[2,3] => q[1,4] < r, 10us)"}) {
    const spec::Property p = loom::testing::parse(source, ab);
    const auto compiled = mon::CompiledProperty::compile(p, ab);
    StimuliOptions sopt;
    sopt.rounds = 3;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      support::Rng rng = support::Rng::stream(seed, 0);
      spec::Trace t = generate_valid(p, ab, rng, sopt);
      // Perturb the tail so rejected runs are exercised too.
      if (t.size() > 2) t.erase(t.begin() + static_cast<long>(t.size() / 2));
      const sim::Time end = t.empty() ? sim::Time::zero() : t.back().time;
      const auto planned = spec::reference_check(p, t, end);
      const auto reused = spec::reference_check(p, compiled.plan(), t, end);
      EXPECT_EQ(planned.verdict, reused.verdict) << source;
      EXPECT_EQ(planned.error_index, reused.error_index) << source;
      EXPECT_EQ(planned.reason, reused.reason) << source;
    }
  }
}

// --- mon::CompiledPropertyCache -------------------------------------------

TEST(CompiledPropertyCache, CompilesOncePerKeyAndHandsOutStableEntries) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  mon::CompiledPropertyCache cache;

  bool inserted = false;
  const mon::CompiledProperty& first = cache.get_or_compile(p, ab, {},
                                                            &inserted);
  EXPECT_TRUE(inserted);
  const mon::CompiledProperty& second = cache.get_or_compile(p, ab, {},
                                                             &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(&first, &second);          // stable reference, shared artifacts
  EXPECT_EQ(&first.plan(), &second.plan());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A different backend is a different key (it changes the artifacts).
  mon::CompileOptions viapsl;
  viapsl.backend = mon::Backend::ViaPSL;
  const mon::CompiledProperty& forced = cache.get_or_compile(p, ab, viapsl);
  EXPECT_EQ(forced.chosen(), mon::Backend::ViaPSL);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CompiledPropertyCache, KeyIncludesNameBindingsAndOptions) {
  // Two alphabets interning the same names in different orders render the
  // same normalized text over different ids — the key must not alias them.
  spec::Alphabet ab1;
  const spec::Property p1 = loom::testing::parse("(a < b << s, true)", ab1);
  spec::Alphabet ab2;
  ab2.name("zzz");  // shift every later id
  const spec::Property p2 = loom::testing::parse("(a < b << s, true)", ab2);
  EXPECT_NE(mon::CompiledPropertyCache::key_of(p1, ab1, {}),
            mon::CompiledPropertyCache::key_of(p2, ab2, {}));

  mon::CompileOptions tight;
  tight.max_clauses = 7;
  EXPECT_NE(mon::CompiledPropertyCache::key_of(p1, ab1, {}),
            mon::CompiledPropertyCache::key_of(p1, ab1, tight));
  mon::CompileOptions artifact;
  artifact.with_viapsl_artifact = true;
  EXPECT_NE(mon::CompiledPropertyCache::key_of(p1, ab1, {}),
            mon::CompiledPropertyCache::key_of(p1, ab1, artifact));
  // Same property, same alphabet, same options: same key.
  EXPECT_EQ(mon::CompiledPropertyCache::key_of(p1, ab1, {}),
            mon::CompiledPropertyCache::key_of(p1, ab1, {}));
}

TEST(CompiledPropertyCache, RepeatedCampaignsSkipRecompilation) {
  const char* sources[] = {"(n << i, true)", "(p[2,3] => q[1,4] < r, 10us)"};
  spec::Alphabet ab;
  std::vector<spec::Property> props;
  for (const char* s : sources) props.push_back(loom::testing::parse(s, ab));
  std::vector<const spec::Property*> ptrs;
  for (const auto& p : props) ptrs.push_back(&p);

  CampaignOptions opt;
  opt.seeds = 3;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 4;
  opt.threads = 2;
  opt.shard_size = 1;
  const auto uncached = run_campaigns(ptrs, ab, opt);

  mon::CompiledPropertyCache cache;
  opt.plan_cache = &cache;
  const auto first = run_campaigns(ptrs, ab, opt);
  const auto second = run_campaigns(ptrs, ab, opt);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);

  for (std::size_t i = 0; i < 2; ++i) {
    // The cache is invisible in the semantic result and the report.
    EXPECT_TRUE(loom::testing::results_identical(first[i], uncached[i])) << i;
    EXPECT_TRUE(loom::testing::results_identical(second[i], uncached[i])) << i;
    EXPECT_EQ(second[i].report(ab), uncached[i].report(ab)) << i;
    // First campaign compiles (miss), every later one reuses (hit).
    EXPECT_EQ(first[i].compile_stats.plan_cache_misses, 1u) << i;
    EXPECT_EQ(first[i].compile_stats.plan_cache_hits, 0u) << i;
    EXPECT_EQ(first[i].compile_stats.plans_built, 1u) << i;
    EXPECT_EQ(second[i].compile_stats.plan_cache_hits, 1u) << i;
    EXPECT_EQ(second[i].compile_stats.plan_cache_misses, 0u) << i;
    EXPECT_EQ(second[i].compile_stats.plans_built, 0u) << i;
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

}  // namespace
}  // namespace loom::abv
