// support::AllocCounter under the replacement operators of
// src/support/alloc_hooks.cpp (this target opts in via CMake): the tally
// moves with new/delete, Scope windows are per-thread, and — the
// regression the counters exist to guard — a warmed mutate_into scratch
// mutates without touching the heap at all.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "support/alloc_counter.hpp"
#include "testing.hpp"

namespace loom::support {
namespace {

TEST(AllocCounter, HooksAreLinkedIntoThisBinary) {
  EXPECT_TRUE(AllocCounter::hooks_linked());
}

TEST(AllocCounter, ScopeSeesThisThreadsAllocations) {
  AllocCounter::Scope scope;
  {
    std::vector<std::uint64_t> v;
    v.reserve(1024);
    EXPECT_GE(scope.allocs(), 1u);
    EXPECT_GE(scope.bytes(), 1024u * sizeof(std::uint64_t));
  }
  EXPECT_GE(scope.frees(), 1u);
}

TEST(AllocCounter, TalliesAreThreadLocal) {
  AllocCounter::Scope scope;
  const std::uint64_t before = scope.allocs();
  std::thread worker([] {
    AllocCounter::Scope inner;
    std::vector<int> v(4096, 7);
    EXPECT_GE(inner.allocs(), 1u);
  });
  worker.join();
  // The worker's vector never shows up in this thread's window (the join
  // machinery itself allocates nothing on this side with libstdc++; allow
  // the thread object's control block, created before the window? no — it
  // was created inside the window, so tolerate exactly that).
  EXPECT_LE(scope.allocs() - before, 4u);
}

TEST(AllocCounter, WarmedMutateIntoScratchIsAllocationFree) {
  // The zero-allocation steady state, as a hard guarantee rather than a
  // benchmark printout: after one warming call per mutation kind, every
  // further mutate_into into the same scratch performs zero heap
  // allocations — any regression (a stray copy, a vector regrowth, a
  // diagnostic string) fails this test.
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const spec::NameSet alphabet = property.alphabet();
  abv::StimuliOptions sopt;
  sopt.rounds = 8;
  support::Rng gen = support::Rng::stream(3, 0);
  const spec::Trace valid = abv::generate_valid(property, ab, gen, sopt);

  constexpr abv::MutationKind kKinds[] = {
      abv::MutationKind::Drop, abv::MutationKind::Duplicate,
      abv::MutationKind::SwapAdjacent, abv::MutationKind::EarlyTrigger,
      abv::MutationKind::StallDeadline};

  // Both in-place forms, the sites form driven the way the campaign engine
  // drives it: the site index is rebuilt into its warm buffer per unit,
  // then drawn from for every mutant.
  abv::MutationResult scratch;
  std::vector<std::size_t> sites;
  support::Rng rng = support::Rng::stream(3, 1);
  abv::mutation_sites_into(valid, alphabet, sites);
  for (const auto kind : kKinds) {  // warm the buffers + the site indexes
    (void)abv::mutate_into(valid, kind, property, alphabet, rng, scratch);
    (void)abv::mutate_into(valid, sites, kind, property, rng, scratch);
  }

  AllocCounter::Scope scope;
  std::size_t applied = 0;
  for (int round = 0; round < 16; ++round) {
    abv::mutation_sites_into(valid, alphabet, sites);
    for (const auto kind : kKinds) {
      if (abv::mutate_into(valid, kind, property, alphabet, rng, scratch)) {
        ++applied;
      }
      if (abv::mutate_into(valid, sites, kind, property, rng, scratch)) {
        ++applied;
      }
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(scope.allocs(), 0u) << "steady-state mutate_into touched the heap";
}

// The campaign-level form of the same guarantee: a campaign's heap
// traffic is per seed and per unit (traces, ladders, scratch warm-up),
// never per mutant.  The same four properties and seeds run at 16 and at
// 64 mutants per kind, on each backend, and must allocate equally often —
// a violation report, an oracle check or a wave that allocated would add
// per-mutant heap calls to the larger run.
TEST(AllocCounter, CampaignAllocationsDoNotGrowWithMutantsPerKind) {
  constexpr const char* kSources[] = {
      "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
      "(p[2,3] => q[1,4] < r, 1ms)",
      "(n << i, true)",
  };
  for (const mon::Backend backend :
       {mon::Backend::Auto, mon::Backend::Drct, mon::Backend::ViaPSL}) {
    spec::Alphabet ab;
    std::vector<spec::Property> props;
    for (const char* s : kSources) props.push_back(loom::testing::parse(s, ab));
    std::vector<const spec::Property*> ptrs;
    for (const auto& p : props) ptrs.push_back(&p);
    mon::CompiledPropertyCache plans;
    const auto allocs_at = [&](std::size_t mutants) {
      abv::CampaignOptions o;
      o.plan_cache = &plans;
      o.seeds = 6;
      o.stimuli.rounds = 5;
      o.stimuli.noise_permille = 100;
      o.mutants_per_kind = mutants;
      o.threads = 1;
      o.backend = backend;
      if (backend != mon::Backend::Auto) o.lane_width = 1;
      // A first run interns the stimuli names, compiles the plans into the
      // shared cache and warms this thread's scratch, as an earlier
      // campaign in the process would have.
      (void)abv::run_campaigns(ptrs, ab, o);
      AllocCounter::Scope scope;
      const auto results = abv::run_campaigns(ptrs, ab, o);
      std::size_t applied = 0;
      for (const auto& r : results) {
        for (const auto& m : r.mutation) applied += m.applied;
      }
      EXPECT_GT(applied, mutants) << mon::to_string(backend);
      return scope.allocs();
    };
    const std::uint64_t few = allocs_at(16);
    const std::uint64_t many = allocs_at(64);
    EXPECT_EQ(many, few) << mon::to_string(backend);
  }
}

}  // namespace
}  // namespace loom::support
