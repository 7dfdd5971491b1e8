#include "abv/campaign.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "mon/antecedent_monitor.hpp"
#include "mon/snapshot.hpp"
#include "mon/vm.hpp"
#include "psl/clause_monitor.hpp"
#include "spec/parser.hpp"
#include "support/thread_pool.hpp"
#include "support/trace_cache.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"

#if LOOM_WIRE_HAS_PROCESS
#include <csignal>
#include <poll.h>
#include <unistd.h>
#endif

namespace loom::abv {
namespace {

constexpr MutationKind kAllKinds[5] = {
    MutationKind::Drop, MutationKind::Duplicate, MutationKind::SwapAdjacent,
    MutationKind::EarlyTrigger, MutationKind::StallDeadline};

// A work unit is one cell of the sharded campaign space: slot 0 is a seed's
// valid-stimuli phase, slots 1..5 are the seed's batch of one mutation
// kind.  Units are independent by construction — each derives its own Rng
// stream from (seed, slot) — which is what makes the reduction
// order-independent and the engine deterministic under any thread count.
constexpr std::size_t kSlotsPerSeed = 6;

sim::Time end_of(const spec::Trace& t) {
  return t.empty() ? sim::Time::zero() : t.back().time;
}

// One per-seed cache entry, built by a single walk over the seed's valid
// trace: a throwaway monitor of the chosen backend and a reference cursor
// observe the trace once, recording
//   - unless checkpoint_stride is 0, the checkpoint ladder: checkpoints[k]
//     is the monitor state and oracle_rungs[k] the oracle state after the
//     first (k+1)*stride events; a mutant whose divergence position p
//     admits a floor rung resumes both from rung p/stride - 1 and walks
//     only the suffix;
//   - the valid phase's outcome: both verdicts, the monitor's Figure-6
//     stats, the alphabet names the trace hit, the Drct recognizer
//     coverage and, under check_viapsl, the ViaPSL cross-check.
// The entry is a pure function of (property, seed, options) — reset ≡
// fresh makes the walking instance irrelevant — so it is deterministic no
// matter which unit's lookup builds it, and read-only once published.
struct SeedEntry {
  spec::Trace trace;
  std::vector<mon::Snapshot> checkpoints;
  std::vector<spec::RefCursor> oracle_rungs;  // parallel to checkpoints
  std::size_t stride = 0;  // 0: no ladder (checkpoint_stride 0)

  bool monitor_violated = false;
  bool oracle_rejected = false;
  mon::MonitorStats stats;
  spec::NameSet seen;  // the property-alphabet names the trace contains
  // Drct antecedents only (a ViaPSL or Vm monitor has no recognizer
  // structure to sample); detached.
  std::optional<RecognizerCoverage> recognizer;
  bool viapsl_violated = false;  // check_viapsl only
  mon::MonitorStats viapsl_stats;
};

// Where a trace sharing its first `position` events with the valid trace
// resumes: the highest rung at or below the position (both null, begin 0,
// without a ladder or below the first rung).
struct FloorRung {
  const mon::Snapshot* snapshot = nullptr;
  const spec::RefCursor* oracle = nullptr;
  std::size_t begin = 0;  // first event the rung does not cover
};

FloorRung floor_rung(const SeedEntry* ladder, std::size_t position) {
  if (ladder == nullptr) return {};
  const std::size_t rungs =
      std::min(position / ladder->stride, ladder->checkpoints.size());
  if (rungs == 0) return {};
  return {&ladder->checkpoints[rungs - 1], &ladder->oracle_rungs[rungs - 1],
          rungs * ladder->stride};
}

// Per-seed entry cache shared by every worker of one run_campaigns() call:
// keyed by (job, seed) so batch runs over several properties never alias,
// built on first touch by whichever of the seed's six units gets there
// first.
using SeedEntryCache = support::TraceCache<SeedEntry>;

// Accumulator local to one shard; merged into the campaign result in shard
// index order after the pool drains.
struct ShardOutcome {
  CampaignResult partial;
  std::optional<AlphabetCoverage> alphabet;
  std::optional<RecognizerCoverage> recognizer;
};

struct Shard {
  std::size_t job = 0;
  std::size_t unit_begin = 0;  // within the job's seeds×slots space
  std::size_t unit_end = 0;
};

}  // namespace

// Per-worker scratch arena for the steady-state loop.  Two lifetimes
// coexist inside it:
//   - the *buffers* live for the worker: each mutant slot's trace capacity
//     ratchets up once and every later mutate_into reuses it;
//   - the *pool* (monitor, ViaPSL cross-check instance) is scoped to one
//     shard: begin_shard() drops it, so the draw/stamp accounting is a pure
//     function of the deterministic shard layout and never of which worker
//     ran which shard — that is what keeps the instance counters identical
//     between serial and parallel runs.
struct UnitScratch {
  // The unit's mutation site index (abv::mutation_sites_into over the seed
  // trace): recomputed at the top of every mutation unit, then shared by
  // all of the unit's mutants — only its capacity carries over.
  std::vector<std::size_t> sites;
  std::unique_ptr<mon::Monitor> monitor;  // chosen-backend pool slot
  std::unique_ptr<mon::Monitor> viapsl;   // check_viapsl pool slot

  // Wave arena (run_mutation_unit): reusable mutant slots — one per lane
  // of the widest wave so far, each ratcheting its trace capacity — plus
  // the per-wave trace/start/rung scatter vectors and, on Vm waves wider
  // than one mutant, the VmLaneBatch they run through.  Unlike the monitor
  // pool the batch survives shard boundaries: it borrows nothing (it
  // shares ownership of the program) and carries no draw accounting, so
  // the unit just rebuilds it whenever the shard's program or the lane
  // width differs from what it was built for — every lane is restored or
  // reset before it runs either way.
  std::vector<MutationResult> lane_mutants;
  std::unique_ptr<mon::VmLaneBatch> lane_batch;
  std::vector<const spec::Trace*> lane_traces;
  std::vector<std::size_t> lane_starts;
  std::vector<const mon::Snapshot*> lane_rungs;

  // The reference oracle's working cursor: bound or assigned from a ladder
  // rung before every check and every seed-entry build, so only its buffer
  // capacity carries over between uses (and a plan pointer left over from
  // an earlier campaign is never read).
  spec::RefCursor oracle;

  // The seed-entry build's walking instances (build_seed_entry): stamped
  // on a shard's first build, reset for every later one.  They are never
  // drawn, so they carry no accounting; a shard runs one job, so a stamped
  // instance always matches the job being built.
  std::unique_ptr<mon::Monitor> entry_monitor;  // chosen backend
  std::unique_ptr<mon::Monitor> entry_viapsl;   // check_viapsl
  mon::Monitor& entry_instance(std::unique_ptr<mon::Monitor>& slot,
                               const PropertyPlan& job,
                               mon::Backend backend) {
    if (slot == nullptr) {
      slot = job.compiled.instantiate(backend);
    } else {
      slot->reset();
    }
    return *slot;
  }

  /// Drops every pooled and entry instance; buffers keep their capacity.
  /// Also the end-of-shard cleanup, so nothing borrowed can dangle past
  /// the campaign in a worker's thread-local scratch.
  void begin_shard() {
    monitor.reset();
    viapsl.reset();
    entry_monitor.reset();
    entry_viapsl.reset();
  }
};

namespace {

// Draws a pooled monitor instance for one work unit: the first draw of a
// shard stamps from the shared plan, every later draw resets the existing
// instance (reset ≡ fresh, mon_reset_reuse_test) — valid units and mutation
// units alike.  `skip_reset` elides the physical reset when the caller is
// about to restore() a checkpoint over the whole state anyway (restore
// overwrites every field a reset touches, and the snapshot fuzz covers
// restoring into a dirty instance); the reuse accounting still counts the
// logical draw either way.
mon::Monitor& draw_pooled(std::unique_ptr<mon::Monitor>& slot,
                          const PropertyPlan& job, mon::Backend backend,
                          ShardOutcome& out, bool skip_reset = false) {
  if (slot == nullptr) {
    slot = job.compiled.instantiate(backend);
    ++out.partial.compile_stats.instances_stamped;
  } else {
    if (!skip_reset) slot->reset();
    ++out.partial.compile_stats.instance_reuses;
  }
  return *slot;
}

// The valid trace of seed `s` is a pure function of (first_seed + s): both
// the valid phase and every mutation unit of the seed read it from stream
// 0, so no cross-unit state needs sharing.
spec::Trace seed_trace(const PropertyPlan& job, spec::Alphabet& ab,
                       const CampaignOptions& options, std::size_t s) {
  support::Rng rng = support::Rng::stream(options.first_seed + s, 0);
  return generate_valid(*job.property, ab, rng, options.stimuli);
}

// Builds one seed entry (see SeedEntry) in a single walk.  The walking
// instances are the scratch's entry slots, stamped once per shard and
// reset per build; they are never drawn, so — like generation itself — the
// walk is engine overhead with no instance or Figure-6 accounting of its
// own: the valid unit merges the recorded outcome instead.
SeedEntry build_seed_entry(const PropertyPlan& job, spec::Alphabet& ab,
                           const CampaignOptions& options, std::size_t s,
                           UnitScratch& scratch) {
  const spec::Property& property = *job.property;
  const mon::CompiledProperty& compiled = job.compiled;
  SeedEntry entry;
  entry.trace = seed_trace(job, ab, options, s);
  const spec::Trace& trace = entry.trace;
  const sim::Time end = end_of(trace);

  mon::Monitor& monitor = scratch.entry_instance(scratch.entry_monitor, job,
                                                 compiled.chosen());
  if (property.is_antecedent() && compiled.chosen() == mon::Backend::Drct) {
    entry.recognizer.emplace(
        static_cast<const mon::AntecedentMonitor&>(monitor));
  }
  spec::RefCursor& oracle = scratch.oracle;
  oracle.bind(property, compiled.plan());
  std::size_t walked = 0;
  const auto walk_to = [&](std::size_t stop) {
    if (entry.recognizer) {
      for (; walked < stop; ++walked) {
        monitor.observe(trace[walked].name, trace[walked].time);
        entry.recognizer->sample();
      }
    } else {
      monitor.observe_batch(trace.data() + walked, trace.data() + stop);
    }
    walked = stop;
    oracle.advance(trace, oracle.walked(), stop);
  };

  entry.stride = options.checkpoint_stride;
  if (entry.stride != 0) {
    const std::size_t rungs = trace.size() / entry.stride;
    entry.checkpoints.resize(rungs);
    entry.oracle_rungs.reserve(rungs);
    for (std::size_t k = 0; k < rungs; ++k) {
      walk_to((k + 1) * entry.stride);
      monitor.snapshot(entry.checkpoints[k]);
      entry.oracle_rungs.push_back(oracle);
    }
  }
  walk_to(trace.size());
  monitor.finish(end);
  if (entry.recognizer) entry.recognizer->detach();
  entry.monitor_violated = monitor.verdict() == mon::Verdict::Violated;
  entry.stats = monitor.stats();
  entry.oracle_rejected = oracle.finish(end).rejected();

  const spec::NameSet& alphabet = property.alphabet();
  for (const auto& ev : trace) {
    if (alphabet.test(ev.name)) entry.seen.set(ev.name);
  }

  if (options.check_viapsl) {
    mon::Monitor& viapsl = scratch.entry_instance(scratch.entry_viapsl, job,
                                                  mon::Backend::ViaPSL);
    viapsl.observe_batch(trace);
    viapsl.finish(end);
    entry.viapsl_violated = viapsl.verdict() == mon::Verdict::Violated;
    entry.viapsl_stats = viapsl.stats();
  }
  return entry;
}

// Hands out the seed's cache entry: whichever unit asks first builds it
// (build_seed_entry) and inserts; the rest hit.  The entry is a pure
// function of (property, first_seed + s, options) whoever builds it.
const SeedEntry& obtain_seed_entry(const PropertyPlan& job, spec::Alphabet& ab,
                                   const CampaignOptions& options,
                                   std::size_t s, SeedEntryCache& cache,
                                   UnitScratch& scratch, ShardOutcome& out) {
  bool inserted = false;
  const std::uint64_t key =
      static_cast<std::uint64_t>(job.index) * options.seeds + s;
  const SeedEntry& entry = cache.get_or_emplace(
      key, [&] { return build_seed_entry(job, ab, options, s, scratch); },
      &inserted);
  if (inserted) {
    ++out.partial.trace_cache_misses;
  } else {
    ++out.partial.trace_cache_hits;
  }
  return entry;
}

// The reference oracle for one trace: the scratch cursor resumes from the
// floor rung's copy (or starts fresh on the compiled plan) and walks only
// [resume.begin, end).  The cursor state is a pure function of the walked
// prefix, so the verdict equals a walk from event 0 (spec/reference.hpp).
// No reason text is formatted.
bool oracle_rejects(const PropertyPlan& job, const FloorRung& resume,
                    const spec::Trace& trace, spec::RefCursor& cursor) {
  if (resume.oracle != nullptr) {
    cursor = *resume.oracle;
  } else {
    cursor.bind(*job.property, job.compiled.plan());
  }
  cursor.advance(trace, resume.begin, trace.size());
  return cursor.finish(end_of(trace)).rejected();
}

// The seed's valid phase: its outcome was recorded when the seed entry was
// built, so the unit only merges it.  It still makes its logical pool
// draws — the chosen-backend slot, plus the ViaPSL slot under
// check_viapsl — so the instance counters stay a function of the unit
// layout alone; no instance is stepped, so both skip the physical reset
// (every later user of a slot resets or restores it first).
void run_valid_unit(const PropertyPlan& job, spec::Alphabet& ab,
                    const CampaignOptions& options, std::size_t s,
                    SeedEntryCache& cache, UnitScratch& scratch,
                    ShardOutcome& out) {
  const SeedEntry& seed =
      obtain_seed_entry(job, ab, options, s, cache, scratch, out);
  ++out.partial.traces;
  out.partial.events += seed.trace.size();

  draw_pooled(scratch.monitor, job, job.compiled.chosen(), out,
              /*skip_reset=*/true);
  out.alphabet->merge_seen(seed.seen);
  if (seed.recognizer) {
    if (out.recognizer) {
      out.recognizer->merge(*seed.recognizer);
    } else {
      out.recognizer.emplace(*seed.recognizer);
    }
  }
  const bool monitor_ok = !seed.monitor_violated;
  if (monitor_ok && !seed.oracle_rejected) ++out.partial.valid_accepted;
  if (monitor_ok == seed.oracle_rejected) ++out.partial.oracle_disagreements;
  out.partial.monitor_stats.merge(seed.stats);

  if (options.check_viapsl) {
    draw_pooled(scratch.viapsl, job, mon::Backend::ViaPSL, out,
                /*skip_reset=*/true);
    if (!seed.oracle_rejected && seed.viapsl_violated) {
      ++out.partial.viapsl_false_alarms;
    }
    out.partial.monitor_stats.merge(seed.viapsl_stats);
  }
}

// One mutation unit: the Fig. 1 inner loop over the unit's mutants, run in
// waves.  Each mutant is rewritten into the next free wave slot
// (mutate_into, drawing the unit's Rng stream in mutant order), checked by
// the reference oracle resumed from its checkpoint-ladder floor rung, and —
// when the oracle rejects it — buffered as (trace, suffix start, rung).  A
// wave flushes once it holds `width` mutants, and once more for the unit's
// final, usually partial, wave.
//
// The width is the lane width on the Vm backend and 1 otherwise.  With a
// width above 1, a wave restores (or resets) one VmLaneBatch lane per
// mutant and advances them all through the batch's block-lockstep; a
// width-1 wave restores the pooled monitor and steps the suffix through
// Monitor::observe_batch.  Either way every buffered mutant costs one
// logical pool draw, and the verdicts, kill accounting and MonitorStats
// merge through one tally in mutant order.
//
// Byte-for-byte contract (campaign_lane_diff_test and every differential
// suite against the reference campaign): a restored monitor already
// carries its prefix's stats, verdict and timing registers, so replaying
// only [start, end) equals a full replay (campaign_incremental_diff_test);
// a batch lane is bit-equal to a solo VmMonitor (mon_bytecode_test's
// lockstep ≡ solo); and the logical draw lands on the shard's pooled slot
// whichever way the mutant replays, so the stamp/reuse accounting never
// depends on the lane width.
void run_mutation_unit(const PropertyPlan& job, spec::Alphabet& ab,
                       const CampaignOptions& options, std::size_t s,
                       std::size_t slot, SeedEntryCache& cache,
                       UnitScratch& scratch, ShardOutcome& out) {
  LOOM_DASSERT(slot >= 1 && slot < kSlotsPerSeed);
  const spec::Property& property = *job.property;
  const mon::CompiledProperty& compiled = job.compiled;
  const SeedEntry& seed =
      obtain_seed_entry(job, ab, options, s, cache, scratch, out);
  const spec::Trace& valid = seed.trace;
  // Checkpoint ladder for suffix-only replay (null with a zero stride —
  // those campaigns replay every mutant in full).
  const SeedEntry* ladder = seed.stride != 0 ? &seed : nullptr;
  const std::size_t k = slot - 1;
  auto& stats = out.partial.mutation[k];
  support::Rng rng = support::Rng::stream(options.first_seed + s, slot);
  // Where the in-alphabet events of the seed trace sit is a per-unit fact:
  // index it once here instead of rescanning the trace for every mutant.
  mutation_sites_into(valid, compiled.alphabet(), scratch.sites);

  // Lanes need VM frames to restore into.  Any other backend runs width-1
  // waves — silently, because Auto may legitimately resolve elsewhere; a
  // *forced* non-Vm backend with lane_width > 1 was already rejected by
  // campaign setup.
  const bool lanes =
      options.lane_width > 1 && compiled.chosen() == mon::Backend::Vm;
  const std::size_t width = lanes ? options.lane_width : 1;
  if (scratch.lane_mutants.size() < width) scratch.lane_mutants.resize(width);
  mon::VmLaneBatch* batch = nullptr;
  if (lanes) {
    if (scratch.lane_batch == nullptr ||
        &scratch.lane_batch->program() != compiled.vm_program_shared().get() ||
        scratch.lane_batch->lanes() != width) {
      scratch.lane_batch = std::make_unique<mon::VmLaneBatch>(
          compiled.vm_program_shared(), width);
    }
    batch = scratch.lane_batch.get();
  }
  scratch.lane_traces.clear();
  scratch.lane_starts.clear();
  scratch.lane_rungs.clear();

  const auto flush = [&] {
    const std::size_t wave = scratch.lane_traces.size();
    if (wave == 0) return;
    LOOM_DASSERT(batch != nullptr || wave == 1);
    for (std::size_t lane = 0; lane < wave; ++lane) {
      const mon::Snapshot* rung = scratch.lane_rungs[lane];
      const std::size_t start = scratch.lane_starts[lane];
      // The logical draw.  A restore overwrites the whole state, and a
      // batch lane (not the slot) carries the mutant's state, so both skip
      // the physical reset; the next unit to use the slot resets or
      // restores it first, like every unit does.
      mon::Monitor& mmon =
          draw_pooled(scratch.monitor, job, compiled.chosen(), out,
                      /*skip_reset=*/batch != nullptr || rung != nullptr);
      if (rung != nullptr) {
        ++out.partial.checkpoint_hits;
        out.partial.events_skipped += start;
      }
      if (batch == nullptr) {
        if (rung != nullptr) mmon.restore(*rung);
        const spec::Trace& trace = *scratch.lane_traces[lane];
        mmon.observe_batch(trace.data() + start, trace.data() + trace.size());
      } else if (rung != nullptr) {
        batch->restore(lane, *rung);
      } else {
        batch->reset(lane);
      }
    }
    if (batch != nullptr) {
      ++out.partial.lane_waves;
      out.partial.lanes_filled += wave;
      out.partial.lane_capacity += width;
      batch->run(scratch.lane_traces, scratch.lane_starts);
    }
    for (std::size_t lane = 0; lane < wave; ++lane) {
      const sim::Time end = end_of(*scratch.lane_traces[lane]);
      bool violated = false;
      if (batch != nullptr) {
        batch->finish(lane, end);
        violated = batch->verdict(lane) == mon::Verdict::Violated;
        out.partial.monitor_stats.merge(batch->stats(lane));
      } else {
        scratch.monitor->finish(end);
        violated = scratch.monitor->verdict() == mon::Verdict::Violated;
        out.partial.monitor_stats.merge(scratch.monitor->stats());
      }
      ++(violated ? stats.detected : stats.missed);
    }
    scratch.lane_traces.clear();
    scratch.lane_starts.clear();
    scratch.lane_rungs.clear();
  };

  for (std::size_t m = 0; m < options.mutants_per_kind; ++m) {
    // Fill the next free slot; a mutant the oracle accepts (or a kind that
    // does not apply) leaves the slot free for the next draw.
    MutationResult& mutant = scratch.lane_mutants[scratch.lane_traces.size()];
    if (!mutate_into(valid, scratch.sites, kAllKinds[k], property, rng,
                     mutant)) {
      continue;
    }
    ++stats.applied;
    // MutationResult::position guarantees the mutant shares its first
    // `position` events with the valid trace, so the oracle and monitor
    // states after the floor rung are exactly what the ladder recorded.
    const FloorRung resume = floor_rung(ladder, mutant.position);
    if (!oracle_rejects(job, resume, mutant.trace, scratch.oracle)) continue;
    ++stats.invalid;
    LOOM_DASSERT(resume.begin <= mutant.trace.size());
    scratch.lane_traces.push_back(&mutant.trace);
    scratch.lane_starts.push_back(resume.begin);
    scratch.lane_rungs.push_back(resume.snapshot);
    if (scratch.lane_traces.size() == width) flush();
  }
  flush();  // the unit's final, usually partial, wave
}

void run_shard(const std::vector<PropertyPlan>& jobs, spec::Alphabet& ab,
               const CampaignOptions& options, const Shard& shard,
               SeedEntryCache& cache, UnitScratch& scratch,
               ShardOutcome& out) {
  const PropertyPlan& job = jobs[shard.job];
  // Fresh pool per shard (buffers keep their capacity): the instance
  // accounting stays a pure function of the shard layout, and nothing
  // borrowed survives in a worker's scratch past this campaign.
  scratch.begin_shard();
  out.alphabet.emplace(job.property->alphabet());
  // Workers share the one alphabet without locks or copies: setup
  // pre-interned every name stimuli generation touches, and noise_pool()
  // looks names up before interning, so generation is read-only here.
  for (std::size_t u = shard.unit_begin; u < shard.unit_end; ++u) {
    const std::size_t s = u / kSlotsPerSeed;
    const std::size_t slot = u % kSlotsPerSeed;
    if (slot == 0) {
      run_valid_unit(job, ab, options, s, cache, scratch, out);
    } else {
      run_mutation_unit(job, ab, options, s, slot, cache, scratch, out);
    }
  }
  scratch.begin_shard();  // end-of-shard cleanup (see UnitScratch)
}

// Runs every listed shard in this process — serially or on a work-stealing
// pool — filling outcomes[i] for shard i.  Shared by run_campaigns (the
// workers=0 path) and run_campaign_worker (each worker process runs its
// assigned slice through exactly this code, which is half of why
// in-process ≡ cross-process holds byte for byte).
void run_shards_in_process(const std::vector<PropertyPlan>& jobs,
                           spec::Alphabet& ab, const CampaignOptions& options,
                           const std::vector<Shard>& shards,
                           std::size_t threads,
                           std::vector<ShardOutcome>& outcomes) {
  SeedEntryCache cache(/*shard_count=*/4 * threads);
  // One arena per thread, reused across every shard the thread runs and,
  // on the caller's thread, across campaigns: the buffers' capacity
  // ratchets, while run_shard scopes the pooled instances so the scratch
  // never outlives anything it borrows.
  const auto run_one = [&](std::size_t i) {
    static thread_local UnitScratch scratch;
    run_shard(jobs, ab, options, shards[i], cache, scratch, outcomes[i]);
  };
  if (threads <= 1 || shards.size() <= 1) {
    for (std::size_t i = 0; i < shards.size(); ++i) run_one(i);
  } else {
    support::ThreadPool pool(std::min(threads, shards.size()));
    pool.for_each_index(shards.size(), run_one);
  }
}

#if LOOM_WIRE_HAS_PROCESS

// How long a worker gets between SIGTERM and SIGKILL when the supervisor
// retires it, and how long a Done-frame worker gets to actually exit.
constexpr long kKillGraceMs = 500;

// Supervision bookkeeping run_shards_cross_process hands back to
// run_campaigns: retry counts per property (CampaignResult::worker_retries,
// an engine diagnostic) and, under allow_partial, the shards that were
// never executed (CampaignResult::shard_failures, the semantic record of a
// degraded run).
struct SupervisionInfo {
  std::vector<std::size_t> retries_by_job;
  std::vector<CampaignResult::ShardFailure> failures;
};

// describe_wait_status plus the pinned exec-failure exit codes: 127 is
// execvp itself failing (missing or non-executable worker binary), 126 the
// child's stdin/stdout setup failing before exec — both mean the worker
// command could not be executed at all, which deserves a plainer sentence
// than "exited with code 127".
std::string describe_worker_exit(int status) {
  std::string text = wire::describe_wait_status(status);
  const int code = wire::exit_code(status);
  if (code == kWorkerExitExecMissing) {
    text +=
        "; the worker command could not be executed "
        "(execvp failed: missing or non-executable binary)";
  } else if (code == kWorkerExitExecSetup) {
    text +=
        "; the worker command could not be executed "
        "(stdin/stdout setup failed before exec)";
  }
  return text;
}

// Slots one verified partial back into `outcomes` at its shard index —
// after which the merge loop cannot tell it from an in-process outcome.
void install_partial(const std::vector<PropertyPlan>& jobs,
                     wire::WorkerPartialData& part,
                     std::vector<ShardOutcome>& outcomes) {
  ShardOutcome& out = outcomes[static_cast<std::size_t>(part.shard)];
  out.partial = part.partial;
  AlphabetCoverage cov(jobs[part.job].property->alphabet());
  for (std::size_t n = 0; n < part.alphabet_seen.size(); ++n) {
    if (part.alphabet_seen[n]) cov.record(static_cast<spec::Name>(n));
  }
  out.alphabet.emplace(std::move(cov));
  if (part.has_recognizer) {
    out.recognizer.emplace(std::move(part.recognizer_rows));
  }
}

// What is wrong with a partial's recognizer rows for `job`, or "" when
// nothing is.  Only a Drct-backed antecedent has recognizers to sample
// (run_valid_unit), and its rows must have exactly the job's plan shape:
// one row list per fragment, one row per range, each row naming its
// range's name and bounds, with state bits only for the six recognizer
// states.  RecognizerCoverage::merge trusts that shape, so the supervisor
// checks it before a worker's rows reach the merge.
std::string misshapen_recognizer_rows(const PropertyPlan& job,
                                      const wire::WorkerPartialData& part) {
  if (!part.has_recognizer) return {};
  if (!job.property->is_antecedent() ||
      job.compiled.chosen() != mon::Backend::Drct) {
    return std::string("recognizer rows for a property without Drct "
                       "antecedent recognizers (backend ") +
           mon::to_string(job.compiled.chosen()) + ")";
  }
  const std::vector<spec::FragmentPlan>& frags = job.compiled.plan().fragments;
  const auto& rows = part.recognizer_rows;
  if (rows.size() != frags.size()) {
    return "recognizer rows for " + std::to_string(rows.size()) +
           " fragments, the property has " + std::to_string(frags.size());
  }
  for (std::size_t f = 0; f < frags.size(); ++f) {
    const auto where = [f] {
      return "recognizer fragment F" + std::to_string(f + 1);
    };
    const std::vector<spec::RangePlan>& ranges = frags[f].ranges;
    if (rows[f].size() != ranges.size()) {
      return where() + ": " + std::to_string(rows[f].size()) + " rows for " +
             std::to_string(ranges.size()) + " ranges";
    }
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      const RecognizerCoverage::RangeCov& row = rows[f][r];
      if (row.name != ranges[r].name || row.lo != ranges[r].lo ||
          row.hi != ranges[r].hi) {
        return where() + " row " + std::to_string(r) +
               ": name/bounds do not match the property's range";
      }
      if ((row.state_mask >> 6) != 0) {
        return where() + " row " + std::to_string(r) +
               ": state bits outside the six recognizer states";
      }
    }
  }
  return {};
}

// The request parts every worker shares: the alphabet's names in id order
// (re-interning them in that order reproduces the parent's dense ids
// exactly), each property's normalized text, and the options.  The request
// codec carries only the options the worker's engine reads, so neither
// `workers` nor `plan_cache` reaches a worker.
wire::WorkerRequestData make_base_request(const std::vector<PropertyPlan>& jobs,
                                          const spec::Alphabet& ab,
                                          const CampaignOptions& options) {
  wire::WorkerRequestData base;
  base.names.reserve(ab.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    const spec::Name n = static_cast<spec::Name>(i);
    base.names.push_back(ab.text(n));
    base.directions.push_back(static_cast<std::uint8_t>(ab.direction(n)));
  }
  for (const auto& job : jobs) {
    base.properties.push_back(spec::to_string(*job.property, ab));
  }
  base.options = options;
  return base;
}

// Frames one worker's request: the shared base plus its round-robin shard
// slice.  `clear_fault` disarms the injected fault — the supervisor
// re-dispatches that way, so a retried attempt runs clean (that is what
// makes faulted-then-retried ≡ clean hold byte for byte).
std::vector<std::uint8_t> frame_request(
    const wire::WorkerRequestData& base, const std::vector<std::size_t>& mine,
    const std::vector<Shard>& shards, bool clear_fault) {
  wire::WorkerRequestData req = base;
  if (clear_fault) req.options.worker_fault = WorkerFault::None;
  req.shards.reserve(mine.size());
  for (const std::size_t i : mine) {
    req.shards.push_back(
        {i, shards[i].job, shards[i].unit_begin, shards[i].unit_end});
  }
  wire::Encoder enc;
  wire::encode_worker_request(enc, req);
  std::vector<std::uint8_t> framed;
  wire::write_frame(framed, wire::Payload::WorkerRequest, enc);
  return framed;
}

// The parent side of cross-process sharding: spawn options.workers
// subprocesses, hand each a round-robin slice of the exact shard layout
// the in-process engine would run, and slot their wire-encoded partial
// outcomes back into `outcomes` at the same indices — after which the
// caller's merge loop cannot tell the difference.  That is the sixth
// differential invariant (campaign_process_diff_test).
//
// The drain is supervised: every worker's response pipe goes O_NONBLOCK,
// one poll(2) loop multiplexes all the streams (a slow worker cannot hide
// a sibling's failure), a per-frame deadline (CampaignOptions::
// worker_timeout_ms, re-armed on each completed frame) retires workers
// that stall or trickle, and a retired worker's shards are re-dispatched
// to a fresh fault-free process up to CampaignOptions::worker_retries
// times — the seventh invariant, faulted-then-retried ≡ clean
// (campaign_supervision_test).  Only a clean Done merges; exhausted
// budgets either throw WorkerFailure or — under allow_partial — record the
// slot's shards in SupervisionInfo::failures and let the rest of the
// campaign stand.
void run_shards_cross_process(const std::vector<PropertyPlan>& jobs,
                              spec::Alphabet& ab,
                              const CampaignOptions& options,
                              const std::vector<Shard>& shards,
                              std::vector<ShardOutcome>& outcomes,
                              SupervisionInfo& sup) {
  using Clock = std::chrono::steady_clock;
  // A worker that died must surface as a write error, not a SIGPIPE kill.
  wire::ignore_sigpipe();
  const std::size_t workers = std::min(options.workers, shards.size());
  const long timeout_ms = static_cast<long>(options.worker_timeout_ms);

  // Round-robin assignment: shard i runs on worker i % workers.
  std::vector<std::vector<std::size_t>> assigned(workers);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    assigned[i % workers].push_back(i);
  }
  const wire::WorkerRequestData base = make_base_request(jobs, ab, options);

  struct Slot {
    wire::WorkerProcess proc;
    std::optional<wire::FdFrameReader> reader;
    std::vector<wire::WorkerPartialData> partials;
    std::vector<bool> got;  // per assigned shard: partial received
    std::size_t attempts = 0;
    // Closing: the Done frame arrived; waiting for EOF, then the reap.
    enum class State { Draining, Closing, Done, Failed };
    State state = State::Draining;
    std::uint64_t done_count = 0;  // the Done frame's partial count
    std::string diagnostic;
    // The frame deadline while Draining, the exit grace while Closing.
    Clock::time_point frame_deadline{};
  };

  std::vector<Slot> slots(workers);
  // The distinct properties each slot's shards belong to: a retry is
  // charged to every property the re-dispatched slice serves.
  std::vector<std::vector<std::size_t>> slot_jobs(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    for (const std::size_t i : assigned[w]) {
      auto& js = slot_jobs[w];
      if (std::find(js.begin(), js.end(), shards[i].job) == js.end()) {
        js.push_back(shards[i].job);
      }
    }
  }

  const auto who_of = [](std::size_t w) {
    return "worker " + std::to_string(w);
  };

  // Parent-side failure (spawn, fcntl, poll): tear everything down and
  // throw — that is resource exhaustion, not a worker fault, so neither
  // the retry budget nor allow_partial applies.
  const auto fail_all = [&](const std::string& message) {
    for (auto& s : slots) s.proc.terminate(kKillGraceMs);
    throw WorkerFailure("cross-process campaign: " + message);
  };

  // Every parent-side pipe end currently open across the fleet: the close
  // list a fresh fork-only child runs before child_main, so no sibling
  // relationship can swallow an EOF.
  const auto open_parent_fds = [&]() {
    std::vector<int> fds;
    for (const auto& s : slots) {
      if (s.proc.to_child >= 0) fds.push_back(s.proc.to_child);
      if (s.proc.from_child >= 0) fds.push_back(s.proc.from_child);
    }
    return fds;
  };

  // Spawns (or respawns) slot w and writes its request.  False — with the
  // slot's diagnostic set — when the fresh worker refused the request
  // write, which counts as that attempt failing.
  const auto dispatch = [&](std::size_t w) -> bool {
    Slot& slot = slots[w];
    ++slot.attempts;
    const std::vector<std::uint8_t> framed = frame_request(
        base, assigned[w], shards, /*clear_fault=*/slot.attempts > 1);
    try {
      slot.proc = wire::spawn_worker(
          options.worker_command,
          [](int in, int out) { return run_campaign_worker(in, out); }, w,
          open_parent_fds());
    } catch (const std::exception& e) {
      fail_all(e.what());
    }
    if (!wire::set_nonblocking(slot.proc.from_child)) {
      fail_all(who_of(w) + ": could not set O_NONBLOCK on the response pipe");
    }
    if (!wire::write_all(slot.proc.to_child, framed.data(), framed.size())) {
      slot.diagnostic = "request write failed (worker gone?)";
      return false;
    }
    slot.proc.close_to_child();
    slot.reader.emplace(slot.proc.from_child);
    slot.partials.clear();
    slot.got.assign(assigned[w].size(), false);
    slot.state = Slot::State::Draining;
    if (timeout_ms > 0) {
      slot.frame_deadline =
          Clock::now() + std::chrono::milliseconds(timeout_ms);
    }
    return true;
  };

  // Retires slot w's current worker: SIGTERM→grace→SIGKILL (a Hang-faulted
  // worker ignores the SIGTERM and dies only to the escalation), render
  // the failure over the final wait status, then spend the retry budget on
  // fresh fault-free dispatches.  An exhausted budget marks the slot
  // Failed under allow_partial and tears the campaign down otherwise.
  const auto retire = [&](std::size_t w,
                          const std::function<std::string(int)>& describe) {
    Slot& slot = slots[w];
    slot.reader.reset();
    std::string message = describe(slot.proc.terminate(kKillGraceMs));
    while (slot.attempts <= options.worker_retries) {
      for (const std::size_t p : slot_jobs[w]) ++sup.retries_by_job[p];
      if (dispatch(w)) return;
      message = who_of(w) + ": " + slot.diagnostic + " (" +
                describe_worker_exit(slot.proc.terminate(kKillGraceMs)) + ")";
    }
    slot.diagnostic = message + " (attempt " + std::to_string(slot.attempts) +
                      " of " + std::to_string(options.worker_retries + 1) +
                      ")";
    slot.state = Slot::State::Failed;
    if (!options.allow_partial) fail_all(slot.diagnostic);
  };

  // Retires slot w with a fixed diagnostic (the common case of retire).
  const auto retire_with = [&](std::size_t w, const std::string& text) {
    retire(w, [&text](int) { return text; });
  };

  // Reaps a Closing slot whose stream reached EOF: the worker has closed
  // its end, so it is exiting or about to.  The wait stays inside the
  // grace deadline armed by the Done frame; only a clean exit with the
  // promised partial count turns the slot Done.
  const auto reap = [&](std::size_t w) {
    Slot& slot = slots[w];
    const std::string who = who_of(w);
    slot.reader.reset();
    slot.proc.close_from_child();
    const long grace_left = static_cast<long>(std::max<long long>(
        0, std::chrono::duration_cast<std::chrono::milliseconds>(
               slot.frame_deadline - Clock::now())
               .count()));
    int status = 0;
    if (!slot.proc.wait_for(grace_left, status)) {
      retire(w, [&who](int st) {
        return who + ": kept running after its Done frame (" +
               describe_worker_exit(st) + ")";
      });
    } else if (wire::exit_code(status) != kWorkerExitOk) {
      retire_with(w, who + " " + describe_worker_exit(status));
    } else if (slot.done_count != slot.partials.size() ||
               slot.partials.size() != assigned[w].size()) {
      retire_with(w, who + ": returned " +
                         std::to_string(slot.partials.size()) +
                         " partials for " +
                         std::to_string(assigned[w].size()) +
                         " assigned shards");
    } else {
      slot.state = Slot::State::Done;
    }
  };

  // Drains every frame slot w's reader can produce without blocking.
  // Again ends the visit (poll() will wake us); anything else either
  // advances the slot or retires the worker.  After the Done frame the
  // slot stays in the poll set as Closing until its stream reaches EOF —
  // which the worker's exit delivers — so the reap never sleeps waiting
  // for an exit that has not happened yet.
  const auto pump = [&](std::size_t w) {
    Slot& slot = slots[w];
    const std::string who = who_of(w);
    while (slot.state == Slot::State::Draining ||
           slot.state == Slot::State::Closing) {
      wire::Frame frame;
      wire::DecodeError err;
      const auto st = slot.reader->next(frame, err);
      if (st == wire::FdFrameReader::Status::Again) return;
      if (st == wire::FdFrameReader::Status::Eof) {
        if (slot.state == Slot::State::Closing) {
          reap(w);
          return;
        }
        retire(w, [&who](int status) {
          return who + ": stream ended before its Done frame (" +
                 describe_worker_exit(status) + ")";
        });
        return;
      }
      if (st != wire::FdFrameReader::Status::Frame) {
        retire_with(w, who + ": " + err.to_string());
        return;
      }
      if (slot.state == Slot::State::Closing) {
        retire_with(w, who + ": unexpected " + wire::to_string(frame.tag) +
                           " frame after its Done frame");
        return;
      }
      if (timeout_ms > 0) {
        // A complete frame is progress: the deadline re-arms per frame.
        slot.frame_deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
      }
      wire::Decoder d(frame.data, frame.size);
      switch (frame.tag) {
        case wire::Payload::WorkerPartial: {
          wire::WorkerPartialData part;
          if (!wire::decode_worker_partial(d, part)) {
            retire_with(w, who + ": " + d.error().to_string());
            return;
          }
          if (!d.exhausted()) {
            retire_with(w, who + ": trailing bytes after a partial payload");
            return;
          }
          const std::size_t i = static_cast<std::size_t>(part.shard);
          bool ours = i < shards.size() && i % workers == w &&
                      part.job == shards[i].job;
          if (ours) {
            const std::size_t k = (i - w) / workers;
            ours = k < slot.got.size() && !slot.got[k];
            if (ours) slot.got[k] = true;
          }
          if (!ours) {
            retire_with(w, who + ": partial for foreign shard " +
                               std::to_string(part.shard));
            return;
          }
          const std::string bad_rows =
              misshapen_recognizer_rows(jobs[part.job], part);
          if (!bad_rows.empty()) {
            retire_with(w, who + ": shard " + std::to_string(part.shard) +
                               ": " + bad_rows);
            return;
          }
          slot.partials.push_back(std::move(part));
          break;
        }
        case wire::Payload::WorkerDone: {
          if (!wire::decode_worker_done(d, slot.done_count) ||
              !d.exhausted()) {
            retire_with(w, who + ": malformed Done frame");
            return;
          }
          // The exit grace runs whether or not a frame deadline is armed.
          slot.state = Slot::State::Closing;
          slot.frame_deadline =
              Clock::now() + std::chrono::milliseconds(kKillGraceMs);
          break;
        }
        case wire::Payload::WorkerError: {
          std::string message;
          if (!wire::decode_worker_error(d, message)) {
            message = "(malformed error frame)";
          }
          retire_with(w, who + " reported: " + message);
          return;
        }
        default:
          retire_with(w, who + ": unexpected " + wire::to_string(frame.tag) +
                             " frame");
          return;
      }
    }
  };

  for (std::size_t w = 0; w < workers; ++w) {
    if (!dispatch(w)) {
      const std::string text = who_of(w) + ": " + slots[w].diagnostic;
      retire(w, [&text](int status) {
        return text + " (" + describe_worker_exit(status) + ")";
      });
    }
  }

  // The multiplexed drain: poll every Draining or Closing slot's pipe,
  // pump whoever is readable, then sweep expired deadlines — the frame
  // deadline while Draining, the exit grace while Closing.  The loop ends
  // when every slot is Done or Failed.
  const auto polled = [](const Slot& slot) {
    return slot.state == Slot::State::Draining ||
           slot.state == Slot::State::Closing;
  };
  const auto has_deadline = [&](const Slot& slot) {
    return timeout_ms > 0 || slot.state == Slot::State::Closing;
  };
  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> pfd_slot;
  for (;;) {
    pfds.clear();
    pfd_slot.clear();
    Clock::time_point next_deadline{};
    bool have_deadline = false;
    for (std::size_t w = 0; w < workers; ++w) {
      const Slot& slot = slots[w];
      if (!polled(slot)) continue;
      pfds.push_back({slot.proc.from_child, POLLIN, 0});
      pfd_slot.push_back(w);
      if (has_deadline(slot) &&
          (!have_deadline || slot.frame_deadline < next_deadline)) {
        next_deadline = slot.frame_deadline;
        have_deadline = true;
      }
    }
    if (pfds.empty()) break;
    int poll_timeout = -1;
    if (have_deadline) {
      const long long remain =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              next_deadline - Clock::now())
              .count();
      poll_timeout =
          remain <= 0 ? 0 : static_cast<int>(std::min<long long>(remain, INT_MAX));
    }
    const int n = ::poll(pfds.data(), pfds.size(), poll_timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_all(std::string("poll failed: ") + std::strerror(errno));
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const std::size_t w = pfd_slot[k];
      // pump may retire-and-respawn; the stale pollfd entry is harmless
      // because the vector is rebuilt before the next poll().
      if (polled(slots[w])) pump(w);
    }
    const auto now = Clock::now();
    for (std::size_t w = 0; w < workers; ++w) {
      const Slot& slot = slots[w];
      if (!polled(slot) || !has_deadline(slot)) continue;
      if (now < slot.frame_deadline) continue;
      if (slot.state == Slot::State::Closing) {
        const std::string who = who_of(w);
        retire(w, [&who](int st) {
          return who + ": kept running after its Done frame (" +
                 describe_worker_exit(st) + ")";
        });
      } else {
        retire_with(w, who_of(w) + ": timed out after " +
                           std::to_string(timeout_ms) +
                           " ms waiting for a frame");
      }
    }
  }

  // Merge Done slots (per-slot validation already passed); record the
  // Failed slots' shards in shard-index order.  A Failed slot's buffered
  // partials are discarded whole — a degraded result never contains work
  // from a worker that did not finish cleanly.
  for (std::size_t w = 0; w < workers; ++w) {
    if (slots[w].state != Slot::State::Done) continue;
    for (auto& part : slots[w].partials) {
      install_partial(jobs, part, outcomes);
    }
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t w = i % workers;
    if (slots[w].state != Slot::State::Failed) continue;
    sup.failures.push_back({w, i, shards[i].unit_begin, shards[i].unit_end,
                            slots[w].diagnostic});
  }
}

#endif  // LOOM_WIRE_HAS_PROCESS

}  // namespace

std::vector<PropertyPlan> compile_property_plans(
    const std::vector<const spec::Property*>& properties,
    const spec::Alphabet& ab, const CampaignOptions& options) {
  std::vector<PropertyPlan> plans(properties.size());
  mon::CompileOptions copt;
  copt.backend = options.backend;
  // The cross-check instantiates ViaPSL monitors next to Drct units, so the
  // clause set must be materialized even when the chosen backend is Drct.
  copt.with_viapsl_artifact = options.check_viapsl;
  // Campaign Auto resolves the Drct/Vm cost-model tie to Vm — the
  // wall-clock winner, and the only backend whose frames the lane-batched
  // wave scheduler can restore into.  Set unconditionally (not gated on
  // lane_width): the lane knob can never move the chosen backend, which
  // invariant 8 needs.
  copt.prefer_vm = true;
  for (std::size_t p = 0; p < properties.size(); ++p) {
    PropertyPlan& plan = plans[p];
    plan.property = properties[p];
    plan.index = p;
    if (options.plan_cache != nullptr) {
      // Cross-campaign memoization: a hit shares an earlier campaign's
      // immutable artifacts (CompiledProperty is a cheap handle copy), a
      // miss compiles and publishes for the next campaign.  plans_built
      // counts actual translations, so hits leave it at 0.
      bool compiled_now = false;
      plan.compiled = options.plan_cache->get_or_compile(*properties[p], ab,
                                                         copt, &compiled_now);
      plan.base_stats.plans_built = compiled_now ? 1 : 0;
      plan.base_stats.plan_cache_hits = compiled_now ? 0 : 1;
      plan.base_stats.plan_cache_misses = compiled_now ? 1 : 0;
    } else {
      plan.compiled = mon::CompiledProperty::compile(*properties[p], ab, copt);
      plan.base_stats.plans_built = 1;
    }
    plan.base_stats.viapsl_encodings =
        plan.compiled.encoding() != nullptr ? 1 : 0;
    plan.base_stats.backend_requested = plan.compiled.requested();
    plan.base_stats.backend_chosen = plan.compiled.chosen();
  }
  return plans;
}

namespace {

// What the serial setup hands the shard runner: the compiled plans and the
// resolved worker-thread count.
struct CampaignSetup {
  std::vector<PropertyPlan> jobs;
  std::size_t threads = 1;
};

// The serial setup run_campaigns and every worker process share: validate
// the options, intern everything stimuli generation could lazily intern,
// then translate every property exactly once — plan tables, backend
// choice, ViaPSL clause sets — so both the alphabet and the plans are
// strictly read-only once workers share them.
CampaignSetup set_up_campaign(
    const std::vector<const spec::Property*>& properties, spec::Alphabet& ab,
    const CampaignOptions& options) {
  if (options.lane_width == 0) {
    throw std::invalid_argument(
        "CampaignOptions::lane_width must be at least 1 (1 is the scalar "
        "path; the default wave width is 8)");
  }
  // Waves replay through VmLaneBatch frames, so a campaign that *forces* a
  // backend without VM frames while asking for lanes is contradictory —
  // refuse it rather than silently ignore one of the two requests.  Auto
  // stays fine at any width: when it resolves away from Vm (a ViaPSL cost
  // win) the engine just runs width-1 waves.
  if (options.lane_width > 1 && (options.backend == mon::Backend::Drct ||
                                 options.backend == mon::Backend::ViaPSL)) {
    throw std::invalid_argument(
        std::string("CampaignOptions::lane_width > 1 needs the Vm backend "
                    "(lane-batched waves replay through VmLaneBatch frames), "
                    "but backend=") +
        mon::to_string(options.backend) +
        " was forced; use backend=vm or auto, or lane_width=1 for the "
        "scalar path");
  }
  pre_intern_stimuli_names(ab, options.stimuli);
  CampaignSetup setup;
  setup.jobs = compile_property_plans(properties, ab, options);
  setup.threads =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return setup;
}

}  // namespace

std::vector<CampaignResult> run_campaigns(
    const std::vector<const spec::Property*>& properties, spec::Alphabet& ab,
    const CampaignOptions& options) {
  const CampaignSetup setup = set_up_campaign(properties, ab, options);
  const std::vector<PropertyPlan>& jobs = setup.jobs;
  const std::size_t threads = setup.threads;

  // Shard the flattened (property × seed × slot) space.  Shards never span
  // properties so each merges into exactly one result.
  const std::size_t units_per_job = options.seeds * kSlotsPerSeed;
  std::size_t shard_size = options.shard_size;
  if (shard_size == 0) {
    const std::size_t total_units = units_per_job * jobs.size();
    shard_size = std::max<std::size_t>(1, total_units / (threads * 4));
  }
  std::vector<Shard> shards;
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    for (std::size_t begin = 0; begin < units_per_job; begin += shard_size) {
      shards.push_back(
          {p, begin, std::min(units_per_job, begin + shard_size)});
    }
  }

  std::vector<ShardOutcome> outcomes(shards.size());
#if LOOM_WIRE_HAS_PROCESS
  SupervisionInfo sup;
  sup.retries_by_job.assign(jobs.size(), 0);
#endif
  if (options.workers > 0 && !shards.empty()) {
#if LOOM_WIRE_HAS_PROCESS
    run_shards_cross_process(jobs, ab, options, shards, outcomes, sup);
#else
    throw WorkerFailure(
        "cross-process campaign: no process support on this platform");
#endif
  } else {
    run_shards_in_process(jobs, ab, options, shards, threads, outcomes);
  }

  // Merge in shard-index order, one pass over the shards.  Every reduction
  // below is commutative and associative (sums, set unions, maxima), so
  // the fixed order is not load-bearing for determinism — it just makes
  // the bit-identity obvious.
  std::vector<CampaignResult> results(jobs.size());
  std::vector<AlphabetCoverage> alphabet_covs;
  alphabet_covs.reserve(jobs.size());
  for (const auto& job : jobs) {
    alphabet_covs.emplace_back(job.property->alphabet());
  }
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    results[p].compile_stats = jobs[p].base_stats;
  }
  std::vector<std::optional<RecognizerCoverage>> rec_covs(jobs.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t p = shards[i].job;
    ShardOutcome& out = outcomes[i];
    results[p].merge(out.partial);
    if (out.alphabet) alphabet_covs[p].merge(*out.alphabet);
    if (out.recognizer) {
      if (rec_covs[p]) {
        rec_covs[p]->merge(*out.recognizer);
      } else {
        rec_covs[p].emplace(std::move(*out.recognizer));
      }
    }
  }
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    results[p].alphabet_coverage = alphabet_covs[p].ratio();
    results[p].recognizer_state_coverage =
        rec_covs[p] ? rec_covs[p]->state_ratio() : 1.0;
  }
#if LOOM_WIRE_HAS_PROCESS
  // Supervision outcome: retry counts are engine diagnostics (excluded
  // from report() and the differential comparisons — a retried campaign
  // must stay byte-identical to a clean one); shard failures are semantic
  // (they flip degraded()/ok() and print in report()).
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    results[p].worker_retries = sup.retries_by_job[p];
  }
  for (auto& f : sup.failures) {
    results[shards[f.shard].job].shard_failures.push_back(std::move(f));
  }
#endif
  return results;
}

CampaignResult run_campaign(const spec::Property& property,
                            spec::Alphabet& ab,
                            const CampaignOptions& options) {
  return run_campaigns({&property}, ab, options)[0];
}

int run_campaign_worker(int in_fd, int out_fd,
                        std::size_t request_timeout_ms) {
#if !LOOM_WIRE_HAS_PROCESS
  (void)in_fd;
  (void)out_fd;
  (void)request_timeout_ms;
  return kWorkerExitBadRequest;
#else
  wire::ignore_sigpipe();
  wire::Encoder enc;
  std::vector<std::uint8_t> framed;
  // SlowStream fault: once armed, every response byte trickles out alone
  // with a pause behind it — alive by poll()'s lights, dead by the
  // supervisor's frame deadline.
  bool slow = false;
  const auto send_bytes = [&](const std::uint8_t* data, std::size_t n) {
    if (!slow) return wire::write_all(out_fd, data, n);
    for (std::size_t b = 0; b < n; ++b) {
      if (!wire::write_all(out_fd, data + b, 1)) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return true;
  };
  const auto send = [&](wire::Payload tag) {
    framed.clear();
    wire::write_frame(framed, tag, enc);
    return send_bytes(framed.data(), framed.size());
  };
  const auto send_error = [&](const std::string& message) {
    enc.clear();
    wire::encode_worker_error(enc, message);
    send(wire::Payload::WorkerError);
  };

  // One request frame, fully read and validated before anything is sent
  // back (the other half of the protocol's no-deadlock argument).  The
  // optional deadline bounds the wait: an abandoned worker whose parent
  // never writes exits instead of blocking forever on stdin.
  wire::FdFrameReader reader(in_fd);
  if (request_timeout_ms > 0) {
    reader.set_read_timeout_ms(static_cast<long>(request_timeout_ms));
  }
  wire::Frame frame;
  wire::DecodeError err;
  const auto st = reader.next(frame, err);
  if (st != wire::FdFrameReader::Status::Frame) {
    send_error(st == wire::FdFrameReader::Status::Eof
                   ? "worker: no request frame before EOF"
                   : "worker: " + err.to_string());
    return kWorkerExitBadRequest;
  }
  if (frame.tag != wire::Payload::WorkerRequest) {
    send_error(std::string("worker: expected a WorkerRequest frame, got ") +
               wire::to_string(frame.tag));
    return kWorkerExitBadRequest;
  }
  wire::WorkerRequestData req;
  {
    wire::Decoder d(frame.data, frame.size);
    if (!wire::decode_worker_request(d, req)) {
      send_error("worker: " + d.error().to_string());
      return kWorkerExitBadRequest;
    }
    if (!d.exhausted()) {
      send_error("worker: trailing bytes after the request payload");
      return kWorkerExitBadRequest;
    }
  }
  if (req.options.worker_fault == WorkerFault::ExitBeforeRequest) {
    // Reads the request, answers nothing: the parent sees clean EOF with
    // exit 0 before any frame — as if the worker died before starting.
    return kWorkerExitOk;
  }

  try {
    // Reproduce the parent's interning: declaring the names in id order
    // yields identical dense ids, so traces, plans and coverage rows agree
    // bit for bit across the process boundary.
    spec::Alphabet ab;
    for (std::size_t i = 0; i < req.names.size(); ++i) {
      switch (req.directions[i]) {
        case 0: ab.input(req.names[i]); break;
        case 1: ab.output(req.names[i]); break;
        default: ab.name(req.names[i]); break;
      }
    }
    // Re-parse the normalized property texts — the same to_string/parse
    // round-trip the cross-campaign plan cache keys on.
    std::vector<spec::Property> props;
    props.reserve(req.properties.size());
    for (const auto& text : req.properties) {
      support::DiagnosticSink sink;
      auto p = spec::parse_property(text, ab, sink);
      if (!p) {
        send_error("worker: property '" + text + "': " + sink.to_string());
        return kWorkerExitBadProperty;
      }
      props.push_back(std::move(*p));
    }

    const CampaignOptions& options = req.options;  // workers never crosses: 0
    const std::size_t units_per_job = options.seeds * kSlotsPerSeed;
    std::vector<Shard> shards;
    shards.reserve(req.shards.size());
    for (const auto& s : req.shards) {
      if (s.job >= props.size() || s.unit_begin > s.unit_end ||
          s.unit_end > units_per_job) {
        send_error("worker: shard assignment out of range");
        return kWorkerExitBadRequest;
      }
      shards.push_back({static_cast<std::size_t>(s.job),
                        static_cast<std::size_t>(s.unit_begin),
                        static_cast<std::size_t>(s.unit_end)});
    }

    // The same serial setup run_campaigns does (a hand-built request is
    // validated like any caller's options), then the assigned shards on
    // the in-process engine (this worker's own threads / trace cache).
    std::vector<const spec::Property*> prop_ptrs;
    prop_ptrs.reserve(props.size());
    for (const auto& p : props) prop_ptrs.push_back(&p);
    const CampaignSetup setup = set_up_campaign(prop_ptrs, ab, options);
    std::vector<ShardOutcome> outcomes(shards.size());
    run_shards_in_process(setup.jobs, ab, options, shards, setup.threads,
                          outcomes);

    // One partial frame per shard, in assignment order, then Done.
    for (std::size_t i = 0; i < shards.size(); ++i) {
      wire::WorkerPartialData part;
      part.shard = req.shards[i].shard;
      part.job = req.shards[i].job;
      part.partial = outcomes[i].partial;
      if (outcomes[i].alphabet) {
        part.alphabet_seen.assign(ab.size(), false);
        outcomes[i].alphabet->seen().for_each([&](std::size_t n) {
          if (n < part.alphabet_seen.size()) part.alphabet_seen[n] = true;
        });
      }
      if (outcomes[i].recognizer) {
        part.has_recognizer = true;
        part.recognizer_rows = outcomes[i].recognizer->per_fragment();
      }
      enc.clear();
      wire::encode_worker_partial(enc, part);
      framed.clear();
      wire::write_frame(framed, wire::Payload::WorkerPartial, enc);
      if (i == options.worker_fault_at &&
          options.worker_fault != WorkerFault::None) {
        // Deterministic protocol violations (campaign_worker_fault_test,
        // campaign_supervision_test): each fault strikes exactly the
        // partial frame at worker_fault_at.
        switch (options.worker_fault) {
          case WorkerFault::CorruptFrame:
            framed[0] ^= 0xFF;  // magic byte: the parent must reject this
            break;
          case WorkerFault::FutureVersion:
            framed[4] = wire::kWireVersion + 1;
            break;
          case WorkerFault::DieMidStream: {
            wire::write_all(out_fd, framed.data(), framed.size() / 2);
            return kWorkerExitIo;
          }
          case WorkerFault::Hang: {
            // Ignore the supervisor's SIGTERM: only the SIGKILL
            // escalation ends this worker.
            struct sigaction sa;
            std::memset(&sa, 0, sizeof(sa));
            sa.sa_handler = SIG_IGN;
            ::sigaction(SIGTERM, &sa, nullptr);
            for (;;) ::pause();
          }
          case WorkerFault::SlowStream:
            slow = true;
            break;
          case WorkerFault::None:
          case WorkerFault::PartialWritesOnly:
          case WorkerFault::ExitBeforeRequest:
            break;
        }
      }
      if (!send_bytes(framed.data(), framed.size())) {
        return kWorkerExitIo;
      }
    }
    if (options.worker_fault == WorkerFault::PartialWritesOnly) {
      // Every partial sent, then silence where the Done trailer belongs:
      // the parent must discard the whole stream, clean exit or not.
      return kWorkerExitOk;
    }
    enc.clear();
    wire::encode_worker_done(enc, shards.size());
    if (!send(wire::Payload::WorkerDone)) return kWorkerExitIo;
    return kWorkerExitOk;
  } catch (const std::exception& e) {
    send_error(std::string("worker: ") + e.what());
    return kWorkerExitBadRequest;
  }
#endif  // LOOM_WIRE_HAS_PROCESS
}

void CampaignResult::merge(const CampaignResult& other) {
  traces += other.traces;
  events += other.events;
  valid_accepted += other.valid_accepted;
  oracle_disagreements += other.oracle_disagreements;
  viapsl_false_alarms += other.viapsl_false_alarms;
  for (std::size_t k = 0; k < 5; ++k) mutation[k].merge(other.mutation[k]);
  monitor_stats.merge(other.monitor_stats);
  compile_stats.merge(other.compile_stats);
  trace_cache_hits += other.trace_cache_hits;
  trace_cache_misses += other.trace_cache_misses;
  checkpoint_hits += other.checkpoint_hits;
  events_skipped += other.events_skipped;
  worker_retries += other.worker_retries;
  lane_waves += other.lane_waves;
  lanes_filled += other.lanes_filled;
  lane_capacity += other.lane_capacity;
}

std::vector<CampaignResult::DiagnosticCounter>
CampaignResult::diagnostic_counters() const {
  // Guarded ratio: a zero denominator means "no such work happened", which
  // reports as 0 — bench counters and the JSON baselines must never hold
  // NaN (it is unorderable, so a regression gate could not threshold it).
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const double trace_hits = static_cast<double>(trace_cache_hits);
  const double trace_misses = static_cast<double>(trace_cache_misses);
  const double plan_hits = static_cast<double>(compile_stats.plan_cache_hits);
  const double plan_misses =
      static_cast<double>(compile_stats.plan_cache_misses);
  const double stamped = static_cast<double>(compile_stats.instances_stamped);
  const double reuses = static_cast<double>(compile_stats.instance_reuses);
  const double skipped = static_cast<double>(events_skipped);
  const double stepped = static_cast<double>(monitor_stats.events);
  const double filled = static_cast<double>(lanes_filled);
  const double capacity = static_cast<double>(lane_capacity);
  return {
      {"trace_cache_hit_rate", ratio(trace_hits, trace_hits + trace_misses)},
      {"plan_cache_hit_rate", ratio(plan_hits, plan_hits + plan_misses)},
      {"instance_reuse_rate", ratio(reuses, stamped + reuses)},
      {"checkpoint_hits", static_cast<double>(checkpoint_hits)},
      {"events_skipped", skipped},
      {"skip_ratio", ratio(skipped, skipped + stepped)},
      // How full the waves ran: filled lanes over offered capacity.  A
      // scalar campaign (no waves) reports 0 by the guard; a drop in a
      // batched campaign means waves flushing emptier — a scheduling
      // regression tools/bench_compare.py gates on.
      {"lane_occupancy", ratio(filled, capacity)},
      {"lane_waves", static_cast<double>(lane_waves)},
      {"backend_viapsl",
       compile_stats.backend_chosen == mon::Backend::ViaPSL ? 1.0 : 0.0},
      {"backend_vm",
       compile_stats.backend_chosen == mon::Backend::Vm ? 1.0 : 0.0},
  };
}

std::string CampaignResult::report(const spec::Alphabet&,
                                   bool with_engine_diagnostics) const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "campaign: %zu traces (%zu events), %zu accepted, "
                "%zu oracle disagreements, %zu ViaPSL false alarms\n",
                traces, events, valid_accepted, oracle_disagreements,
                viapsl_false_alarms);
  out += buf;
  std::snprintf(buf, sizeof buf, "backend: %s (requested %s)\n",
                mon::to_string(compile_stats.backend_chosen),
                mon::to_string(compile_stats.backend_requested));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "coverage: alphabet %.0f%%, recognizer states %.0f%%\n",
                alphabet_coverage * 100.0,
                recognizer_state_coverage * 100.0);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "monitors: %llu ops over %llu events (worst %llu/event)\n",
                static_cast<unsigned long long>(monitor_stats.ops),
                static_cast<unsigned long long>(monitor_stats.events),
                static_cast<unsigned long long>(monitor_stats.max_ops_per_event));
  out += buf;
  for (std::size_t k = 0; k < 5; ++k) {
    const auto& m = mutation[k];
    std::snprintf(buf, sizeof buf,
                  "mutation %-14s: %3zu applied, %3zu invalid, %3zu "
                  "detected, %zu missed\n",
                  to_string(kAllKinds[k]), m.applied, m.invalid, m.detected,
                  m.missed);
    out += buf;
  }
  if (with_engine_diagnostics) {
    // Engine accounting, not semantic result: the default report must stay
    // byte-identical across every performance knob (the differential
    // tests' yardstick), so these lines are opt-in.
    std::snprintf(buf, sizeof buf,
                  "engine: %zu trace-cache hits, %zu misses\n",
                  trace_cache_hits, trace_cache_misses);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "replay: %zu checkpoint restores, %zu prefix events "
                  "skipped\n",
                  checkpoint_hits, events_skipped);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "lanes: %llu waves, %llu/%llu lanes filled\n",
                  static_cast<unsigned long long>(lane_waves),
                  static_cast<unsigned long long>(lanes_filled),
                  static_cast<unsigned long long>(lane_capacity));
    out += buf;
  }
  // Semantic, not diagnostic: a degraded run (allow_partial absorbing an
  // exhausted worker slot) must announce exactly which shards never ran.
  for (const auto& f : shard_failures) {
    std::snprintf(buf, sizeof buf, "degraded: shard %zu (units [%zu,%zu)) lost on worker %zu: ",
                  f.shard, f.unit_begin, f.unit_end, f.worker);
    out += buf;
    out += f.diagnostic;
    out += '\n';
  }
  out += ok() ? "campaign PASSED\n" : "campaign FAILED\n";
  return out;
}

}  // namespace loom::abv
