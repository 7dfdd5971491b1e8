// Runtime throughput (google-benchmark): events/second sustained by the
// Drct monitors vs the materialized ViaPSL clause monitors, plus parser
// and stimuli-generation rates.  Complements Figure 6's abstract op counts
// with wall-clock numbers on this host.
//
// The campaign benchmarks additionally print heap-allocation counters
// (allocs/unit, allocs/mutant) from support::AllocCounter — this binary
// links the counting operator new/delete (src/support/alloc_hooks.cpp), so
// the zero-allocation steady state is a printed number a regression moves,
// not folklore.
#include <benchmark/benchmark.h>

#include <chrono>

#include "abv/campaign.hpp"
#include "abv/stimuli.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"
#include "wire/wire.hpp"
#include "bench_json.hpp"
#include "mon/bytecode.hpp"
#include "mon/monitors.hpp"
#include "mon/vm.hpp"
#include "psl/clause_monitor.hpp"
#include "sim/scheduler.hpp"
#include "spec/parser.hpp"
#include "support/alloc_counter.hpp"

namespace {

using namespace loom;

// Per-iteration tally for the campaign loops: heap allocations (reported
// per work unit — a seed's valid phase or one seed×kind mutation batch —
// and per mutant attempt; thread-local counters only see the serial
// campaigns' own thread, which is exactly the steady-state loop being
// measured), wall time per unit, and the engine diagnostics from
// CampaignResult summed across iterations.  report() emits the stable
// counter schema the tracked BENCH_*.json baselines record — names are
// API (tools/bench_compare.py thresholds them by name); every ratio
// guards its denominator via bench::safe_ratio, so a zero-work shape
// reports 0, never NaN.
struct CampaignTally {
  std::uint64_t allocs = 0;
  std::uint64_t units = 0;
  std::uint64_t mutants = 0;
  std::uint64_t monitor_events = 0;
  double seconds = 0.0;
  std::uint64_t trace_cache_hits = 0;
  std::uint64_t trace_cache_misses = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t instances_stamped = 0;
  std::uint64_t instance_reuses = 0;
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t events_skipped = 0;
  std::uint64_t lane_waves = 0;
  std::uint64_t lanes_filled = 0;
  std::uint64_t lane_capacity = 0;
  bool backend_viapsl = false;
  bool backend_vm = false;

  /// Times one campaign run and folds its diagnostics into the tally.
  template <typename Run>
  auto timed(Run&& run) {
    const auto begin = std::chrono::steady_clock::now();
    auto result = run();
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    return result;
  }

  void absorb(const abv::CampaignResult& r) {
    monitor_events += r.monitor_stats.events;
    trace_cache_hits += r.trace_cache_hits;
    trace_cache_misses += r.trace_cache_misses;
    plan_cache_hits += r.compile_stats.plan_cache_hits;
    plan_cache_misses += r.compile_stats.plan_cache_misses;
    instances_stamped += r.compile_stats.instances_stamped;
    instance_reuses += r.compile_stats.instance_reuses;
    checkpoint_hits += r.checkpoint_hits;
    events_skipped += r.events_skipped;
    lane_waves += r.lane_waves;
    lanes_filled += r.lanes_filled;
    lane_capacity += r.lane_capacity;
    backend_viapsl = r.compile_stats.backend_chosen == mon::Backend::ViaPSL;
    backend_vm = r.compile_stats.backend_chosen == mon::Backend::Vm;
  }

  void report(benchmark::State& state) const {
    using bench::safe_ratio;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    if (units != 0) {
      state.counters["wall/unit"] =
          benchmark::Counter(safe_ratio(seconds * 1e9, d(units)));  // ns
      if (support::AllocCounter::hooks_linked()) {
        state.counters["allocs/unit"] =
            benchmark::Counter(safe_ratio(d(allocs), d(units)));
        if (mutants != 0) {
          state.counters["allocs/mutant"] =
              benchmark::Counter(safe_ratio(d(allocs), d(mutants)));
        }
      }
    }
    state.counters["trace_cache_hit_rate"] = benchmark::Counter(safe_ratio(
        d(trace_cache_hits), d(trace_cache_hits + trace_cache_misses)));
    state.counters["plan_cache_hit_rate"] = benchmark::Counter(safe_ratio(
        d(plan_cache_hits), d(plan_cache_hits + plan_cache_misses)));
    state.counters["instance_reuse_rate"] = benchmark::Counter(safe_ratio(
        d(instance_reuses), d(instances_stamped + instance_reuses)));
    state.counters["checkpoint_hits"] = benchmark::Counter(d(checkpoint_hits));
    state.counters["events_skipped"] = benchmark::Counter(d(events_skipped));
    state.counters["skip_ratio"] = benchmark::Counter(safe_ratio(
        d(events_skipped), d(events_skipped) + d(monitor_events)));
    state.counters["lane_occupancy"] = benchmark::Counter(
        safe_ratio(d(lanes_filled), d(lane_capacity)));
    state.counters["lane_waves"] = benchmark::Counter(d(lane_waves));
    state.counters["backend_viapsl"] =
        benchmark::Counter(backend_viapsl ? 1.0 : 0.0);
    state.counters["backend_vm"] = benchmark::Counter(backend_vm ? 1.0 : 0.0);
  }
};

struct Fixture {
  spec::Alphabet ab;
  spec::Property property;
  spec::Trace trace;

  explicit Fixture(const char* source, std::size_t rounds = 64)
      : property(parse(source)) {
    support::Rng rng(42);
    abv::StimuliOptions opt;
    opt.rounds = rounds;
    trace = abv::generate_valid(property, ab, rng, opt);
  }

  spec::Property parse(const char* source) {
    support::DiagnosticSink sink;
    auto p = spec::parse_property(source, ab, sink);
    if (!p) throw std::runtime_error(sink.to_string());
    return *p;
  }
};

const char* kConfig[] = {
    "(n << i, true)",
    "(({n1, n2, n3, n4}, &) << i, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(n1 => n2 < n3 < n4, 1ms)",
};

void BM_DrctMonitor(benchmark::State& state) {
  Fixture fx(kConfig[state.range(0)]);
  auto monitor = mon::make_monitor(fx.property);
  for (auto _ : state) {
    monitor->reset();
    for (const auto& ev : fx.trace) monitor->observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor->verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_DrctMonitor)->DenseRange(0, 3);

void BM_VmMonitor(benchmark::State& state) {
  // The same trace replay as BM_DrctMonitor through the bytecode VM: one
  // compiled program, one frame, reset-reused per iteration.  Verdicts and
  // the Figure-6 op counts are bit-identical to the Drct row by contract
  // (tests/mon_bytecode_test.cpp); the delta is pure dispatch mechanics.
  Fixture fx(kConfig[state.range(0)]);
  mon::VmMonitor monitor(mon::compile_vm(fx.property));
  for (auto _ : state) {
    monitor.reset();
    for (const auto& ev : fx.trace) monitor.observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor.verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_VmMonitor)->DenseRange(0, 3);

void BM_VmLaneBatch(benchmark::State& state) {
  // Many frames of one program advanced block-lockstep: the campaign
  // shard's mutant shape.  Items processed counts every lane's events, so
  // the rate is directly comparable to BM_VmMonitor's single frame.
  constexpr std::size_t kLanes = 16;
  Fixture fx(kConfig[state.range(0)]);
  mon::VmLaneBatch lanes(mon::compile_vm(fx.property), kLanes);
  std::vector<const spec::Trace*> traces(kLanes, &fx.trace);
  const std::vector<std::size_t> starts(kLanes, 0);
  for (auto _ : state) {
    for (std::size_t l = 0; l < kLanes; ++l) lanes.reset(l);
    lanes.run(traces, starts);
    benchmark::DoNotOptimize(lanes.verdict(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size() * kLanes));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_VmLaneBatch)->DenseRange(0, 3);

void BM_ViaPslMonitor(benchmark::State& state) {
  Fixture fx(kConfig[state.range(0)]);
  psl::ClauseMonitor monitor(psl::encode(fx.property));
  for (auto _ : state) {
    monitor.reset();
    for (const auto& ev : fx.trace) monitor.observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor.verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_ViaPslMonitor)->DenseRange(0, 3);

void BM_ViaPslWideRange(benchmark::State& state) {
  // Materialized ViaPSL with a growing range width: the per-event cost of
  // the clause network grows quadratically until materialization becomes
  // impossible (the Figure 6 [100,60K] rows).
  const auto width = static_cast<std::uint32_t>(state.range(0));
  const std::string source =
      "(n[1," + std::to_string(width) + "] << i, true)";
  Fixture fx(source.c_str(), 8);
  psl::ClauseMonitor monitor(psl::encode(fx.property));
  for (auto _ : state) {
    monitor.reset();
    for (const auto& ev : fx.trace) monitor.observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor.verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetComplexityN(width);
}
BENCHMARK(BM_ViaPslWideRange)->RangeMultiplier(4)->Range(1, 256);

void BM_DrctWideRange(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  const std::string source =
      "(n[1," + std::to_string(width) + "] << i, true)";
  Fixture fx(source.c_str(), 8);
  auto monitor = mon::make_monitor(fx.property);
  for (auto _ : state) {
    monitor->reset();
    for (const auto& ev : fx.trace) monitor->observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor->verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetComplexityN(width);
}
BENCHMARK(BM_DrctWideRange)->RangeMultiplier(4)->Range(1, 256);

void BM_CampaignSharded(benchmark::State& state) {
  // The full Fig. 1 loop on the sharded engine; the argument is the thread
  // count (1 = serial baseline).  Deterministic across the sweep, so the
  // runs are directly comparable.
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 8;
  opt.stimuli.rounds = 4;
  opt.mutants_per_kind = 8;
  opt.threads = static_cast<std::size_t>(state.range(0));
  opt.shard_size = 1;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();  // workers' allocations not included
    tally.units += opt.seeds * 6;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
  state.SetLabel("threads=" + std::to_string(opt.threads));
}
BENCHMARK(BM_CampaignSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_CampaignMutationHeavy(benchmark::State& state) {
  // Mutation-heavy campaign on the default engine: per-seed trace cache,
  // per-worker mutant buffers, per-shard monitor pools and — Auto
  // resolving to the VM — lane-batched waves.  Its results equal the
  // reference campaign's (the differential suites); the wall clock and
  // allocs/mutant are the numbers.
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 64;
  opt.stimuli.rounds = 16;  // long traces
  opt.mutants_per_kind = 4;
  opt.threads = 1;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6;
    tally.mutants += opt.seeds * 5 * opt.mutants_per_kind;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
}
BENCHMARK(BM_CampaignMutationHeavy)->UseRealTime();

void BM_CampaignLaneBatch(benchmark::State& state) {
  // Lane-width sweep of the wave engine on the mutation-heavy VM shape:
  // the argument is CampaignOptions::lane_width (1 = the scalar
  // per-mutant loop, the eighth invariant's differential baseline).
  // Every width produces bit-identical results (campaign_lane_diff_test);
  // the wall clock per unit, the block-lockstep sweep's amortized
  // dispatch, and the printed lane_occupancy are the win.  16 mutants per
  // kind, so even width-16 waves can fill — occupancy measures oracle
  // rejections and unit tails, not an artificially starved fixture.
  const auto width = static_cast<std::size_t>(state.range(0));
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 64;
  opt.stimuli.rounds = 16;  // long traces: suffix replay is the hot path
  opt.mutants_per_kind = 16;
  opt.threads = 1;
  opt.backend = mon::Backend::Vm;
  opt.lane_width = width;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6;
    tally.mutants += opt.seeds * 5 * opt.mutants_per_kind;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
  state.SetLabel(width == 1 ? "scalar baseline"
                            : "lane_width=" + std::to_string(width));
}
BENCHMARK(BM_CampaignLaneBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime();

void BM_CampaignIncremental(benchmark::State& state) {
  // Checkpointed, suffix-only mutant replay vs full replay on the
  // mutation-heavy, long-trace shape (the BM_CampaignMutationHeavy
  // workload where per-mutant cost is replay-dominated).  Gear 0
  // (checkpoint_stride 0) replays every mutant from event 0; gear 1
  // (stride 32) restores the floor checkpoint and replays only
  // [floor, end).  Both produce bit-identical results
  // (campaign_incremental_diff_test); the wall clock and the printed
  // skip ratio — prefix events not re-stepped over the events the
  // monitors would have stepped in full — are the win.  The timed
  // property makes StallDeadline mutants (long preserved prefixes) part
  // of the mix, where the suffix is shortest.
  const bool incremental = state.range(0) != 0;
  Fixture fx(kConfig[3], 48);
  abv::CampaignOptions opt;
  opt.seeds = 24;
  opt.stimuli.rounds = 32;  // long traces: prefix re-evaluation dominates
  opt.mutants_per_kind = 8;
  opt.threads = 1;
  opt.checkpoint_stride = incremental ? 32 : 0;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6;
    tally.mutants += opt.seeds * 5 * opt.mutants_per_kind;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  // The tally emits skip_ratio on both gears (0 for full replay) with a
  // guarded denominator, so the counter schema is identical across the
  // sweep and a zero-mutant shape can never print nan.
  tally.report(state);
  state.SetLabel(incremental ? "incremental (suffix-only) replay"
                             : "full replay");
}
BENCHMARK(BM_CampaignIncremental)->Arg(0)->Arg(1)->UseRealTime();

void BM_CampaignCompiledPlans(benchmark::State& state) {
  // Translate-once on the mutation-heavy shape: six units per seed and a
  // monitor per killed mutant, all stamped or reset-reused from one plan
  // per property (a per-monitor translation would run hundreds of times
  // per seed).
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 48;
  opt.stimuli.rounds = 4;
  opt.mutants_per_kind = 24;  // mutation-heavy: stamping dominates
  opt.threads = 1;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6;
    tally.mutants += opt.seeds * 5 * opt.mutants_per_kind;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
}
BENCHMARK(BM_CampaignCompiledPlans)->UseRealTime();

void BM_CampaignManyProperties(benchmark::State& state) {
  // The many-property shape: run_campaigns over a batch, where gear 0 pays
  // exactly one translation per property per campaign, and the plan-cache
  // gear 1 exactly one per property for the whole benchmark — the
  // long-lived-embedder steady state, where every iteration after the
  // first recompiles nothing (CampaignOptions::plan_cache).
  const bool cached = state.range(0) != 0;
  spec::Alphabet ab;
  std::vector<spec::Property> props;
  for (const char* source : kConfig) {
    support::DiagnosticSink sink;
    auto p = spec::parse_property(source, ab, sink);
    if (!p) throw std::runtime_error(sink.to_string());
    props.push_back(*p);
  }
  std::vector<const spec::Property*> ptrs;
  for (const auto& p : props) ptrs.push_back(&p);
  abv::CampaignOptions opt;
  opt.seeds = 16;
  opt.stimuli.rounds = 4;
  opt.mutants_per_kind = 12;
  opt.threads = 1;
  mon::CompiledPropertyCache plan_cache;
  if (cached) opt.plan_cache = &plan_cache;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const auto results =
        tally.timed([&] { return abv::run_campaigns(ptrs, ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6 * ptrs.size();
    for (const auto& r : results) tally.absorb(r);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  // plan_cache_hit_rate from the tally replaces the old raw hit counter:
  // gear 1 converges toward 1.0 as iterations replay the warm cache.
  tally.report(state);
  state.SetLabel(cached ? "+cross-campaign plan cache" : "compiled plans");
}
BENCHMARK(BM_CampaignManyProperties)->Arg(0)->Arg(1)->UseRealTime();

#if LOOM_WIRE_HAS_PROCESS
void BM_WorkerSupervision(benchmark::State& state) {
  // Prices the supervised drain (poll-multiplexed, nonblocking readers,
  // a per-frame deadline armed, reaping at EOF) on a clean fork-mode
  // cross-process campaign: what the supervision machinery costs when
  // nothing goes wrong.
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 8;
  opt.stimuli.rounds = 4;
  opt.mutants_per_kind = 8;
  opt.threads = 1;
  opt.shard_size = 1;
  opt.workers = 2;
  opt.worker_timeout_ms = 10000;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();  // workers' allocations not included
    tally.units += opt.seeds * 6;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
}
BENCHMARK(BM_WorkerSupervision)->UseRealTime();
#endif  // LOOM_WIRE_HAS_PROCESS

void BM_WireRoundTrip(benchmark::State& state) {
  // The worker protocol's two sizeable frames: Arg 0 frames and re-decodes
  // a shard partial (what a worker sends per shard), Arg 1 a request (what
  // the parent sends per worker dispatch: alphabet, property text, options
  // and a 24-shard slice).  One Encoder and capacity-reusing decode
  // targets, the steady-state shape of a parent draining worker pipes — so
  // allocs/frame measures the reuse discipline, not first-touch growth.
  const bool request = state.range(0) != 0;
  Fixture fx(kConfig[2], 64);

  wire::WorkerPartialData partial;
  partial.shard = 17;
  abv::CampaignResult& result = partial.partial;
  result.traces = 24;
  result.events = 120000;
  result.valid_accepted = 24;
  for (auto& m : result.mutation) {
    m.applied = 160;
    m.invalid = 150;
    m.detected = 150;
  }
  result.monitor_stats.ops = 2400000;
  result.monitor_stats.events = 120000;
  result.monitor_stats.max_ops_per_event = 24;
  result.compile_stats.instances_stamped = 12;
  result.compile_stats.instance_reuses = 930;
  result.trace_cache_hits = 120;
  result.trace_cache_misses = 24;
  result.checkpoint_hits = 700;
  result.events_skipped = 90000;
  result.lane_waves = 100;
  result.lanes_filled = 600;
  result.lane_capacity = 800;
  partial.alphabet_seen.assign(fx.ab.size(), true);

  wire::WorkerRequestData req;
  for (std::size_t i = 0; i < fx.ab.size(); ++i) {
    const auto n = static_cast<spec::Name>(i);
    req.names.push_back(fx.ab.text(n));
    req.directions.push_back(static_cast<std::uint8_t>(fx.ab.direction(n)));
  }
  req.properties.push_back(spec::to_string(fx.property, fx.ab));
  req.options.seeds = 8;
  req.options.stimuli.rounds = 4;
  req.options.mutants_per_kind = 8;
  for (std::uint64_t i = 0; i < 48; i += 2) req.shards.push_back({i, 0, i, i + 1});

  wire::Encoder enc;
  std::vector<std::uint8_t> framed;
  wire::WorkerPartialData partial_out;
  wire::WorkerRequestData request_out;
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    enc.clear();
    framed.clear();
    if (request) {
      wire::encode_worker_request(enc, req);
      wire::write_frame(framed, wire::Payload::WorkerRequest, enc);
    } else {
      wire::encode_worker_partial(enc, partial);
      wire::write_frame(framed, wire::Payload::WorkerPartial, enc);
    }
    wire::Frame frame;
    std::size_t consumed = 0;
    wire::DecodeError err;
    if (!wire::parse_frame(framed.data(), framed.size(), frame, consumed,
                           err)) {
      state.SkipWithError(err.to_string().c_str());
      return;
    }
    wire::Decoder d(frame.data, frame.size);
    bool ok;
    if (request) {
      ok = wire::decode_worker_request(d, request_out);
      benchmark::DoNotOptimize(request_out);
    } else {
      ok = wire::decode_worker_partial(d, partial_out);
      benchmark::DoNotOptimize(partial_out);
    }
    if (!ok || !d.exhausted()) {
      state.SkipWithError("decode failed");
      return;
    }
    bytes += framed.size();
    ++frames;
    allocs += scope.allocs();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  if (support::AllocCounter::hooks_linked()) {
    state.counters["allocs/frame"] = benchmark::Counter(bench::safe_ratio(
        static_cast<double>(allocs), static_cast<double>(frames)));
  }
  state.SetLabel(request ? "payload=request" : "payload=partial");
}
BENCHMARK(BM_WireRoundTrip)->Arg(0)->Arg(1);

void BM_MonitorModulePerEvent(benchmark::State& state) {
  // In-simulation stepping, one observe() per event: every step pays the
  // violation-callback check and the watchdog re-arm.
  Fixture fx(kConfig[state.range(0)]);
  for (auto _ : state) {
    sim::Scheduler scheduler;
    auto monitor = mon::make_monitor(fx.property);
    mon::MonitorModule module(scheduler, "mon", *monitor, fx.ab);
    for (const auto& ev : fx.trace) module.observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor->verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_MonitorModulePerEvent)->DenseRange(0, 3);

void BM_MonitorModuleBatch(benchmark::State& state) {
  // Batched fast path: the whole recorded slice in one observe_batch()
  // call, bookkeeping once at the end.
  Fixture fx(kConfig[state.range(0)]);
  for (auto _ : state) {
    sim::Scheduler scheduler;
    auto monitor = mon::make_monitor(fx.property);
    mon::MonitorModule module(scheduler, "mon", *monitor, fx.ab);
    module.observe_batch(fx.trace);
    benchmark::DoNotOptimize(monitor->verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_MonitorModuleBatch)->DenseRange(0, 3);

void BM_ParseProperty(benchmark::State& state) {
  const char* source =
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)";
  for (auto _ : state) {
    spec::Alphabet ab;
    support::DiagnosticSink sink;
    benchmark::DoNotOptimize(spec::parse_property(source, ab, sink));
  }
}
BENCHMARK(BM_ParseProperty);

void BM_GenerateStimuli(benchmark::State& state) {
  Fixture fx(kConfig[2], 1);
  support::Rng rng(5);
  abv::StimuliOptions opt;
  opt.rounds = static_cast<std::size_t>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    auto t = abv::generate_valid(fx.property, fx.ab, rng, opt);
    events += t.size();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_GenerateStimuli)->Arg(16)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
