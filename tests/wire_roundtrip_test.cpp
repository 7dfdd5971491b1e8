// The wire codec's identity half: decode(encode(x)) reproduces every
// field a worker payload carries — on handcrafted values, on seeded-RNG
// fuzzed values and on results the engine actually produced (as does
// campaign_lane_diff_test.cpp for waved results) — and leaves every field
// it does not carry at its default.  This is the contract the sixth
// engine invariant (in-process ≡ cross-process campaigns) rides on; the
// rejection half lives in wire_fuzz_test.cpp.  Also locks the buffer-reuse
// discipline: one Encoder serves many frames without growing.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "spec/ast.hpp"
#include "support/rng.hpp"
#include "testing.hpp"
#include "wire/payload.hpp"
#include "wire/wire.hpp"

namespace loom::wire {
namespace {

abv::CampaignOptions fuzz_options(support::Rng& rng) {
  abv::CampaignOptions o;
  o.first_seed = rng.next();
  o.seeds = rng.below(100);
  o.stimuli.rounds = rng.below(10);
  o.stimuli.noise_permille = static_cast<std::uint32_t>(rng.below(1000));
  o.stimuli.noise_names = rng.below(5);
  o.stimuli.max_gap_ns = rng.below(100);
  o.mutants_per_kind = rng.below(50);
  o.check_viapsl = rng.below(2) != 0;
  o.backend = static_cast<mon::Backend>(rng.below(4));
  o.threads = rng.below(16);
  o.shard_size = rng.below(64);
  o.checkpoint_stride = rng.below(100);
  o.workers = rng.below(8);
  for (std::uint64_t i = rng.below(4); i > 0; --i) {
    o.worker_command.push_back("arg" + std::to_string(i));
  }
  o.worker_fault = static_cast<abv::WorkerFault>(rng.below(8));
  o.worker_fault_at = rng.below(16);
  o.worker_timeout_ms = rng.below(10000);
  o.worker_retries = rng.below(8);
  o.allow_partial = rng.below(2) != 0;
  o.lane_width = 1 + rng.below(32);
  return o;
}

abv::CampaignResult fuzz_result(support::Rng& rng) {
  abv::CampaignResult r;
  r.traces = rng.below(1000);
  r.events = rng.below(100000);
  r.valid_accepted = rng.below(1000);
  r.oracle_disagreements = rng.below(10);
  r.viapsl_false_alarms = rng.below(10);
  for (auto& m : r.mutation) {
    m.applied = rng.below(500);
    m.invalid = rng.below(500);
    m.detected = rng.below(500);
    m.missed = rng.below(5);
  }
  r.alphabet_coverage = rng.uniform01();
  r.recognizer_state_coverage = rng.uniform01();
  r.monitor_stats.ops = rng.next();
  r.monitor_stats.events = rng.below(1u << 20);
  r.monitor_stats.max_ops_per_event = rng.below(1000);
  r.compile_stats.plans_built = rng.below(10);
  r.compile_stats.viapsl_encodings = rng.below(10);
  r.compile_stats.instances_stamped = rng.below(10000);
  r.compile_stats.instance_reuses = rng.below(10000);
  r.compile_stats.plan_cache_hits = rng.below(100);
  r.compile_stats.plan_cache_misses = rng.below(100);
  r.compile_stats.backend_requested = static_cast<mon::Backend>(rng.below(4));
  r.compile_stats.backend_chosen = static_cast<mon::Backend>(rng.below(4));
  r.trace_cache_hits = rng.below(1000);
  r.trace_cache_misses = rng.below(1000);
  r.checkpoint_hits = rng.below(1000);
  r.events_skipped = rng.below(100000);
  r.worker_retries = rng.below(10);
  r.lane_waves = rng.below(10000);
  r.lanes_filled = rng.below(100000);
  r.lane_capacity = r.lanes_filled + rng.below(100000);
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    abv::CampaignResult::ShardFailure f;
    f.worker = rng.below(8);
    f.shard = rng.below(64);
    f.unit_begin = rng.below(100);
    f.unit_end = f.unit_begin + rng.below(100);
    f.diagnostic = "worker " + std::to_string(f.worker) + ": lost";
    r.shard_failures.push_back(std::move(f));
  }
  return r;
}

// What the request codec carries of `o`: the options a worker's engine
// reads, with the six supervisor-only options (and plan_cache) back at
// their defaults.
abv::CampaignOptions engine_fields_of(const abv::CampaignOptions& o) {
  const abv::CampaignOptions defaults;
  abv::CampaignOptions e = o;
  e.shard_size = defaults.shard_size;
  e.workers = defaults.workers;
  e.worker_command = defaults.worker_command;
  e.worker_timeout_ms = defaults.worker_timeout_ms;
  e.worker_retries = defaults.worker_retries;
  e.allow_partial = defaults.allow_partial;
  e.plan_cache = nullptr;
  return e;
}

// What the partial codec carries of `r`: the counters a shard sets, with
// every field run_campaigns fills in itself back at its default.
abv::CampaignResult shard_fields_of(const abv::CampaignResult& r) {
  const abv::CampaignResult defaults;
  abv::CampaignResult s = r;
  s.alphabet_coverage = defaults.alphabet_coverage;
  s.recognizer_state_coverage = defaults.recognizer_state_coverage;
  s.compile_stats = defaults.compile_stats;
  s.compile_stats.instances_stamped = r.compile_stats.instances_stamped;
  s.compile_stats.instance_reuses = r.compile_stats.instance_reuses;
  s.worker_retries = defaults.worker_retries;
  s.shard_failures.clear();
  return s;
}

// Puts back into a decoded partial what run_campaigns fills in itself —
// exactly the fields shard_fields_of resets — taking them from `from`.
void refill_parent_fields(abv::CampaignResult& r,
                          const abv::CampaignResult& from) {
  r.alphabet_coverage = from.alphabet_coverage;
  r.recognizer_state_coverage = from.recognizer_state_coverage;
  const std::uint64_t stamped = r.compile_stats.instances_stamped;
  const std::uint64_t reuses = r.compile_stats.instance_reuses;
  r.compile_stats = from.compile_stats;
  r.compile_stats.instances_stamped = stamped;
  r.compile_stats.instance_reuses = reuses;
  r.worker_retries = from.worker_retries;
  r.shard_failures = from.shard_failures;
}

void expect_options_equal(const abv::CampaignOptions& a,
                          const abv::CampaignOptions& b, const char* what) {
  EXPECT_EQ(a.first_seed, b.first_seed) << what;
  EXPECT_EQ(a.seeds, b.seeds) << what;
  EXPECT_EQ(a.stimuli.rounds, b.stimuli.rounds) << what;
  EXPECT_EQ(a.stimuli.noise_permille, b.stimuli.noise_permille) << what;
  EXPECT_EQ(a.stimuli.noise_names, b.stimuli.noise_names) << what;
  EXPECT_EQ(a.stimuli.max_gap_ns, b.stimuli.max_gap_ns) << what;
  EXPECT_EQ(a.mutants_per_kind, b.mutants_per_kind) << what;
  EXPECT_EQ(a.check_viapsl, b.check_viapsl) << what;
  EXPECT_EQ(a.backend, b.backend) << what;
  EXPECT_EQ(a.threads, b.threads) << what;
  EXPECT_EQ(a.shard_size, b.shard_size) << what;
  EXPECT_EQ(a.checkpoint_stride, b.checkpoint_stride) << what;
  EXPECT_EQ(a.workers, b.workers) << what;
  EXPECT_EQ(a.worker_command, b.worker_command) << what;
  EXPECT_EQ(a.worker_fault, b.worker_fault) << what;
  EXPECT_EQ(a.worker_fault_at, b.worker_fault_at) << what;
  EXPECT_EQ(a.worker_timeout_ms, b.worker_timeout_ms) << what;
  EXPECT_EQ(a.worker_retries, b.worker_retries) << what;
  EXPECT_EQ(a.allow_partial, b.allow_partial) << what;
  EXPECT_EQ(a.lane_width, b.lane_width) << what;
  EXPECT_EQ(a.plan_cache, b.plan_cache) << what;
}

void expect_results_equal(const abv::CampaignResult& a,
                          const abv::CampaignResult& b, const char* what) {
  EXPECT_TRUE(loom::testing::results_identical(a, b)) << what;
  // results_identical deliberately skips the engine diagnostics; the wire
  // must not.
  EXPECT_EQ(a.trace_cache_hits, b.trace_cache_hits) << what;
  EXPECT_EQ(a.trace_cache_misses, b.trace_cache_misses) << what;
  EXPECT_EQ(a.checkpoint_hits, b.checkpoint_hits) << what;
  EXPECT_EQ(a.events_skipped, b.events_skipped) << what;
  EXPECT_EQ(a.compile_stats.plans_built, b.compile_stats.plans_built) << what;
  EXPECT_EQ(a.compile_stats.viapsl_encodings, b.compile_stats.viapsl_encodings)
      << what;
  EXPECT_EQ(a.compile_stats.instances_stamped,
            b.compile_stats.instances_stamped)
      << what;
  EXPECT_EQ(a.compile_stats.instance_reuses, b.compile_stats.instance_reuses)
      << what;
  EXPECT_EQ(a.compile_stats.plan_cache_hits, b.compile_stats.plan_cache_hits)
      << what;
  EXPECT_EQ(a.compile_stats.plan_cache_misses,
            b.compile_stats.plan_cache_misses)
      << what;
  EXPECT_EQ(a.worker_retries, b.worker_retries) << what;
  EXPECT_EQ(a.lane_waves, b.lane_waves) << what;
  EXPECT_EQ(a.lanes_filled, b.lanes_filled) << what;
  EXPECT_EQ(a.lane_capacity, b.lane_capacity) << what;
  EXPECT_EQ(a.shard_failures.size(), b.shard_failures.size()) << what;
}

WorkerRequestData fuzz_request(support::Rng& rng) {
  WorkerRequestData req;
  for (std::uint64_t i = rng.below(10); i > 0; --i) {
    req.names.push_back("name" + std::to_string(i));
    req.directions.push_back(static_cast<std::uint8_t>(rng.below(3)));
  }
  for (std::uint64_t i = rng.below(4); i > 0; --i) {
    req.properties.push_back("(n" + std::to_string(i) + " << i, true)");
  }
  req.options = fuzz_options(rng);
  for (std::uint64_t i = rng.below(6); i > 0; --i) {
    req.shards.push_back(
        {rng.below(100), rng.below(4), rng.below(24), rng.below(24)});
  }
  return req;
}

WorkerPartialData fuzz_partial(support::Rng& rng) {
  WorkerPartialData part;
  part.shard = rng.below(100);
  part.job = rng.below(4);
  part.partial = fuzz_result(rng);
  part.alphabet_seen.assign(rng.below(70), false);
  for (std::size_t i = 0; i < part.alphabet_seen.size(); ++i) {
    part.alphabet_seen[i] = rng.below(2) != 0;
  }
  part.has_recognizer = rng.below(2) != 0;
  if (part.has_recognizer) {
    for (std::uint64_t f = rng.below(3); f > 0; --f) {
      std::vector<abv::RecognizerCoverage::RangeCov> frag;
      for (std::uint64_t r = rng.below(3); r > 0; --r) {
        abv::RecognizerCoverage::RangeCov row;
        row.name = static_cast<spec::Name>(rng.below(10));
        row.state_mask = static_cast<std::uint8_t>(rng.below(64));
        row.max_count = static_cast<std::uint32_t>(rng.below(20));
        row.lo = static_cast<std::uint32_t>(1 + rng.below(4));
        row.hi = row.lo + static_cast<std::uint32_t>(rng.below(4));
        frag.push_back(row);
      }
      part.recognizer_rows.push_back(frag);
    }
  }
  return part;
}

// Frames a payload and parses it back, asserting the frame layer is
// transparent; returns the parsed payload view.
void frame_and_parse(const Encoder& enc, Payload tag,
                     std::vector<std::uint8_t>& bytes, Frame& frame) {
  bytes.clear();
  write_frame(bytes, tag, enc);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + enc.size());
  std::size_t consumed = 0;
  DecodeError err;
  ASSERT_TRUE(parse_frame(bytes.data(), bytes.size(), frame, consumed, err))
      << err.to_string();
  ASSERT_EQ(consumed, bytes.size());
  ASSERT_EQ(frame.tag, tag);
  ASSERT_EQ(frame.size, enc.size());
}

TEST(WireRoundTrip, PrimitivesSurviveInOrder) {
  Encoder e;
  e.put_u8(0xAB);
  e.put_bool(true);
  e.put_bool(false);
  e.put_u32(0xDEADBEEFu);
  e.put_u64(0x0123456789ABCDEFull);
  e.put_string("hello");
  e.put_string("");
  e.put_bits({true, false, true, true});
  std::vector<bool> wide(130, false);
  wide[0] = wide[64] = wide[129] = true;
  e.put_bits(wide);

  Decoder d(e.bytes());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_TRUE(d.boolean());
  EXPECT_FALSE(d.boolean());
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  std::string s;
  d.string_into(s);
  EXPECT_EQ(s, "hello");
  d.string_into(s);
  EXPECT_EQ(s, "");
  std::vector<bool> bits;
  d.bits_into(bits);
  EXPECT_EQ(bits, (std::vector<bool>{true, false, true, true}));
  d.bits_into(bits);
  EXPECT_EQ(bits, wide);
  EXPECT_TRUE(d.exhausted()) << "remaining=" << d.remaining();
}

TEST(WireRoundTrip, RequestCarriesEngineOptionsAndDefaultsTheSupervisorOnes) {
  // Every option the worker's engine reads survives; the six options only
  // the supervisor reads are set away from their defaults here and must
  // arrive at their defaults — workers == 0 in particular, so a worker
  // can never fork a fleet of its own.
  mon::CompiledPropertyCache cache;
  abv::CampaignOptions o;
  o.first_seed = 77;
  o.seeds = 5;
  o.stimuli.rounds = 3;
  o.stimuli.noise_permille = 125;
  o.stimuli.noise_names = 2;
  o.stimuli.max_gap_ns = 40;
  o.mutants_per_kind = 6;
  o.check_viapsl = true;
  o.backend = mon::Backend::Vm;
  o.threads = 3;
  o.checkpoint_stride = 9;
  o.worker_fault = abv::WorkerFault::SlowStream;
  o.worker_fault_at = 2;
  o.lane_width = 4;
  o.shard_size = 7;
  o.workers = 4;
  o.worker_command = {"loomcheck", "--worker"};
  o.worker_timeout_ms = 2500;
  o.worker_retries = 3;
  o.allow_partial = true;
  o.plan_cache = &cache;

  WorkerRequestData req;
  req.options = o;
  Encoder enc;
  encode_worker_request(enc, req);
  std::vector<std::uint8_t> bytes;
  Frame frame;
  frame_and_parse(enc, Payload::WorkerRequest, bytes, frame);
  WorkerRequestData back;
  back.options.workers = 9;  // decode must not leave stale values behind
  back.options.worker_command = {"stale"};
  Decoder d(frame.data, frame.size);
  ASSERT_TRUE(decode_worker_request(d, back)) << d.error().to_string();
  EXPECT_TRUE(d.exhausted());

  const abv::CampaignOptions defaults;
  const abv::CampaignOptions& b = back.options;
  EXPECT_EQ(b.shard_size, defaults.shard_size);
  EXPECT_EQ(b.workers, 0u);
  EXPECT_TRUE(b.worker_command.empty());
  EXPECT_EQ(b.worker_timeout_ms, defaults.worker_timeout_ms);
  EXPECT_EQ(b.worker_retries, defaults.worker_retries);
  EXPECT_EQ(b.allow_partial, defaults.allow_partial);
  EXPECT_EQ(b.plan_cache, nullptr);
  expect_options_equal(b, engine_fields_of(o), "engine options");
}

TEST(WireRoundTrip, OptionsSurviveFuzzed) {
  // The options codec is private to the request: fuzzed options, framed
  // inside a request, come back as their engine fields — every
  // supervisor-only option and the borrowed plan_cache at their defaults.
  std::vector<std::uint8_t> bytes;
  Encoder enc;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    support::Rng rng = support::Rng::stream(0x0F75 + trial, 3);
    WorkerRequestData req;
    req.options = fuzz_options(rng);
    enc.clear();
    encode_worker_request(enc, req);
    Frame frame;
    frame_and_parse(enc, Payload::WorkerRequest, bytes, frame);
    WorkerRequestData back;
    Decoder d(frame.data, frame.size);
    ASSERT_TRUE(decode_worker_request(d, back)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    const std::string what = "trial " + std::to_string(trial);
    expect_options_equal(back.options, engine_fields_of(req.options),
                         what.c_str());
  }
}

TEST(WireRoundTrip, ResultsSurviveFuzzed) {
  // The result codec is private to the partial: a fuzzed result, framed
  // inside a partial, keeps every counter a shard sets; refilling the
  // fields run_campaigns owns reproduces the original.
  std::vector<std::uint8_t> bytes;
  Encoder enc;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    support::Rng rng = support::Rng::stream(0x4E54 + trial, 5);
    WorkerPartialData part;
    part.partial = fuzz_result(rng);
    enc.clear();
    encode_worker_partial(enc, part);
    Frame frame;
    frame_and_parse(enc, Payload::WorkerPartial, bytes, frame);
    WorkerPartialData back;
    Decoder d(frame.data, frame.size);
    ASSERT_TRUE(decode_worker_partial(d, back)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    const std::string what = "trial " + std::to_string(trial);
    expect_results_equal(back.partial, shard_fields_of(part.partial),
                         what.c_str());
    refill_parent_fields(back.partial, part.partial);
    expect_results_equal(back.partial, part.partial, what.c_str());
  }
}

TEST(WireRoundTrip, ARealCampaignResultSurvivesWithIdenticalReport) {
  // Not just fuzzed field soup: a result the engine actually produced
  // crosses as a partial, and once the parent-owned fields are refilled
  // it matches through the same report-bytes yardstick the invariant
  // grids use.  The Drct antecedent gives it recognizer coverage.
  spec::Alphabet ab;
  auto p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  abv::CampaignOptions opt;
  opt.seeds = 3;
  opt.stimuli.noise_permille = 50;
  opt.mutants_per_kind = 4;
  const abv::CampaignResult r = abv::run_campaign(p, ab, opt);
  ASSERT_GT(r.traces, 0u);

  WorkerPartialData part;
  part.partial = r;
  Encoder enc;
  encode_worker_partial(enc, part);
  std::vector<std::uint8_t> bytes;
  Frame frame;
  frame_and_parse(enc, Payload::WorkerPartial, bytes, frame);
  WorkerPartialData back;
  Decoder d(frame.data, frame.size);
  ASSERT_TRUE(decode_worker_partial(d, back)) << d.error().to_string();
  EXPECT_TRUE(d.exhausted());
  expect_results_equal(back.partial, shard_fields_of(r), "real campaign");
  refill_parent_fields(back.partial, r);
  expect_results_equal(back.partial, r, "real campaign");
  EXPECT_EQ(back.partial.report(ab), r.report(ab));
  EXPECT_EQ(back.partial.report(ab, true), r.report(ab, true));
}

TEST(WireRoundTrip, RequestReinternsTheParentAlphabetInAFreshOne) {
  // The request is self-contained: names in id order with their
  // directions, and each property's normalized text, rebuild the parent's
  // interning in an empty alphabet — the same ids, directions and
  // property texts — so plans and coverage rows agree across processes.
  spec::Alphabet ab;
  ab.output("zeta");
  ab.input("alpha");
  ab.name("mid");
  const spec::Property props[] = {
      loom::testing::parse("(({n1, n2}, &) < n3 << i, true)", ab),
      loom::testing::parse("(alpha < zeta << mid, true)", ab),
  };
  WorkerRequestData req;
  for (std::size_t i = 0; i < ab.size(); ++i) {
    const spec::Name n = static_cast<spec::Name>(i);
    req.names.push_back(ab.text(n));
    req.directions.push_back(static_cast<std::uint8_t>(ab.direction(n)));
  }
  for (const auto& prop : props) {
    req.properties.push_back(spec::to_string(prop, ab));
  }

  Encoder enc;
  encode_worker_request(enc, req);
  std::vector<std::uint8_t> bytes;
  Frame frame;
  frame_and_parse(enc, Payload::WorkerRequest, bytes, frame);
  WorkerRequestData back;
  Decoder d(frame.data, frame.size);
  ASSERT_TRUE(decode_worker_request(d, back)) << d.error().to_string();
  EXPECT_TRUE(d.exhausted());

  spec::Alphabet fresh;
  ASSERT_EQ(back.names.size(), back.directions.size());
  for (std::size_t i = 0; i < back.names.size(); ++i) {
    const std::string& text = back.names[i];
    const auto dir = static_cast<spec::Direction>(back.directions[i]);
    const spec::Name n = dir == spec::Direction::Input    ? fresh.input(text)
                         : dir == spec::Direction::Output ? fresh.output(text)
                                                          : fresh.name(text);
    EXPECT_EQ(n, static_cast<spec::Name>(i)) << back.names[i];
  }
  ASSERT_EQ(fresh.size(), ab.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    const spec::Name n = static_cast<spec::Name>(i);
    EXPECT_EQ(fresh.text(n), ab.text(n)) << i;
    EXPECT_EQ(fresh.direction(n), ab.direction(n)) << i;
  }
  ASSERT_EQ(back.properties.size(), std::size(props));
  for (std::size_t i = 0; i < back.properties.size(); ++i) {
    const spec::Property reparsed =
        loom::testing::parse(back.properties[i], fresh);
    EXPECT_EQ(spec::to_string(reparsed, fresh), spec::to_string(props[i], ab))
        << i;
  }
  EXPECT_EQ(fresh.size(), ab.size()) << "re-parsing interned a new name";
}

TEST(WireRoundTrip, WorkerProtocolPayloadsSurvive) {
  Encoder enc;
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    support::Rng rng = support::Rng::stream(0x3075 + trial, 7);
    const std::string what = "trial " + std::to_string(trial);
    const WorkerRequestData req = fuzz_request(rng);
    enc.clear();
    encode_worker_request(enc, req);
    WorkerRequestData back;
    Decoder d(enc.bytes());
    ASSERT_TRUE(decode_worker_request(d, back)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    EXPECT_EQ(back.names, req.names);
    EXPECT_EQ(back.directions, req.directions);
    EXPECT_EQ(back.properties, req.properties);
    expect_options_equal(back.options, engine_fields_of(req.options),
                         what.c_str());
    ASSERT_EQ(back.shards.size(), req.shards.size());
    for (std::size_t i = 0; i < req.shards.size(); ++i) {
      EXPECT_EQ(back.shards[i].shard, req.shards[i].shard);
      EXPECT_EQ(back.shards[i].job, req.shards[i].job);
      EXPECT_EQ(back.shards[i].unit_begin, req.shards[i].unit_begin);
      EXPECT_EQ(back.shards[i].unit_end, req.shards[i].unit_end);
    }

    // fuzz_result also sets the fields a shard never does: they must be
    // dropped, not shipped.
    const WorkerPartialData part = fuzz_partial(rng);
    enc.clear();
    encode_worker_partial(enc, part);
    WorkerPartialData pback;
    Decoder pd(enc.bytes());
    ASSERT_TRUE(decode_worker_partial(pd, pback)) << pd.error().to_string();
    EXPECT_TRUE(pd.exhausted());
    EXPECT_EQ(pback.shard, part.shard);
    EXPECT_EQ(pback.job, part.job);
    expect_results_equal(pback.partial, shard_fields_of(part.partial),
                         what.c_str());
    EXPECT_EQ(pback.alphabet_seen, part.alphabet_seen);
    EXPECT_EQ(pback.has_recognizer, part.has_recognizer);
    ASSERT_EQ(pback.recognizer_rows.size(), part.recognizer_rows.size());
    for (std::size_t f = 0; f < part.recognizer_rows.size(); ++f) {
      ASSERT_EQ(pback.recognizer_rows[f].size(),
                part.recognizer_rows[f].size());
      for (std::size_t r = 0; r < part.recognizer_rows[f].size(); ++r) {
        EXPECT_EQ(pback.recognizer_rows[f][r].name,
                  part.recognizer_rows[f][r].name);
        EXPECT_EQ(pback.recognizer_rows[f][r].state_mask,
                  part.recognizer_rows[f][r].state_mask);
        EXPECT_EQ(pback.recognizer_rows[f][r].max_count,
                  part.recognizer_rows[f][r].max_count);
        EXPECT_EQ(pback.recognizer_rows[f][r].lo,
                  part.recognizer_rows[f][r].lo);
        EXPECT_EQ(pback.recognizer_rows[f][r].hi,
                  part.recognizer_rows[f][r].hi);
      }
    }

    enc.clear();
    encode_worker_done(enc, trial * 7);
    std::uint64_t count = 0;
    Decoder dd(enc.bytes());
    ASSERT_TRUE(decode_worker_done(dd, count));
    EXPECT_TRUE(dd.exhausted());
    EXPECT_EQ(count, trial * 7);

    enc.clear();
    encode_worker_error(enc, "boom " + std::to_string(trial));
    std::string message;
    Decoder ed(enc.bytes());
    ASSERT_TRUE(decode_worker_error(ed, message));
    EXPECT_TRUE(ed.exhausted());
    EXPECT_EQ(message, "boom " + std::to_string(trial));
  }
}

TEST(WireRoundTrip, EncoderClearKeepsCapacityLikeSnapshot) {
  // The mon::Snapshot reuse discipline on the wire: after a warm-up frame,
  // re-encoding payloads of no larger size must not grow the buffer.
  Encoder enc;
  support::Rng rng = support::Rng::stream(0xCAFE, 1);
  const WorkerPartialData part = fuzz_partial(rng);
  encode_worker_partial(enc, part);
  const std::size_t warm = enc.bytes().capacity();
  for (int i = 0; i < 100; ++i) {
    enc.clear();
    encode_worker_partial(enc, part);
    EXPECT_EQ(enc.bytes().capacity(), warm) << "iteration " << i;
  }
}

TEST(WireRoundTrip, MultipleFramesConcatenateAndStreamBack) {
  // Frames are a stream format: several in one buffer parse back in order,
  // each consuming exactly its own bytes.
  support::Rng rng = support::Rng::stream(0xF00D, 2);
  std::vector<std::uint8_t> stream;
  Encoder enc;
  encode_worker_request(enc, fuzz_request(rng));
  write_frame(stream, Payload::WorkerRequest, enc);
  enc.clear();
  encode_worker_partial(enc, fuzz_partial(rng));
  write_frame(stream, Payload::WorkerPartial, enc);
  enc.clear();
  encode_worker_done(enc, 42);
  write_frame(stream, Payload::WorkerDone, enc);

  std::size_t offset = 0;
  const Payload expected[] = {Payload::WorkerRequest, Payload::WorkerPartial,
                              Payload::WorkerDone};
  for (const Payload tag : expected) {
    Frame frame;
    std::size_t consumed = 0;
    DecodeError err;
    ASSERT_TRUE(parse_frame(stream.data() + offset, stream.size() - offset,
                            frame, consumed, err))
        << err.to_string();
    EXPECT_EQ(frame.tag, tag);
    offset += consumed;
  }
  EXPECT_EQ(offset, stream.size());
}

}  // namespace
}  // namespace loom::wire
