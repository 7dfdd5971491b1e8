//! Payload codecs: the four worker-protocol payloads behind cross-process
//! campaign sharding, written and read in a fixed field order over the
//! wire::Encoder/Decoder primitives.  Each payload carries only the fields
//! its receiver reads.
//!
//! Every decode_* validates as it reads — counts against remaining bytes
//! before sizing containers, enum bytes against their range — and reports
//! failures through the Decoder's positioned diagnostic, so a corrupt or
//! hostile payload rejects cleanly (tests/wire_fuzz_test.cpp holds the
//! codecs to that under ASan+UBSan).
//!
//! Identity contract (tests/wire_roundtrip_test.cpp): decode(encode(x))
//! reproduces every field the payload carries, because the sixth
//! differential invariant (in-process ≡ cross-process campaigns) rides on
//! these codecs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "wire/wire.hpp"

namespace loom::wire {

// ---------------------------------------------------------------------------
// Worker protocol (parent campaign process <-> shard worker process).
//
// One request frame travels parent -> worker; the worker answers with one
// WorkerPartial frame per assigned shard followed by a WorkerDone frame
// (or a WorkerError frame naming the failure before a nonzero exit).  The
// parent buffers partials and merges only after a clean Done — a worker
// that dies or corrupts its stream contributes nothing.

/// One shard assignment: `shard` is the global shard index in the parent's
/// layout (partials slot back into the same merge order the in-process
/// engine uses), `job` the property index, [unit_begin, unit_end) the
/// (seed × slot) unit range.
struct WorkerShardSpec {
  std::uint64_t shard = 0;
  std::uint64_t job = 0;
  std::uint64_t unit_begin = 0;
  std::uint64_t unit_end = 0;
};

/// Parent -> worker: everything a fresh process needs to reproduce the
/// parent's interning and plans bit for bit — the alphabet's names in id
/// order (with directions), each property's normalized text
/// (spec::to_string, re-parsed by the worker), the options the engine
/// reads and the assigned shards.  The six supervisor-only options
/// (shard_size, workers, worker_command, worker_timeout_ms,
/// worker_retries, allow_partial) and the plan_cache pointer do not cross
/// the wire: a decoded request holds their defaults, so a worker never
/// forks a fleet of its own.
struct WorkerRequestData {
  std::vector<std::string> names;
  std::vector<std::uint8_t> directions;  // spec::Direction per name
  std::vector<std::string> properties;
  abv::CampaignOptions options;
  std::vector<WorkerShardSpec> shards;
};

void encode_worker_request(Encoder& e, const WorkerRequestData& req);
bool decode_worker_request(Decoder& d, WorkerRequestData& req);

/// Worker -> parent: one shard's outcome — the partial CampaignResult, the
/// names the shard observed (bit per alphabet id; the parent replays them
/// through AlphabetCoverage::record) and, for Drct-backed antecedents, the
/// recognizer coverage rows.  The partial carries only the counters a
/// shard sets; a decoded partial holds defaults for the rest (coverage
/// ratios, plan-compilation stats, backends, retries, failure records),
/// which run_campaigns fills in from its own plans and supervision.
struct WorkerPartialData {
  std::uint64_t shard = 0;
  std::uint64_t job = 0;
  abv::CampaignResult partial;
  std::vector<bool> alphabet_seen;
  bool has_recognizer = false;
  std::vector<std::vector<abv::RecognizerCoverage::RangeCov>> recognizer_rows;
};

void encode_worker_partial(Encoder& e, const WorkerPartialData& partial);
bool decode_worker_partial(Decoder& d, WorkerPartialData& partial);

/// Worker -> parent trailer: the number of partials that preceded it (the
/// parent cross-checks against its assignment before merging anything).
void encode_worker_done(Encoder& e, std::uint64_t partials);
bool decode_worker_done(Decoder& d, std::uint64_t& partials);

/// Worker -> parent: a diagnostic message sent before a nonzero exit.
void encode_worker_error(Encoder& e, const std::string& message);
bool decode_worker_error(Decoder& d, std::string& message);

}  // namespace loom::wire
