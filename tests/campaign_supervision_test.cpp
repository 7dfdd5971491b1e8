// The seventh engine invariant: a campaign whose workers fault — hang,
// trickle, corrupt a frame, die mid-stream, skip their trailer or exit
// before doing any work — and are then re-dispatched by the supervisor
// must be byte-for-byte identical to the reference campaign.  Retry
// accounting is an engine diagnostic (CampaignResult::worker_retries),
// never semantic.  Plus lockdowns of the degradation contract
// (allow_partial turns an exhausted worker slot into pinned per-shard
// failure records instead of a throw), the frame-deadline escalation (a
// Hang-faulted worker that ignores SIGTERM dies to SIGKILL without wedging
// the suite), the post-Done exit grace (a worker that lingers after its
// Done frame is retired within it, deadline or not), the partial check (a
// worker's recognizer rows must fit the property, or it is retired by
// name), and the descriptor-hygiene / bounded-wait process primitives
// underneath.
//
// Custom main: the binary re-execs itself with --worker so the fork+exec
// spawn path runs against a real exec'd worker, not just the fork-only
// in-image path.  Three more hidden modes run a worker that lingers after
// its Done frame (with stdout open, or closed) and one that answers with
// misshapen recognizer rows.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "abv/campaign.hpp"
#include "testing.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"

#if LOOM_WIRE_HAS_PROCESS

#include <poll.h>
#include <unistd.h>

namespace {
const char* g_self = nullptr;  // argv[0]: the exec-mode worker command
}

namespace loom::abv {
namespace {

constexpr const char* kProperty = "(({a, b}, &) < c << i, true)";

constexpr WorkerFault kAllFaults[] = {
    WorkerFault::CorruptFrame,   WorkerFault::DieMidStream,
    WorkerFault::FutureVersion,  WorkerFault::Hang,
    WorkerFault::SlowStream,     WorkerFault::PartialWritesOnly,
    WorkerFault::ExitBeforeRequest,
};

const char* fault_name(WorkerFault f) {
  switch (f) {
    case WorkerFault::None: return "None";
    case WorkerFault::CorruptFrame: return "CorruptFrame";
    case WorkerFault::DieMidStream: return "DieMidStream";
    case WorkerFault::FutureVersion: return "FutureVersion";
    case WorkerFault::Hang: return "Hang";
    case WorkerFault::SlowStream: return "SlowStream";
    case WorkerFault::PartialWritesOnly: return "PartialWritesOnly";
    case WorkerFault::ExitBeforeRequest: return "ExitBeforeRequest";
  }
  return "?";
}

// seeds=2 → 12 units; shard_size=3 → exactly four shards [0,3) [3,6)
// [6,9) [9,12), so every worker-count / fault-position case below has a
// pinned layout.
CampaignOptions small_options() {
  CampaignOptions opt;
  opt.seeds = 2;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 2;
  opt.shard_size = 3;
  return opt;
}

using loom::testing::CampaignRun;
using loom::testing::matches_reference;

CampaignRun run_with(const CampaignOptions& opt, const char* source = kProperty) {
  return loom::testing::run_production(source, opt);
}

// The clean yardstick every supervised run is held to.
CampaignRun reference_run(const CampaignOptions& opt = small_options(),
                          const char* source = kProperty) {
  return loom::testing::run_reference(source, opt);
}

// ---------------------------------------------------------------------------
// The seventh invariant: faulted-then-retried ≡ clean, byte for byte.

TEST(CampaignSupervision, FaultedThenRetriedEqualsCleanAcrossTheGrid) {
  const CampaignRun clean = reference_run();
  // Generous deadline: only the Hang / SlowStream cells depend on it
  // firing, and a retired worker is always re-dispatched fault-free.
  for (const bool exec_mode : {false, true}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      for (const WorkerFault fault : kAllFaults) {
        CampaignOptions opt = small_options();
        opt.workers = workers;
        opt.worker_fault = fault;
        opt.worker_retries = 1;
        opt.worker_timeout_ms = 1000;
        if (exec_mode) opt.worker_command = {g_self, "--worker"};
        const CampaignRun retried = run_with(opt);
        const std::string what = std::string("fault=") + fault_name(fault) +
                                 " workers=" + std::to_string(workers) +
                                 (exec_mode ? " exec" : " fork");
        EXPECT_TRUE(matches_reference(retried, clean)) << what;
        EXPECT_FALSE(retried.result.degraded()) << what;
        // The recovery is visible as a diagnostic — and only there.
        EXPECT_GE(retried.result.worker_retries, 1u) << what;
      }
    }
  }
}

TEST(CampaignSupervision, NthPartialFaultVariantsRecoverIdentically) {
  // The fault strikes the worker's second partial frame, so the parent has
  // already buffered a clean first partial from the same attempt — it must
  // be discarded with the attempt, not merged twice after the retry.
  const CampaignRun clean = reference_run();
  for (const WorkerFault fault :
       {WorkerFault::CorruptFrame, WorkerFault::DieMidStream,
        WorkerFault::PartialWritesOnly}) {
    CampaignOptions opt = small_options();
    opt.workers = 2;  // two shards per worker → fault_at=1 exists
    opt.worker_fault = fault;
    opt.worker_fault_at = 1;
    opt.worker_retries = 1;
    const CampaignRun retried = run_with(opt);
    const std::string what = std::string("fault=") + fault_name(fault);
    EXPECT_TRUE(matches_reference(retried, clean)) << what;
  }
}

TEST(CampaignSupervision, SeventhInvariantHoldsPerBackend) {
  for (const mon::Backend backend :
       {mon::Backend::Drct, mon::Backend::ViaPSL, mon::Backend::Vm}) {
    CampaignOptions base = small_options();
    base.backend = backend;
    loom::testing::scalar_lanes_if_forced(base);
    const CampaignRun clean = reference_run(base, "(n << i, true)");
    for (const WorkerFault fault :
         {WorkerFault::CorruptFrame, WorkerFault::Hang}) {
      CampaignOptions opt = base;
      opt.workers = 2;
      opt.worker_fault = fault;
      opt.worker_retries = 1;
      opt.worker_timeout_ms = 1000;
      const CampaignRun retried = run_with(opt, "(n << i, true)");
      const std::string what = std::string("backend=") +
                               mon::to_string(backend) +
                               " fault=" + fault_name(fault);
      EXPECT_TRUE(matches_reference(retried, clean)) << what;
    }
  }
}

TEST(CampaignSupervision, FaultPositionBeyondThePartialCountDisarms) {
  // worker_fault_at past the worker's partial count: the fault never
  // strikes, the run is clean on the first attempt, no retry is spent.
  const CampaignRun clean = reference_run();
  CampaignOptions opt = small_options();
  opt.workers = 2;
  opt.worker_fault = WorkerFault::CorruptFrame;
  opt.worker_fault_at = 99;
  opt.worker_retries = 0;  // would throw if the fault fired
  const CampaignRun run = run_with(opt);
  EXPECT_TRUE(matches_reference(run, clean));
  EXPECT_EQ(run.result.worker_retries, 0u);
}

// ---------------------------------------------------------------------------
// Deadlines and escalation.

TEST(CampaignSupervision, HungWorkerIsRetiredByTheFrameDeadline) {
  // No retries, no degradation: the deadline alone must surface the hang
  // as a WorkerFailure naming the timeout — and the SIGKILL escalation
  // must actually end a worker that ignores SIGTERM, promptly enough that
  // this test never brushes the suite timeout.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 1;
  opt.worker_fault = WorkerFault::Hang;
  opt.worker_timeout_ms = 250;
  const auto begin = std::chrono::steady_clock::now();
  try {
    run_campaign(p, ab, opt);
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out after 250 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("attempt 1 of 1"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 30.0);
}

TEST(CampaignSupervision, SlowStreamTimesOutLikeASilentOne) {
  // One byte per interval keeps poll() reporting readable forever; only
  // the per-frame deadline can retire it.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 1;
  opt.worker_fault = WorkerFault::SlowStream;
  opt.worker_timeout_ms = 250;
  try {
    run_campaign(p, ab, opt);
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation (allow_partial).

TEST(CampaignSupervision, ExhaustedRetriesDegradeWithPinnedFailureRecords) {
  // Every worker faults, no retries: with allow_partial the campaign
  // returns instead of throwing, and the loss is itemized shard by shard.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 2;
  opt.worker_fault = WorkerFault::CorruptFrame;
  opt.worker_retries = 0;
  opt.allow_partial = true;
  const CampaignResult r = run_campaign(p, ab, opt);
  EXPECT_TRUE(r.degraded());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.worker_retries, 0u);
  ASSERT_EQ(r.shard_failures.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& f = r.shard_failures[i];
    EXPECT_EQ(f.shard, i);
    EXPECT_EQ(f.worker, i % 2);
    EXPECT_EQ(f.unit_begin, 3 * i);
    EXPECT_EQ(f.unit_end, 3 * i + 3);
    EXPECT_NE(f.diagnostic.find("bad magic"), std::string::npos)
        << f.diagnostic;
    EXPECT_NE(f.diagnostic.find("attempt 1 of 1"), std::string::npos)
        << f.diagnostic;
  }
  // Nothing from a failed slot merges: with both workers lost, the
  // aggregates are empty.
  EXPECT_EQ(r.traces, 0u);
  // The report carries the loss, line by line, and cannot claim a pass.
  const std::string report = r.report(ab);
  EXPECT_NE(report.find("degraded: shard 0 (units [0,3)) lost on worker 0: "),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("campaign FAILED"), std::string::npos) << report;
}

TEST(CampaignSupervision, DegradationKeepsTheSurvivingWorkersShards) {
  // Three workers, fault on the second partial: only worker 0 (the one
  // with two shards) faults.  Workers 1 and 2 merge normally; exactly
  // worker 0's shards (0 and 3) are recorded lost.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 3;
  opt.worker_fault = WorkerFault::DieMidStream;
  opt.worker_fault_at = 1;
  opt.worker_retries = 0;
  opt.allow_partial = true;
  const CampaignResult r = run_campaign(p, ab, opt);
  EXPECT_TRUE(r.degraded());
  ASSERT_EQ(r.shard_failures.size(), 2u);
  EXPECT_EQ(r.shard_failures[0].shard, 0u);
  EXPECT_EQ(r.shard_failures[0].worker, 0u);
  EXPECT_EQ(r.shard_failures[1].shard, 3u);
  EXPECT_EQ(r.shard_failures[1].worker, 0u);
  // The surviving workers' work is present.
  EXPECT_GT(r.traces, 0u);
}

TEST(CampaignSupervision, AllowPartialWithRetriesStillRecoversCleanly) {
  // allow_partial is a last resort, not a shortcut: while the retry budget
  // holds, the run must come back clean and identical.
  const CampaignRun clean = reference_run();
  CampaignOptions opt = small_options();
  opt.workers = 3;
  opt.worker_fault = WorkerFault::DieMidStream;
  opt.worker_fault_at = 1;
  opt.worker_retries = 1;
  opt.allow_partial = true;
  const CampaignRun run = run_with(opt);
  EXPECT_FALSE(run.result.degraded());
  EXPECT_TRUE(matches_reference(run, clean));
  EXPECT_EQ(run.result.worker_retries, 1u);
}

// ---------------------------------------------------------------------------
// Clean supervised runs, and the exit grace after a Done frame.

TEST(CampaignSupervision, SupervisedDrainMatchesReferenceOnCleanRuns) {
  // With or without a frame deadline armed, a fault-free drain must merge
  // exactly the reference campaign's bytes, spending no retry.
  const CampaignRun reference = reference_run();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t timeout_ms : {std::size_t{0}, std::size_t{10000}}) {
      CampaignOptions opt = small_options();
      opt.workers = workers;
      opt.worker_timeout_ms = timeout_ms;
      const CampaignRun run = run_with(opt);
      const std::string what = "workers=" + std::to_string(workers) +
                               " timeout_ms=" + std::to_string(timeout_ms);
      EXPECT_TRUE(matches_reference(run, reference)) << what;
      EXPECT_EQ(run.result.worker_retries, 0u) << what;
    }
  }
}

// Runs a campaign whose single exec'd worker sends every frame, Done
// included, then lingers in `mode` (see main) instead of exiting.  No
// frame deadline is armed: the exit grace alone must end the wait.
void expect_retired_after_done(const char* mode) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 1;
  opt.worker_command = {g_self, mode};
  const auto begin = std::chrono::steady_clock::now();
  try {
    run_campaign(p, ab, opt);
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 0: kept running after its Done frame"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("attempt 1 of 1"), std::string::npos) << what;
  }
  // The lingering worker would sleep for a minute; the grace ends it in
  // well under ten seconds.
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  EXPECT_LT(elapsed, 10.0);
}

TEST(CampaignSupervision, WorkerLingeringAfterDoneIsRetiredAtTheGraceDeadline) {
  // Stream still open: the slot stays in the poll set until the grace
  // deadline retires it.
  const auto begin = std::chrono::steady_clock::now();
  expect_retired_after_done("--linger-after-done");
  // The deadline cannot fire before the grace has run out.
  EXPECT_GE(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          begin)
                .count(),
            0.4);
}

TEST(CampaignSupervision, WorkerClosingStdoutThenLingeringEndsWithinTheGrace) {
  // Stream closed, process alive: EOF arrives at once, and the reap that
  // follows is bounded by what is left of the same grace.
  expect_retired_after_done("--close-stdout-then-linger");
}

// ---------------------------------------------------------------------------
// Partial validation: recognizer rows are checked against the job's plan.

TEST(CampaignSupervision, MisshapenRecognizerRowsRetireTheWorkerByName) {
  // An exec'd worker (see main) answers every shard with recognizer rows
  // that do not fit the property, then a clean Done.  The parent must
  // retire it with a diagnostic naming the defect instead of merging the
  // rows — RecognizerCoverage::merge trusts their shape.
  struct Case {
    const char* defect;
    mon::Backend backend;
    const char* expect;
  };
  const Case cases[] = {
      {"extra-fragment", mon::Backend::Drct,
       "recognizer rows for 3 fragments, the property has 2"},
      {"missing-row", mon::Backend::Drct,
       "recognizer fragment F1: 1 rows for 2 ranges"},
      {"wrong-name", mon::Backend::Drct,
       "recognizer fragment F2 row 0: name/bounds do not match"},
      {"wrong-bounds", mon::Backend::Drct,
       "recognizer fragment F1 row 1: name/bounds do not match"},
      {"stray-state-bits", mon::Backend::Drct,
       "state bits outside the six recognizer states"},
      {"rows-for-vm", mon::Backend::Auto,
       "recognizer rows for a property without Drct antecedent "
       "recognizers (backend vm)"},
  };
  for (const Case& c : cases) {
    spec::Alphabet ab;
    auto p = loom::testing::parse(kProperty, ab);
    CampaignOptions opt = small_options();
    opt.backend = c.backend;
    opt.lane_width = 1;
    opt.workers = 1;
    opt.worker_command = {g_self, "--misshapen-rows", c.defect};
    try {
      run_campaign(p, ab, opt);
      ADD_FAILURE() << c.defect << ": expected WorkerFailure";
    } catch (const WorkerFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("worker 0: shard 0: "), std::string::npos)
          << c.defect << ": " << what;
      EXPECT_NE(what.find(c.expect), std::string::npos)
          << c.defect << ": " << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker-count and layout edges.

TEST(CampaignSupervision, MoreWorkersThanShardsClamps) {
  CampaignOptions base = small_options();
  base.seeds = 1;
  base.shard_size = 6;  // one shard of six units
  const CampaignRun reference = reference_run(base);
  CampaignOptions opt = base;
  opt.workers = 8;  // clamped to the single shard
  const CampaignRun cross = run_with(opt);
  EXPECT_TRUE(matches_reference(cross, reference));
}

TEST(CampaignSupervision, ZeroSeedCampaignsWithWorkersDoNotSpawn) {
  // No units → no shards → the workers knob is moot; the run must not
  // throw, hang or fork.
  CampaignOptions opt = small_options();
  opt.seeds = 0;
  opt.workers = 4;
  opt.worker_fault = WorkerFault::Hang;  // would wedge if a worker spawned
  const CampaignRun r = run_with(opt);
  EXPECT_EQ(r.result.traces, 0u);
  EXPECT_EQ(r.result.worker_retries, 0u);
  EXPECT_FALSE(r.result.degraded());
}

// ---------------------------------------------------------------------------
// The process primitives underneath.

TEST(CampaignSupervision, SiblingWorkersDoNotHoldEachOthersPipesOpen) {
  // Regression for fork-mode descriptor leakage: worker 1 is spawned while
  // worker 0's pipes are open in the parent.  If the fork-only child did
  // not close those inherited ends, worker 0 would never see EOF on its
  // request pipe once the parent closes it.  Each child echoes one byte
  // after its EOF arrives.
  const auto echo_after_eof = [](int in, int out) {
    std::uint8_t b = 0;
    while (wire::read_exact(in, &b, 1) == 1) {
    }
    const std::uint8_t done = 0xAA;
    wire::write_all(out, &done, 1);
    return 0;
  };
  wire::WorkerProcess w0 = wire::spawn_worker({}, echo_after_eof, 0);
  wire::WorkerProcess w1 = wire::spawn_worker(
      {}, echo_after_eof, 1, {w0.to_child, w0.from_child});
  // Worker 1 stays fully alive while worker 0's EOF is delivered.
  w0.close_to_child();
  struct pollfd pfd = {w0.from_child, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0)
      << "worker 0 never saw EOF: a sibling holds its request pipe open";
  std::uint8_t byte = 0;
  ASSERT_EQ(wire::read_exact(w0.from_child, &byte, 1), 1);
  EXPECT_EQ(byte, 0xAA);
  w0.close_from_child();
  EXPECT_EQ(wire::exit_code(w0.wait()), 0);
  // Wind worker 1 down the same way: EOF, echo byte, then exit — closing
  // its reply pipe before reading would SIGPIPE the child instead.
  w1.close_to_child();
  byte = 0;
  ASSERT_EQ(wire::read_exact(w1.from_child, &byte, 1), 1);
  EXPECT_EQ(byte, 0xAA);
  w1.close_from_child();
  EXPECT_EQ(wire::exit_code(w1.wait()), 0);
}

TEST(CampaignSupervision, WaitForTimesOutOnARunningWorker) {
  wire::WorkerProcess w = wire::spawn_worker(
      {},
      [](int in, int) {
        std::uint8_t b = 0;
        wire::read_exact(in, &b, 1);  // blocks: the parent never writes
        return 0;
      },
      0);
  int status = 0;
  EXPECT_FALSE(w.wait_for(60, status)) << "worker exited unexpectedly";
  // terminate() escalates and reaps; the child dies to SIGTERM.
  const int final_status = w.terminate(500);
  EXPECT_NE(wire::describe_wait_status(final_status).find("signal"),
            std::string::npos)
      << wire::describe_wait_status(final_status);
}

TEST(CampaignSupervision, RequestTimeoutBoundsAnAbandonedWorker) {
  // A worker whose parent never writes the request frame must exit on its
  // own once run_campaign_worker is given a request deadline — the
  // loomcheck --worker --worker-timeout-ms= path.
  int request[2], reply[2];
  ASSERT_EQ(::pipe(request), 0);
  ASSERT_EQ(::pipe(reply), 0);
  const int code = run_campaign_worker(request[0], reply[1], 100);
  EXPECT_EQ(code, kWorkerExitBadRequest);
  ::close(reply[1]);
  wire::FdFrameReader reader(reply[0]);
  wire::Frame frame;
  wire::DecodeError err;
  ASSERT_EQ(reader.next(frame, err), wire::FdFrameReader::Status::Frame);
  ASSERT_EQ(frame.tag, wire::Payload::WorkerError);
  wire::Decoder d(frame.data, frame.size);
  std::string message;
  ASSERT_TRUE(wire::decode_worker_error(d, message));
  EXPECT_NE(message.find("timed out"), std::string::npos) << message;
  for (int fd : {request[0], request[1], reply[0]}) ::close(fd);
}

}  // namespace
}  // namespace loom::abv

namespace loom::abv {
namespace {

// The --misshapen-rows worker: reads the request, then answers every
// assigned shard with an empty partial whose recognizer rows have the
// job's plan shape bent by `defect`, and ends with a clean Done.
int run_misshapen_rows_worker(const std::string& defect) {
  wire::FdFrameReader reader(0);
  wire::Frame frame;
  wire::DecodeError err;
  if (reader.next(frame, err) != wire::FdFrameReader::Status::Frame) return 1;
  wire::WorkerRequestData req;
  wire::Decoder d(frame.data, frame.size);
  if (!wire::decode_worker_request(d, req)) return 1;
  spec::Alphabet ab;
  for (const auto& name : req.names) ab.name(name);
  std::vector<spec::Property> props;
  for (const auto& text : req.properties) {
    props.push_back(loom::testing::parse(text, ab));
  }

  wire::Encoder enc;
  std::vector<std::uint8_t> framed;
  for (const auto& s : req.shards) {
    // The right shape first: what a Drct shard of this job would send.
    const mon::CompiledProperty compiled =
        mon::CompiledProperty::compile(props[s.job], ab);
    wire::WorkerPartialData part;
    part.shard = s.shard;
    part.job = s.job;
    part.has_recognizer = true;
    for (const auto& frag : compiled.plan().fragments) {
      part.recognizer_rows.emplace_back();
      for (const auto& range : frag.ranges) {
        RecognizerCoverage::RangeCov row;
        row.name = range.name;
        row.lo = range.lo;
        row.hi = range.hi;
        part.recognizer_rows.back().push_back(row);
      }
    }
    auto& rows = part.recognizer_rows;
    if (defect == "extra-fragment") rows.push_back(rows.back());
    if (defect == "missing-row") rows[0].pop_back();
    if (defect == "wrong-name") rows[1][0].name = rows[0][0].name;
    if (defect == "wrong-bounds") rows[0][1].hi += 1;
    if (defect == "stray-state-bits") rows[0][0].state_mask = 0xC1;
    enc.clear();
    wire::encode_worker_partial(enc, part);
    framed.clear();
    wire::write_frame(framed, wire::Payload::WorkerPartial, enc);
    if (!wire::write_all(1, framed.data(), framed.size())) return 1;
  }
  enc.clear();
  wire::encode_worker_done(enc, req.shards.size());
  framed.clear();
  wire::write_frame(framed, wire::Payload::WorkerDone, enc);
  return wire::write_all(1, framed.data(), framed.size()) ? 0 : 1;
}

}  // namespace
}  // namespace loom::abv

#endif  // LOOM_WIRE_HAS_PROCESS

int main(int argc, char** argv) {
#if LOOM_WIRE_HAS_PROCESS
  // Hidden worker mode, checked before gtest sees the arguments: the
  // exec-mode cells of the grids re-exec this binary as their worker.
  if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) {
    return loom::abv::run_campaign_worker(0, 1);
  }
  // A worker that does all its work, Done frame included, then does not
  // exit — with its stdout still open, or closed first.
  const bool linger =
      argc >= 2 && std::strcmp(argv[1], "--linger-after-done") == 0;
  const bool close_first =
      argc >= 2 && std::strcmp(argv[1], "--close-stdout-then-linger") == 0;
  if (linger || close_first) {
    const int code = loom::abv::run_campaign_worker(0, 1);
    if (close_first) ::close(1);
    std::this_thread::sleep_for(std::chrono::minutes(1));
    return code;
  }
  if (argc >= 3 && std::strcmp(argv[1], "--misshapen-rows") == 0) {
    return loom::abv::run_misshapen_rows_worker(argv[2]);
  }
  g_self = argv[0];
#endif
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
