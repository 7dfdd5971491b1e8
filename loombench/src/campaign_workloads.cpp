// mutation_campaign and sharded_workers: abv::run_campaigns over the
// four-property access-control set of examples/parallel_campaign.cpp, in
// process (threads = 1) and across two forked workers.
//
// Only the CampaignOptions fields a campaign cannot do without are set
// (seeds, first_seed, stimuli, mutants_per_kind, threads, shard_size,
// workers, worker_timeout_ms); backend, lane_width and checkpoint_stride
// stay at their defaults and every result-neutral engine knob is left
// alone, so retiring those knobs can neither break nor redefine this
// benchmark.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "abv/campaign.hpp"
#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "mon/snapshot.hpp"
#include "mon/vm.hpp"
#include "support/alloc_counter.hpp"
#include "support/rng.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"
#include "workload.hpp"

namespace loombench {
namespace {

using namespace loom;

constexpr const char* kSources[] = {
    "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 1ms)",
    "(n << i, true)",
};

// The engine's work-unit slots: slot 0 is a seed's valid phase, slot 1 + k
// its batch of mutation kind k (abv/campaign.cpp).
constexpr abv::MutationKind kKinds[5] = {
    abv::MutationKind::Drop, abv::MutationKind::Duplicate,
    abv::MutationKind::SwapAdjacent, abv::MutationKind::EarlyTrigger,
    abv::MutationKind::StallDeadline};
constexpr std::size_t kSlotsPerSeed = 1 + std::size(kKinds);

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::vector<const spec::Property*> pointers(const std::vector<spec::Property>& ps) {
  std::vector<const spec::Property*> out;
  for (const auto& p : ps) out.push_back(&p);
  return out;
}

std::size_t applied(const abv::CampaignResult& r) {
  std::size_t n = 0;
  for (const auto& m : r.mutation) n += m.applied;
  return n;
}

bool same_stats(const abv::MutationStats& a, const abv::MutationStats& b) {
  return a.applied == b.applied && a.invalid == b.invalid &&
         a.detected == b.detected && a.missed == b.missed;
}

class CampaignWorkload : public Workload {
 public:
  explicit CampaignWorkload(const abv::CampaignOptions& options)
      : options_(options),
        properties_(parse_properties(kSources, ab_, nullptr)),
        ptrs_(pointers(properties_)) {
    // The reference every operation is checked against: a serial
    // in-process run of the same seed, made once here.
    abv::CampaignOptions serial = options_;
    serial.threads = 1;
    serial.workers = 0;
    reference_ = abv::run_campaigns(ptrs_, ab_, serial);
    for (const auto& r : reference_) {
      if (!r.ok()) throw std::runtime_error("reference campaign is not ok()");
      digests_.push_back(r.report(ab_));
      applied_per_op_ += applied(r);
    }
  }

  void setup(Tracer* tracer) override {
    spec::Alphabet ab;
    const auto props = parse_properties(kSources, ab, tracer);
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr) {
      span.emplace(*tracer, tracer->intern("mon.compile"), props.size());
    }
    const auto plans = abv::compile_property_plans(pointers(props), ab, options_);
    if (plans.size() != props.size()) throw std::logic_error("plan count");
  }

  OpResult run_op() override {
    OpResult r;
    const double self0 = cpu_seconds(RUSAGE_SELF);
    const double children0 = cpu_seconds(RUSAGE_CHILDREN);
    const support::AllocCounter::Scope allocs;
    const std::int64_t t0 = now_ns();
    std::vector<abv::CampaignResult> results;
    try {
      results = abv::run_campaigns(ptrs_, ab_, options_);
    } catch (const std::exception& e) {
      r.seconds = 1e-9 * static_cast<double>(now_ns() - t0);
      r.failure = std::string("run_campaigns threw: ") + e.what();
      return r;
    }
    r.seconds = 1e-9 * static_cast<double>(now_ns() - t0);
    const std::uint64_t alloc_count = allocs.allocs();
    parent_cpu_s_ += cpu_seconds(RUSAGE_SELF) - self0;
    child_cpu_s_ += cpu_seconds(RUSAGE_CHILDREN) - children0;
    wall_s_ += r.seconds;
    ++ops_;
    min_allocs_ = std::min(min_allocs_, alloc_count);

    if (results.size() != digests_.size()) {
      r.failure = "result count differs";
      return r;
    }
    abv::CampaignResult total;  // diagnostics pooled over the properties
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& res = results[i];
      r.work += static_cast<double>(applied(res));
      worker_retries_ += res.worker_retries;
      if (const char* problem = check(res, digests_[i]); problem && r.failure.empty()) {
        r.failure = problem;
      }
      total.trace_cache_hits += res.trace_cache_hits;
      total.trace_cache_misses += res.trace_cache_misses;
      total.compile_stats.merge(res.compile_stats);
      total.checkpoint_hits += res.checkpoint_hits;
      total.events_skipped += res.events_skipped;
      total.monitor_stats.merge(res.monitor_stats);
      total.lane_waves += res.lane_waves;
      total.lanes_filled += res.lanes_filled;
      total.lane_capacity += res.lane_capacity;
    }
    for (const auto& c : total.diagnostic_counters()) diagnostics_[c.name] = c.value;
    return r;
  }

 protected:
  // The first correctness check a campaign result fails, or nullptr.
  const char* check(const abv::CampaignResult& res, const std::string& digest) const {
    if (res.degraded()) return "degraded result";
    if (res.worker_retries != 0) return "worker retry";
    if (!res.ok()) return "campaign not ok()";
    if (res.report(ab_) != digest) {
      return "report digest differs from the serial in-process run";
    }
    return nullptr;
  }

  double diagnostic(const char* name) const {
    const auto it = diagnostics_.find(name);
    if (it == diagnostics_.end()) {
      throw std::runtime_error(std::string("no diagnostic counter ") + name);
    }
    return it->second;
  }

  // Checks a replayed pipeline's per-kind mutation counts against the
  // reference run: the replay is only a decomposition of the operation if
  // it does the same work.
  std::string check_replay(const std::vector<std::array<abv::MutationStats, 5>>& got) const {
    for (std::size_t p = 0; p < reference_.size(); ++p) {
      for (std::size_t k = 0; k < 5; ++k) {
        if (!same_stats(got[p][k], reference_[p].mutation[k])) {
          return "replayed pipeline's mutation counts differ from run_campaigns";
        }
      }
    }
    return {};
  }

  abv::CampaignOptions options_;
  spec::Alphabet ab_;
  std::vector<spec::Property> properties_;
  std::vector<const spec::Property*> ptrs_;
  std::vector<abv::CampaignResult> reference_;
  std::vector<std::string> digests_;
  std::size_t applied_per_op_ = 0;

  // Counters of the untraced operations.
  std::size_t ops_ = 0;
  double wall_s_ = 0.0;
  double parent_cpu_s_ = 0.0;
  double child_cpu_s_ = 0.0;
  std::uint64_t min_allocs_ = UINT64_MAX;
  std::size_t worker_retries_ = 0;
  std::map<std::string, double> diagnostics_;
};

// ---------------------------------------------------------------------------

class MutationCampaign final : public CampaignWorkload {
 public:
  using CampaignWorkload::CampaignWorkload;

  OpResult traced_op(Tracer& t, Tracer::OpFold& fold) override {
    const std::uint32_t id_op = t.intern("op");
    const std::uint32_t id_plans = t.intern("abv.compile_plans");
    const std::uint32_t id_stimuli = t.intern("abv.stimuli");
    const std::uint32_t id_ladder = t.intern("mon.ladder");
    const std::uint32_t id_snapshot = t.intern("mon.snapshot");
    const std::uint32_t id_valid = t.intern("mon.valid");
    const std::uint32_t id_reference = t.intern("spec.reference");
    const std::uint32_t id_mutate = t.intern("abv.mutate");
    const std::uint32_t id_restore = t.intern("mon.restore");
    const std::uint32_t id_lanes = t.intern("mon.lanes");

    OpResult r;
    std::vector<std::array<abv::MutationStats, 5>> stats(ptrs_.size());
    {
      Tracer::Scope op(t, id_op);
      std::vector<abv::PropertyPlan> plans;
      {
        Tracer::Scope s(t, id_plans, ptrs_.size());
        abv::pre_intern_stimuli_names(ab_, options_.stimuli);
        plans = abv::compile_property_plans(ptrs_, ab_, options_);
      }
      const std::size_t stride = options_.checkpoint_stride;
      const std::size_t width = options_.lane_width;
      for (std::size_t p = 0; p < ptrs_.size(); ++p) {
        const spec::Property& prop = *ptrs_[p];
        const mon::CompiledProperty& compiled = plans[p].compiled;
        const std::unique_ptr<mon::Monitor> monitor = compiled.instantiate();
        // Waves run where the engine runs them: Vm-backed plans with a
        // lane width above 1; anything else replays one mutant at a time.
        std::unique_ptr<mon::VmLaneBatch> batch;
        if (compiled.chosen() == mon::Backend::Vm && width > 1) {
          batch = std::make_unique<mon::VmLaneBatch>(compiled.vm_program_shared(),
                                                    width);
        }
        std::vector<abv::MutationResult> mutants(std::max<std::size_t>(1, width));
        std::vector<const spec::Trace*> lane_traces;
        std::vector<std::size_t> lane_starts;
        std::vector<const mon::Snapshot*> lane_rungs;
        std::vector<mon::Snapshot> ladder;

        const auto flush = [&](abv::MutationStats& st) {
          if (lane_traces.empty()) return;
          std::uint64_t lane_events = 0;
          for (std::size_t l = 0; l < lane_traces.size(); ++l) {
            lane_events += lane_traces[l]->size() - lane_starts[l];
            if (lane_rungs[l] != nullptr) {
              Tracer::Scope s(t, id_restore, 1);
              batch->restore(l, *lane_rungs[l]);
            } else {
              batch->reset(l);
            }
          }
          {
            Tracer::Scope s(t, id_lanes, lane_events);
            batch->run(lane_traces, lane_starts);
            for (std::size_t l = 0; l < lane_traces.size(); ++l) {
              batch->finish(l, end_of(*lane_traces[l]));
            }
          }
          for (std::size_t l = 0; l < lane_traces.size(); ++l) {
            if (batch->verdict(l) == mon::Verdict::Violated) {
              ++st.detected;
            } else {
              ++st.missed;
            }
          }
          lane_traces.clear();
          lane_starts.clear();
          lane_rungs.clear();
        };

        for (std::size_t s = 0; s < options_.seeds; ++s) {
          spec::Trace valid;
          {
            Tracer::Scope span(t, id_stimuli);
            support::Rng rng = support::Rng::stream(options_.first_seed + s, 0);
            valid = abv::generate_valid(prop, ab_, rng, options_.stimuli);
            span.add_units(valid.size());
          }
          // The checkpoint ladder: one pass over the valid trace with a
          // snapshot every `stride` events.
          const std::size_t rungs = stride == 0 ? 0 : valid.size() / stride;
          ladder.resize(rungs);
          {
            Tracer::Scope span(t, id_ladder, valid.size());
            monitor->reset();
            for (std::size_t i = 0, next = 0; i < valid.size() && next < rungs; ++i) {
              monitor->observe(valid[i].name, valid[i].time);
              if ((i + 1) % stride == 0) {
                Tracer::Scope snap(t, id_snapshot, 1);
                monitor->snapshot(ladder[next++]);
              }
            }
          }
          // The seed's valid phase.
          {
            Tracer::Scope span(t, id_valid, valid.size());
            monitor->reset();
            monitor->observe_batch(valid);
            monitor->finish(end_of(valid));
          }
          spec::RefResult ref;
          {
            Tracer::Scope span(t, id_reference, valid.size());
            ref = spec::reference_check(prop, compiled.plan(), valid, end_of(valid));
          }
          if ((ref.rejected() || monitor->verdict() == mon::Verdict::Violated) &&
              r.failure.empty()) {
            r.failure = "replayed valid trace rejected";
          }

          for (std::size_t k = 0; k < std::size(kKinds); ++k) {
            abv::MutationStats& st = stats[p][k];
            support::Rng rng = support::Rng::stream(options_.first_seed + s, 1 + k);
            for (std::size_t m = 0; m < options_.mutants_per_kind; ++m) {
              abv::MutationResult& mutant =
                  mutants[batch != nullptr ? lane_traces.size() : 0];
              bool ok = false;
              {
                Tracer::Scope span(t, id_mutate, 1);
                ok = abv::mutate_into(valid, kKinds[k], prop, compiled.alphabet(),
                                      rng, mutant);
              }
              if (!ok) continue;
              ++st.applied;
              {
                Tracer::Scope span(t, id_reference, mutant.trace.size());
                ref = spec::reference_check(prop, compiled.plan(), mutant.trace,
                                            end_of(mutant.trace));
              }
              if (!ref.rejected()) continue;
              ++st.invalid;
              // The floor rung: the highest checkpoint at or below the
              // mutant's divergence position.
              std::size_t begin = 0;
              const mon::Snapshot* rung = nullptr;
              if (stride != 0 && !ladder.empty()) {
                const std::size_t below =
                    std::min(mutant.position / stride, ladder.size());
                if (below > 0) {
                  rung = &ladder[below - 1];
                  begin = below * stride;
                }
              }
              if (batch != nullptr) {
                lane_traces.push_back(&mutant.trace);
                lane_starts.push_back(begin);
                lane_rungs.push_back(rung);
                if (lane_traces.size() == width) flush(st);
                continue;
              }
              if (rung != nullptr) {
                Tracer::Scope span(t, id_restore, 1);
                monitor->restore(*rung);
              } else {
                monitor->reset();
              }
              {
                Tracer::Scope span(t, id_lanes, mutant.trace.size() - begin);
                monitor->observe_batch(mutant.trace.data() + begin,
                                       mutant.trace.data() + mutant.trace.size());
                monitor->finish(end_of(mutant.trace));
              }
              if (monitor->verdict() == mon::Verdict::Violated) {
                ++st.detected;
              } else {
                ++st.missed;
              }
            }
            flush(st);
          }
        }
      }
    }
    fold = t.end_op();
    r.seconds = 1e-9 * static_cast<double>(fold.root_ns);
    for (const auto& per_kind : stats) {
      for (const auto& st : per_kind) r.work += static_cast<double>(st.applied);
    }
    if (r.failure.empty()) r.failure = check_replay(stats);
    return r;
  }

  void layer_metrics(const Tracer& t, MetricMap& out) const override {
    std::size_t invalid = 0;
    for (const auto& res : reference_) {
      for (const auto& m : res.mutation) invalid += m.invalid;
    }
    const double attempts = static_cast<double>(
        options_.seeds * ptrs_.size() * std::size(kKinds) * options_.mutants_per_kind);
    const double mutants = static_cast<double>(applied_per_op_);
    out["abv.stimuli.ns_per_event"] = t.self_ns_per_unit("abv.stimuli");
    out["abv.mutate.ns_per_mutant"] = t.self_ns_per_unit("abv.mutate");
    out["abv.mutate.applied_frac"] = safe_ratio(mutants, attempts);
    out["spec.reference.ns_per_event"] = t.self_ns_per_unit("spec.reference");
    out["spec.reference.invalid_frac"] =
        safe_ratio(static_cast<double>(invalid), mutants);
    out["mon.snapshot.ns_per_rung"] = t.self_ns_per_unit("mon.snapshot");
    out["mon.restore.ns_per_restore"] = t.self_ns_per_unit("mon.restore");
    out["mon.lanes.ns_per_lane_event"] = t.self_ns_per_unit("mon.lanes");
    out["mon.skip_ratio"] = diagnostic("skip_ratio");
    out["mon.lane_occupancy"] = diagnostic("lane_occupancy");
    out["mon.instance_reuse_rate"] = diagnostic("instance_reuse_rate");
    out["support.trace_cache_hit_rate"] = diagnostic("trace_cache_hit_rate");
    out["abv.campaign.allocs_per_mutant"] =
        ops_ == 0 ? 0.0 : safe_ratio(static_cast<double>(min_allocs_), mutants);
  }
};

// ---------------------------------------------------------------------------

// The replay's workers: whatever happens, each is reaped before the replay
// returns (terminate() only reaps an already-exited worker).
struct Fleet {
  std::vector<wire::WorkerProcess> procs;
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    for (auto& p : procs) p.terminate(100);
  }
};

class ShardedWorkers final : public CampaignWorkload {
 public:
  using CampaignWorkload::CampaignWorkload;

  // Replays the cross-process path through the wire API: the parent's plan
  // compilation, one request frame per worker (shard_size 1, round-robin,
  // exactly as run_campaigns assigns shards), forked workers running
  // abv::run_campaign_worker, a blocking drain of each worker's frames and
  // the reap after its EOF.
  OpResult traced_op(Tracer& t, Tracer::OpFold& fold) override {
    const std::uint32_t id_op = t.intern("op");
    const std::uint32_t id_plans = t.intern("abv.compile_plans");
    const std::uint32_t id_encode = t.intern("wire.encode");
    const std::uint32_t id_spawn = t.intern("wire.process.spawn");
    const std::uint32_t id_send = t.intern("wire.send");
    const std::uint32_t id_recv = t.intern("wire.recv");
    const std::uint32_t id_decode = t.intern("wire.decode");
    const std::uint32_t id_reap = t.intern("wire.process.reap");
    const std::uint32_t id_roundtrip = t.intern("wire.roundtrip");

    wire::ignore_sigpipe();
    OpResult r;
    const auto fail = [&](std::string what) {
      if (r.failure.empty()) r.failure = std::move(what);
    };
    const std::size_t workers = options_.workers;
    const std::size_t units = options_.seeds * kSlotsPerSeed;
    const long timeout_ms = static_cast<long>(options_.worker_timeout_ms);
    Fleet fleet;
    std::vector<wire::WorkerProcess>& procs = fleet.procs;
    std::vector<wire::WorkerPartialData> partials;
    std::uint64_t bytes = 0;
    {
      Tracer::Scope op(t, id_op);
      {
        Tracer::Scope s(t, id_plans, ptrs_.size());
        abv::pre_intern_stimuli_names(ab_, options_.stimuli);
        abv::compile_property_plans(ptrs_, ab_, options_);
      }
      wire::WorkerRequestData base;
      for (std::size_t i = 0; i < ab_.size(); ++i) {
        const auto n = static_cast<spec::Name>(i);
        base.names.push_back(ab_.text(n));
        base.directions.push_back(static_cast<std::uint8_t>(ab_.direction(n)));
      }
      for (const auto* p : ptrs_) base.properties.push_back(spec::to_string(*p, ab_));
      base.options = options_;
      base.options.workers = 0;

      for (std::size_t w = 0; w < workers; ++w) {
        std::vector<std::uint8_t> framed;
        {
          Tracer::Scope s(t, id_encode);
          wire::WorkerRequestData req = base;
          for (std::size_t i = w; i < ptrs_.size() * units; i += workers) {
            req.shards.push_back({i, i / units, i % units, i % units + 1});
          }
          wire::Encoder enc;
          wire::encode_worker_request(enc, req);
          wire::write_frame(framed, wire::Payload::WorkerRequest, enc);
          s.add_units(framed.size());
        }
        bytes += framed.size();
        std::vector<int> inherited;
        for (const auto& p : procs) {
          if (p.to_child >= 0) inherited.push_back(p.to_child);
          if (p.from_child >= 0) inherited.push_back(p.from_child);
        }
        {
          Tracer::Scope s(t, id_spawn, 1);
          procs.push_back(wire::spawn_worker(
              {}, [](int in, int out) { return abv::run_campaign_worker(in, out); },
              w, inherited));
        }
        {
          Tracer::Scope s(t, id_send, framed.size());
          if (!wire::write_all(procs.back().to_child, framed.data(), framed.size())) {
            fail("request write failed");
          }
        }
        procs.back().close_to_child();
      }

      for (std::size_t w = 0; w < workers; ++w) {
        wire::FdFrameReader reader(procs[w].from_child);
        reader.set_read_timeout_ms(timeout_ms);
        std::size_t got = 0;
        bool done = false;
        for (;;) {
          wire::Frame frame;
          wire::DecodeError err;
          wire::FdFrameReader::Status st;
          {
            Tracer::Scope s(t, id_recv);
            st = reader.next(frame, err);
          }
          if (st == wire::FdFrameReader::Status::Eof) break;
          if (st != wire::FdFrameReader::Status::Frame) {
            fail("worker stream: " + err.to_string());
            break;
          }
          const std::size_t framed = frame.size + wire::kFrameHeaderBytes;
          bytes += framed;
          Tracer::Scope s(t, id_decode, framed);
          wire::Decoder d(frame.data, frame.size);
          if (frame.tag == wire::Payload::WorkerPartial) {
            wire::WorkerPartialData part;
            if (wire::decode_worker_partial(d, part)) partials.push_back(std::move(part));
            ++got;
          } else if (frame.tag == wire::Payload::WorkerDone) {
            std::uint64_t count = 0;
            wire::decode_worker_done(d, count);
            done = count == got;
          } else {
            std::string message;
            wire::decode_worker_error(d, message);
            fail("worker error frame: " + message);
          }
          if (!d.exhausted()) fail("undecodable worker frame");
        }
        if (!done) fail("worker stream ended without a matching Done frame");
        Tracer::Scope s(t, id_reap, 1);
        int status = 0;
        if (!procs[w].wait_for(timeout_ms, status)) {
          fail("worker not reaped within the deadline");
        } else if (wire::exit_code(status) != abv::kWorkerExitOk) {
          fail("worker " + wire::describe_wait_status(status));
        }
      }
    }
    fold = t.end_op();
    r.seconds = 1e-9 * static_cast<double>(fold.root_ns);
    bytes_per_campaign_ = bytes;

    std::vector<std::array<abv::MutationStats, 5>> stats(ptrs_.size());
    for (const auto& part : partials) {
      if (part.job >= stats.size()) {
        fail("partial for an unknown property");
        continue;
      }
      for (std::size_t k = 0; k < 5; ++k) stats[part.job][k].merge(part.partial.mutation[k]);
      r.work += static_cast<double>(applied(part.partial));
    }
    if (partials.size() != ptrs_.size() * units) fail("missing shard partials");
    if (r.failure.empty()) r.failure = check_replay(stats);

    // Encode and decode the real partials once more, outside the replayed
    // operation: the worker-side encoding runs in the children, where
    // spans cannot reach.
    {
      Tracer::Scope root(t, id_roundtrip);
      wire::Encoder enc;
      std::vector<std::uint8_t> framed;
      for (const auto& part : partials) {
        {
          Tracer::Scope s(t, id_encode);
          enc.clear();
          framed.clear();
          wire::encode_worker_partial(enc, part);
          wire::write_frame(framed, wire::Payload::WorkerPartial, enc);
          s.add_units(framed.size());
        }
        Tracer::Scope s(t, id_decode, framed.size());
        wire::Frame frame;
        wire::DecodeError err;
        std::size_t consumed = 0;
        wire::WorkerPartialData back;
        if (!wire::parse_frame(framed.data(), framed.size(), frame, consumed, err)) {
          fail("re-encoded partial: " + err.to_string());
          continue;
        }
        wire::Decoder d(frame.data, frame.size);
        if (!wire::decode_worker_partial(d, back) ||
            applied(back.partial) != applied(part.partial)) {
          fail("re-encoded partial does not round-trip");
        }
      }
    }
    t.end_op();
    return r;
  }

  void layer_metrics(const Tracer& t, MetricMap& out) const override {
    const auto per_call_us = [&](const char* name) {
      const Tracer::Totals& tot = t.totals(name);
      return 1e-3 * safe_ratio(static_cast<double>(tot.self_ns),
                               static_cast<double>(tot.count));
    };
    out["wire.encode.ns_per_byte"] = t.self_ns_per_unit("wire.encode");
    out["wire.decode.ns_per_byte"] = t.self_ns_per_unit("wire.decode");
    out["wire.bytes_per_campaign"] = static_cast<double>(bytes_per_campaign_);
    out["wire.process.spawn_us"] = per_call_us("wire.process.spawn");
    out["wire.process.reap_us"] = per_call_us("wire.process.reap");
    out["wire.parent_idle_frac"] =
        std::max(0.0, 1.0 - safe_ratio(parent_cpu_s_, wall_s_));
    out["wire.child_cpu_ms_per_campaign"] =
        1e3 * safe_ratio(child_cpu_s_, static_cast<double>(ops_));
    out["wire.worker_retries"] = static_cast<double>(worker_retries_);
  }

 private:
  std::uint64_t bytes_per_campaign_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_mutation_campaign(std::uint64_t seed, Scale scale) {
  abv::CampaignOptions o;
  o.first_seed = seed;
  o.seeds = scale == Scale::Full ? 96 : 4;
  o.stimuli.rounds = 32;
  o.stimuli.noise_permille = 100;
  o.mutants_per_kind = 16;
  o.threads = 1;
  return std::make_unique<MutationCampaign>(o);
}

std::unique_ptr<Workload> make_sharded_workers(std::uint64_t seed, Scale) {
  abv::CampaignOptions o;
  o.first_seed = seed;
  o.seeds = 16;
  o.stimuli.rounds = 4;
  o.stimuli.noise_permille = 100;
  o.mutants_per_kind = 4;
  o.threads = 1;
  o.shard_size = 1;
  o.workers = 2;
  // Armed so the supervised drain runs its deadline path; far above any
  // healthy operation, so only a stuck worker can trip it.
  o.worker_timeout_ms = 20000;
  return std::make_unique<ShardedWorkers>(o);
}

}  // namespace loombench
