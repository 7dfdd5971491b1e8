// trace_check: the loomcheck path on a recorded trace.  Each operation
// parses a trace from text (abv::from_text), compiles and instantiates
// every property (mon::CompiledProperty) and replays the whole trace
// through each monitor in one scalar MonitorModule::observe_batch — one
// long forward stream, with no restore, no lanes, no mutation and no oracle.
// Operations alternate between a valid trace and a copy carrying one
// planted violation.
#include <algorithm>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "abv/trace.hpp"
#include "mon/compiled.hpp"
#include "mon/monitor_module.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace loombench {
namespace {

using namespace loom;

// Disjoint alphabets, so one trace can satisfy all four at once; the first
// is the paper's wide-range property.
constexpr const char* kSources[] = {
    "(start => read_img[1,60000] < set_irq, 2ms)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 1ms)",
    "(({cfg_a, cfg_b}, &) << go, true)",
};
// Events per generated trace.  The wide range takes whole rounds until it
// holds kWideShare of them, the other three properties share the rest, so
// every seed checks (almost exactly) the same number of events: one wide
// round alone ranges over 1..60000 events.
constexpr std::size_t kFullEvents = 500000;
constexpr std::size_t kProbeEvents = 40000;
constexpr double kWideShare = 0.6;

// What a correct checker reports for one property on one trace.
struct Expected {
  bool rejected = false;
  std::size_t index = 0;  // offending event when rejected
};

// What the checker did report.
struct Observed {
  bool violated = false;
  std::size_t ordinal = 0;
};

class TraceCheck final : public Workload {
 public:
  TraceCheck(std::uint64_t seed, Scale scale)
      : properties_(parse_properties(kSources, ab_, nullptr)) {
    const std::size_t events = scale == Scale::Full ? kFullEvents : kProbeEvents;
    spec::Trace valid;
    append_rounds(0, seed, static_cast<std::size_t>(kWideShare * events), valid);
    const std::size_t rest = events - std::min(events, valid.size());
    for (std::size_t p = 1; p < properties_.size(); ++p) {
      const std::size_t share = rest / (properties_.size() - 1);
      append_rounds(p, seed, valid.size() + share, valid);
    }
    // One stream, interleaved by time.
    std::stable_sort(valid.begin(), valid.end(),
                     [](const spec::TimedEvent& a, const spec::TimedEvent& b) {
                       return a.time < b.time;
                     });

    // The planted violation: the first mutant, drawn from the seed, that
    // the reference rejects at an event of the trace.
    spec::Trace violated;
    for (std::size_t attempt = 0; violated.empty(); ++attempt) {
      if (attempt == 256) throw std::runtime_error("no violation to plant");
      const spec::Property& prop = properties_[attempt % properties_.size()];
      support::Rng rng = support::Rng::stream(seed, 1000 + attempt);
      abv::MutationResult mutant;
      const auto kind = static_cast<abv::MutationKind>((attempt / 4) % 4);
      if (!abv::mutate_into(valid, kind, prop, rng, mutant)) continue;
      const auto ref = spec::reference_check(prop, mutant.trace, end_of(mutant.trace));
      if (ref.rejected() && ref.error_index < mutant.trace.size()) {
        violated = std::move(mutant.trace);
      }
    }

    for (const spec::Trace* trace : {&valid, &violated}) {
      texts_.push_back(abv::to_text(*trace, ab_));
      events_.push_back(trace->size());
      std::vector<Expected> expect;
      for (const auto& prop : properties_) {
        const auto ref = spec::reference_check(prop, *trace, end_of(*trace));
        expect.push_back({ref.rejected(), ref.error_index});
      }
      expected_.push_back(std::move(expect));
    }
    const auto rejects = [](const std::vector<Expected>& e) {
      return std::count_if(e.begin(), e.end(),
                           [](const Expected& x) { return x.rejected; });
    };
    if (rejects(expected_[0]) != 0 || rejects(expected_[1]) == 0) {
      throw std::runtime_error("generated traces do not split valid/violated");
    }
  }

  void setup(Tracer* tracer) override {
    spec::Alphabet ab;
    const auto props = parse_properties(kSources, ab, tracer);
    for (const auto& p : props) {
      std::optional<Tracer::Scope> span;
      if (tracer != nullptr) span.emplace(*tracer, tracer->intern("mon.compile"), 1);
      mon::CompiledProperty::compile(p, ab);
    }
  }

  OpResult run_op() override { return check(nullptr); }

  OpResult traced_op(Tracer& tracer, Tracer::OpFold& fold) override {
    OpResult r = check(&tracer);
    fold = tracer.end_op();
    r.seconds = 1e-9 * static_cast<double>(fold.root_ns);
    return r;
  }

  void layer_metrics(const Tracer& t, MetricMap& out) const override {
    out["abv.trace.from_text.ns_per_event"] =
        t.self_ns_per_unit("abv.trace.from_text");
    out["mon.replay.ns_per_event"] = t.self_ns_per_unit("mon.replay");
  }

 private:
  // Appends whole rounds of property p's valid stimuli, each from its own
  // Rng stream and shifted past the previous round, until `out` holds at
  // least `target` events.
  void append_rounds(std::size_t p, std::uint64_t seed, std::size_t target,
                     spec::Trace& out) {
    abv::StimuliOptions stimuli;
    stimuli.rounds = 1;
    stimuli.noise_permille = 100;
    sim::Time offset = sim::Time::zero();
    for (std::uint64_t round = 0; out.size() < target; ++round) {
      support::Rng rng = support::Rng::stream(seed, (p << 32) | round);
      for (const auto& ev : abv::generate_valid(properties_[p], ab_, rng, stimuli)) {
        out.push_back({ev.name, offset + ev.time});
      }
      offset = out.back().time + sim::Time::us(1);
    }
  }

  OpResult check(Tracer* t) {
    const std::size_t which = next_++ % texts_.size();
    OpResult r;
    std::vector<Observed> seen;
    seen.reserve(properties_.size());
    std::optional<spec::Trace> trace;
    const std::int64_t t0 = now_ns();
    {
      std::optional<Tracer::Scope> op;
      if (t != nullptr) op.emplace(*t, t->intern("op"));
      support::DiagnosticSink sink;
      {
        std::optional<Tracer::Scope> span;
        if (t != nullptr) span.emplace(*t, t->intern("abv.trace.from_text"), events_[which]);
        trace = abv::from_text(texts_[which], ab_, sink);
      }
      if (!trace) {
        r.failure = "from_text rejected the trace: " + sink.to_string();
        return r;
      }
      const sim::Time end = end_of(*trace);
      for (const auto& prop : properties_) {
        std::unique_ptr<mon::Monitor> monitor;
        {
          std::optional<Tracer::Scope> span;
          if (t != nullptr) span.emplace(*t, t->intern("mon.compile"), 1);
          monitor = mon::CompiledProperty::compile(prop, ab_).instantiate();
        }
        std::optional<Tracer::Scope> span;
        if (t != nullptr) span.emplace(*t, t->intern("mon.replay"), trace->size());
        sim::Scheduler scheduler;
        mon::MonitorModule module(scheduler, "check", *monitor, ab_);
        module.set_arm_watchdogs(false);  // the kernel is never pumped
        module.observe_batch(*trace, mon::MonitorModule::BatchPolicy::ReplayAll);
        monitor->finish(end);
        const auto& v = monitor->violation();
        seen.push_back({monitor->verdict() == mon::Verdict::Violated,
                        v.has_value() ? v->event_ordinal : 0});
      }
    }
    r.seconds = 1e-9 * static_cast<double>(now_ns() - t0);
    r.work = static_cast<double>(trace->size() * properties_.size());
    if (trace->size() != events_[which]) {
      r.failure = "parsed trace has the wrong length";
    }
    for (std::size_t p = 0; p < seen.size() && r.failure.empty(); ++p) {
      const Expected& want = expected_[which][p];
      if (seen[p].violated != want.rejected) {
        r.failure = std::string(want.rejected ? "missed" : "false") +
                    " violation of " + kSources[p];
      } else if (want.rejected && seen[p].ordinal != want.index) {
        r.failure = std::string("violation of ") + kSources[p] + " at event " +
                    std::to_string(seen[p].ordinal) + ", reference says " +
                    std::to_string(want.index);
      }
    }
    return r;
  }

  spec::Alphabet ab_;
  std::vector<spec::Property> properties_;
  std::vector<std::string> texts_;  // [0] valid, [1] planted violation
  std::vector<std::size_t> events_;
  std::vector<std::vector<Expected>> expected_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_trace_check(std::uint64_t seed, Scale scale) {
  return std::make_unique<TraceCheck>(seed, scale);
}

}  // namespace loombench
