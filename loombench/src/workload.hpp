// The benchmark's workloads behind one interface, so main.cpp runs every
// workload through the same closed loop: one caller, the next operation
// issued when the previous one returns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "spec/parser.hpp"
#include "spec/reference.hpp"

namespace loombench {

/// Full runs a workload at its benchmark size; Probe runs a small copy of
/// it, used only to measure the layers another workload's pipeline never
/// calls (see main.cpp's traced run).
enum class Scale { Full, Probe };

/// Metric name → value.
using MetricMap = std::map<std::string, double>;

struct OpResult {
  double seconds = 0.0;  // wall time of the library calls alone
  double work = 0.0;     // mutants applied, or events x properties checked
  std::string failure;   // first check that did not hold; empty when ok
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One library set-up: every property parsed into a fresh alphabet and
  /// compiled, as the workload's operations compile them.  With a tracer,
  /// records spec.parse / mon.compile spans.
  virtual void setup(Tracer* tracer) = 0;
  /// One untraced operation, checked against the reference made at
  /// construction.
  virtual OpResult run_op() = 0;
  /// One operation's pipeline replayed through the public calls, with a
  /// span around each call into a layer; checked as well.  Ends exactly one
  /// tracer operation for the replayed pipeline and returns its fold.
  virtual OpResult traced_op(Tracer& tracer, Tracer::OpFold& fold) = 0;
  /// The per-layer metrics this workload's pipeline owns, from its traced
  /// spans and the exact counters of its untraced operations.
  virtual void layer_metrics(const Tracer& tracer, MetricMap& out) const = 0;
};

inline loom::sim::Time end_of(const loom::spec::Trace& t) {
  return t.empty() ? loom::sim::Time::zero() : t.back().time;
}

/// Parses every source into `ab`, with a spec.parse span per property when
/// `tracer` is set; a source that does not parse is a benchmark bug.
inline std::vector<loom::spec::Property> parse_properties(
    std::span<const char* const> sources, loom::spec::Alphabet& ab,
    Tracer* tracer) {
  std::vector<loom::spec::Property> out;
  for (const char* source : sources) {
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr) span.emplace(*tracer, tracer->intern("spec.parse"), 1);
    loom::support::DiagnosticSink sink;
    auto p = loom::spec::parse_property(source, ab, sink);
    if (!p) {
      throw std::logic_error(std::string("parse error in ") + source + ": " +
                             sink.to_string());
    }
    out.push_back(std::move(*p));
  }
  return out;
}

std::unique_ptr<Workload> make_mutation_campaign(std::uint64_t seed,
                                                 Scale scale);
std::unique_ptr<Workload> make_sharded_workers(std::uint64_t seed,
                                               Scale scale);
std::unique_ptr<Workload> make_trace_check(std::uint64_t seed, Scale scale);

}  // namespace loombench
