// Shared helpers for the LOOM test suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "mon/monitors.hpp"
#include "spec/parser.hpp"
#include "spec/reference.hpp"
#include "spec/wellformed.hpp"
#include "support/reference_campaign.hpp"

namespace loom::spec {

/// GTest printer: containers of TimedEvent render element-wise as
/// "#id@<ps>ps" instead of byte dumps (the interned text needs an
/// Alphabet; see loom::testing::traces_equal for the named form).
inline void PrintTo(const TimedEvent& ev, std::ostream* os) {
  *os << "#" << ev.name << "@" << ev.time.picoseconds() << "ps";
}

}  // namespace loom::spec

namespace loom::testing {

/// Parses a property, asserting success; aborts the test on failure.
inline spec::Property parse(const std::string& source, spec::Alphabet& ab) {
  support::DiagnosticSink sink;
  auto p = spec::parse_property(source, ab, sink);
  if (!p) {
    throw std::runtime_error("parse failed for: " + source + "\n" +
                             sink.to_string());
  }
  return *p;
}

/// Builds a trace from a whitespace-separated list of names; events are
/// spaced `step_ns` apart starting at t = step_ns.
inline spec::Trace trace_of(const std::string& names, spec::Alphabet& ab,
                            std::uint64_t step_ns = 10) {
  spec::Trace t;
  std::istringstream in(names);
  std::string w;
  std::uint64_t i = 1;
  while (in >> w) {
    t.push_back({ab.name(w), sim::Time::ns(step_ns * i)});
    ++i;
  }
  return t;
}

/// Builds a trace with explicit "name@ns" stamps, e.g. "a@10 b@25".
inline spec::Trace timed_trace_of(const std::string& entries,
                                  spec::Alphabet& ab) {
  spec::Trace t;
  std::istringstream in(entries);
  std::string w;
  while (in >> w) {
    const auto at = w.find('@');
    const std::string name = w.substr(0, at);
    const std::uint64_t ns = std::stoull(w.substr(at + 1));
    t.push_back({ab.name(name), sim::Time::ns(ns)});
  }
  return t;
}

/// Runs a Drct monitor over a trace and finishes it at `end_time` (defaults
/// to the last event's time).
inline mon::Verdict run_monitor(mon::Monitor& m, const spec::Trace& trace,
                                std::optional<sim::Time> end_time = {}) {
  for (const auto& ev : trace) m.observe(ev.name, ev.time);
  sim::Time end = end_time.value_or(
      trace.empty() ? sim::Time::zero() : trace.back().time);
  m.finish(end);
  return m.verdict();
}

/// Calls fn(trace) for every trace over `names` with length <= max_len.
/// Events are spaced 10 ns apart.
template <typename Fn>
void for_all_traces(const std::vector<spec::Name>& names,
                    std::size_t max_len, Fn&& fn) {
  std::vector<std::size_t> digits;
  spec::Trace trace;
  for (std::size_t len = 0; len <= max_len; ++len) {
    digits.assign(len, 0);
    for (;;) {
      trace.clear();
      for (std::size_t k = 0; k < len; ++k) {
        trace.push_back({names[digits[k]], sim::Time::ns(10 * (k + 1))});
      }
      fn(trace);
      // Next combination (odometer).
      std::size_t pos = 0;
      while (pos < len && ++digits[pos] == names.size()) {
        digits[pos] = 0;
        ++pos;
      }
      if (pos == len) break;
      if (len == 0) break;
    }
  }
}

/// The property lists of the exhaustive small-model sweeps
/// (mon_exhaustive_test, and the reference cursor's resume sweep).
inline constexpr const char* kExhaustiveAntecedents[] = {
    "(a << i, true)",
    "(a << i, false)",
    "(a[2,3] << i, true)",
    "(({a, b}, &) << i, true)",
    "(({a, b}, |) << i, true)",
    "(({a, b}, |) << i, false)",
    "(a < b << i, true)",
    "(a[1,2] < b << i, true)",
    "(({a, b}, &) < c << i, true)",
    "(a < ({b, c}, |) << i, false)",
};
inline constexpr const char* kExhaustiveTimed[] = {
    // Bound 35 ns with 10 ns spacing: deadlines bite mid-trace.
    "(a => b, 35ns)",
    "(a => b, 1us)",
    "(a => b[1,2], 35ns)",
    "(a[1,2] => b, 45ns)",
    "(a => b < c, 55ns)",
    "(a < b => c, 55ns)",
};

/// The names of a property's alphabet, in id order.
inline std::vector<spec::Name> alphabet_names(const spec::Property& p) {
  std::vector<spec::Name> names;
  p.alphabet().for_each(
      [&](std::size_t id) { names.push_back(static_cast<spec::Name>(id)); });
  return names;
}

/// The exhaustive sweeps' length bound for a property's Drct ≡ reference
/// check: 6 for timed properties; 7 for antecedents over at most three
/// names, else 5.
inline std::size_t exhaustive_max_len(const spec::Property& p) {
  if (p.is_timed()) return 6;
  return p.alphabet().count() <= 3 ? 7 : 5;
}

/// Renders one event as "name@<ps>ps", falling back to "#id" for ids the
/// alphabet does not know (e.g. traces parsed into a different alphabet).
inline std::string render_event(const spec::TimedEvent& ev,
                                const spec::Alphabet& ab) {
  std::ostringstream os;
  if (ev.name < ab.size()) {
    os << ab.text(ev.name);
  } else {
    os << "#" << ev.name;
  }
  os << "@" << ev.time.picoseconds() << "ps";
  return os.str();
}

/// Element-wise trace comparison: the failure message names the first
/// diverging event (or the first surplus event of the longer trace)
/// instead of an opaque boolean.
inline ::testing::AssertionResult traces_equal(const spec::Trace& actual,
                                               const spec::Trace& expected,
                                               const spec::Alphabet& ab) {
  const std::size_t n = std::min(actual.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(actual[i] == expected[i])) {
      return ::testing::AssertionFailure()
             << "traces diverge at event " << i << ": actual "
             << render_event(actual[i], ab) << " vs expected "
             << render_event(expected[i], ab);
    }
  }
  if (actual.size() != expected.size()) {
    const auto& longer = actual.size() > expected.size() ? actual : expected;
    return ::testing::AssertionFailure()
           << "trace sizes differ: actual " << actual.size()
           << " vs expected " << expected.size() << "; first surplus event ["
           << n << "] = " << render_event(longer[n], ab);
  }
  return ::testing::AssertionSuccess();
}

/// Keeps a forced non-Vm backend runnable under the default wave width:
/// lane_width > 1 with backend=Drct/ViaPSL is a rejected contradiction
/// (run_campaigns throws), so backend grids that legitimately force those
/// backends drop to the scalar path.  The lane grid itself lives in
/// campaign_lane_diff_test.
inline void scalar_lanes_if_forced(abv::CampaignOptions& opt) {
  if (opt.backend == mon::Backend::Drct ||
      opt.backend == mon::Backend::ViaPSL) {
    opt.lane_width = 1;
  }
}

/// Field-wise CampaignResult comparison for the determinism / differential
/// suites: lists every differing field by name.  The trace-cache hit/miss
/// counters and the compiled-plan instance counters are engine
/// diagnostics, deliberately excluded — compare them separately where a
/// test pins them down.  The backend fields of compile_stats are semantic
/// (they name the monitor construction behind the numbers) and do compare.
inline ::testing::AssertionResult results_identical(
    const abv::CampaignResult& a, const abv::CampaignResult& b) {
  std::ostringstream diff;
  const auto field = [&diff](const char* name, auto x, auto y) {
    if (!(x == y)) diff << "  " << name << ": " << x << " vs " << y << "\n";
  };
  field("compile_stats.backend_requested",
        mon::to_string(a.compile_stats.backend_requested),
        mon::to_string(b.compile_stats.backend_requested));
  field("compile_stats.backend_chosen",
        mon::to_string(a.compile_stats.backend_chosen),
        mon::to_string(b.compile_stats.backend_chosen));
  field("traces", a.traces, b.traces);
  field("events", a.events, b.events);
  field("valid_accepted", a.valid_accepted, b.valid_accepted);
  field("oracle_disagreements", a.oracle_disagreements,
        b.oracle_disagreements);
  field("viapsl_false_alarms", a.viapsl_false_alarms, b.viapsl_false_alarms);
  for (std::size_t k = 0; k < 5; ++k) {
    const std::string kind =
        std::string("mutation[") +
        abv::to_string(static_cast<abv::MutationKind>(k)) + "].";
    field((kind + "applied").c_str(), a.mutation[k].applied,
          b.mutation[k].applied);
    field((kind + "invalid").c_str(), a.mutation[k].invalid,
          b.mutation[k].invalid);
    field((kind + "detected").c_str(), a.mutation[k].detected,
          b.mutation[k].detected);
    field((kind + "missed").c_str(), a.mutation[k].missed,
          b.mutation[k].missed);
  }
  // Coverage ratios and the operation accounting compare exactly, not
  // within a tolerance: the shard merges are exact.
  field("alphabet_coverage", a.alphabet_coverage, b.alphabet_coverage);
  field("recognizer_state_coverage", a.recognizer_state_coverage,
        b.recognizer_state_coverage);
  field("monitor_stats.ops", a.monitor_stats.ops, b.monitor_stats.ops);
  field("monitor_stats.events", a.monitor_stats.events,
        b.monitor_stats.events);
  field("monitor_stats.max_ops_per_event", a.monitor_stats.max_ops_per_event,
        b.monitor_stats.max_ops_per_event);
  // Degradation is semantic (worker_retries is not: a retried campaign
  // must compare identical to a clean one, so the retry count stays out).
  field("shard_failures.size()", a.shard_failures.size(),
        b.shard_failures.size());
  if (diff.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "CampaignResult fields differ:\n"
         << diff.str();
}

/// One campaign's result plus its default report text: the pair every
/// differential suite compares byte for byte.
struct CampaignRun {
  abv::CampaignResult result;
  std::string report;
};

/// Runs the production engine over `source`, parsed into a fresh alphabet
/// so runs never influence each other through interned ids.
inline CampaignRun run_production(const std::string& source,
                                  const abv::CampaignOptions& options) {
  spec::Alphabet ab;
  const spec::Property p = parse(source, ab);
  const abv::CampaignResult r = abv::run_campaign(p, ab, options);
  return {r, r.report(ab)};
}

/// Runs the naive reference campaign (support/reference_campaign.hpp) over
/// `source`, parsed into a fresh alphabet.
inline CampaignRun run_reference(const std::string& source,
                                 const abv::CampaignOptions& options) {
  spec::Alphabet ab;
  const spec::Property p = parse(source, ab);
  const abv::CampaignResult r = reference_campaign(p, ab, options);
  return {r, r.report(ab)};
}

/// Production ≡ reference: every semantic field (results_identical) and
/// the report text, byte for byte.
inline ::testing::AssertionResult matches_reference(
    const CampaignRun& run, const CampaignRun& reference) {
  const ::testing::AssertionResult same =
      results_identical(run.result, reference.result);
  if (!same) return same;
  if (run.report != reference.report) {
    return ::testing::AssertionFailure()
           << "reports differ:\n" << run.report << "reference:\n"
           << reference.report;
  }
  return ::testing::AssertionSuccess();
}

/// Logical monitor draws of a campaign without the ViaPSL cross-check:
/// one per valid unit plus one per reference-rejected (replayed) mutant.
/// CompileStats::instances_stamped + instance_reuses must equal it at any
/// shard size, thread count, stride or lane width.
inline std::size_t logical_draws(const abv::CampaignResult& r) {
  std::size_t draws = r.traces;
  for (const auto& m : r.mutation) draws += m.invalid;
  return draws;
}

/// Maps a monitor verdict onto the reference verdict domain.
inline spec::RefVerdict as_ref(mon::Verdict v) {
  switch (v) {
    case mon::Verdict::Violated: return spec::RefVerdict::Rejected;
    case mon::Verdict::Pending: return spec::RefVerdict::Pending;
    case mon::Verdict::Monitoring:
    case mon::Verdict::Holds: return spec::RefVerdict::Accepted;
  }
  return spec::RefVerdict::Accepted;
}

}  // namespace loom::testing
