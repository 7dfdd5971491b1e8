// loombench: one closed-loop benchmark run of one workload.
//
//   loombench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans-out PATH]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 measures the per-layer metrics: untraced operations alternate
// with the workload's pipeline replayed through the public calls with
// spans (so both see the same machine), then a small probe of each other
// workload covers the layers this one never calls.  Library set-ups are
// interleaved with the operations for the same reason: the host's speed
// drifts over seconds, and a quantity sampled in one burst would measure
// the drift instead of the code.
// The last line of stdout is one JSON object; the exit status is 0 only
// when every operation's correctness check held.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.hpp"
#include "workload.hpp"

namespace loombench {
namespace {

constexpr const char* kUsage =
    "usage: loombench --workload mutation_campaign|trace_check|sharded_workers\n"
    "                 [--seed N] [--seconds S] [--trace 0|1] [--spans-out PATH]\n";

// Library set-ups timed after every operation; setup_s is their median.
constexpr int kSetupsPerOp = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 20160314;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

constexpr const char* kWorkloads[] = {"mutation_campaign", "trace_check",
                                      "sharded_workers"};

std::unique_ptr<Workload> make(std::string_view name, std::uint64_t seed,
                               Scale scale) {
  if (name == "mutation_campaign") return make_mutation_campaign(seed, scale);
  if (name == "trace_check") return make_trace_check(seed, scale);
  return make_sharded_workers(seed, scale);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && ptr != text;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int k = 1; k < argc; k += 2) {
    if (k + 1 >= argc) return false;
    const std::string_view flag = argv[k];
    const char* value = argv[k + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      a.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, n) && n > 0 && n <= 600) {
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_u64(value, n) && n <= 1) {
      a.trace = n == 1;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      return false;
    }
  }
  for (const char* name : kWorkloads) {
    if (a.workload == name) return true;
  }
  return false;
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

// Peak resident set of this process image.  VmHWM rather than ru_maxrss:
// ru_maxrss survives exec, so it would report the launching interpreter's
// footprint whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Run {
  OpTally tally;
  bool reported = false;

  void record(const OpResult& r, const char* what) {
    tally.record(r.failure.empty());
    if (!r.failure.empty() && !reported) {
      reported = true;
      std::fprintf(stderr, "loombench: FAILED %s: %s\n", what, r.failure.c_str());
    }
  }
};

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += run.tally.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.tally.attempted);
  line += ", \"failed\": " + std::to_string(run.tally.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// Repeats `step` until `seconds` of wall time have passed (at least once).
template <typename Step>
void closed_loop(double seconds, Step step) {
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    step();
  } while (now_ns() < stop);
}

std::vector<Metric> end_to_end(const Args& args, Workload& w, Run& run) {
  std::vector<double> op_ms;
  std::vector<double> setup_s;
  double work = 0.0;
  closed_loop(args.seconds, [&] {
    const OpResult r = w.run_op();
    run.record(r, "operation");
    op_ms.push_back(r.seconds * 1e3);
    work += r.work;
    for (int k = 0; k < kSetupsPerOp; ++k) {
      const std::int64_t t0 = now_ns();
      w.setup(nullptr);
      setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    }
  });
  // Throughput sustained by nine operations in ten: every operation of a run
  // does the same work, so this is the work per operation over op_ms.p90.
  // Total work over total time would move with the host's regime mix
  // (DESIGN.md, Noise).
  const double work_per_s = safe_ratio(
      work / static_cast<double>(op_ms.size()), 1e-3 * percentile(op_ms, 90));

  const bool campaign = args.workload != "trace_check";
  const char* op = campaign ? "campaign_ms" : "check_ms";
  std::printf("%s seed %llu: %zu operations, %zu set-ups\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), op_ms.size(),
              setup_s.size());
  for (const double p : {50.0, 75.0, 90.0}) {
    std::printf("  %s.p%-3.0f %10.6g ms (%s, %zu samples)\n", op, p,
                percentile(op_ms, p),
                percentile_resolved(op_ms.size(), p) ? "resolved" : "UNRESOLVED",
                op_ms.size());
  }
  std::printf("  %-15s %10.6g %s/s\n", campaign ? "mutants_per_s" : "events_per_s",
              work_per_s, campaign ? "mutants" : "events");
  std::printf("  %-15s %10.6g\n", "failed_frac", run.tally.failed_frac());
  // p50 and p75 are printed but not reported: they flip between the host's
  // speed regimes from run to run (DESIGN.md, Noise).
  return {
      {"setup_s", median(setup_s), "s"},
      {"op_ms.p90", percentile(op_ms, 90), "ms"},
      {"work_per_s", work_per_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// Units of the per-layer metrics; every traced run reports all of them.
const std::vector<std::pair<std::string, std::string>> kLayerUnits = {
    {"spec.parse.us_per_property", "us"},
    {"mon.compile.us_per_property", "us"},
    {"abv.trace.from_text.ns_per_event", "ns"},
    {"mon.replay.ns_per_event", "ns"},
    {"abv.stimuli.ns_per_event", "ns"},
    {"abv.mutate.ns_per_mutant", "ns"},
    {"abv.mutate.applied_frac", "ratio"},
    {"spec.reference.ns_per_event", "ns"},
    {"spec.reference.invalid_frac", "ratio"},
    {"mon.snapshot.ns_per_rung", "ns"},
    {"mon.restore.ns_per_restore", "ns"},
    {"mon.lanes.ns_per_lane_event", "ns"},
    {"mon.skip_ratio", "ratio"},
    {"mon.lane_occupancy", "ratio"},
    {"mon.instance_reuse_rate", "ratio"},
    {"support.trace_cache_hit_rate", "ratio"},
    {"abv.campaign.allocs_per_mutant", "count"},
    {"wire.encode.ns_per_byte", "ns"},
    {"wire.decode.ns_per_byte", "ns"},
    {"wire.bytes_per_campaign", "bytes"},
    {"wire.process.spawn_us", "us"},
    {"wire.process.reap_us", "us"},
    {"wire.parent_idle_frac", "ratio"},
    {"wire.child_cpu_ms_per_campaign", "ms"},
    {"wire.worker_retries", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

void write_spans(const std::string& path, const Tracer& t) {
  std::ofstream out(path);
  out << "op\tspan\tparent\tname\tstart_ns\tend_ns\tunits\n";
  const auto& spans = t.kept_spans();
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.op << '\t' << i << '\t'
        << (s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent)) << '\t'
        << t.name_of(s.name) << '\t' << s.start_ns - t0 << '\t' << s.end_ns - t0
        << '\t' << s.units << '\n';
  }
}

std::vector<Metric> per_layer(const Args& args, Workload& w, Run& run) {
  MetricMap layers;
  Tracer setup_tracer;
  Tracer tracer;
  std::vector<double> untraced_ns;
  std::vector<double> traced_ns;
  std::vector<double> covered_ns;
  closed_loop(0.9 * args.seconds, [&] {
    const OpResult r = w.run_op();
    run.record(r, "operation");
    untraced_ns.push_back(r.seconds * 1e9);
    Tracer::OpFold fold;
    run.record(w.traced_op(tracer, fold), "traced operation");
    traced_ns.push_back(static_cast<double>(fold.root_ns));
    covered_ns.push_back(static_cast<double>(fold.covered_ns));
    w.setup(&setup_tracer);
    setup_tracer.end_op();
  });
  layers["spec.parse.us_per_property"] =
      1e-3 * setup_tracer.self_ns_per_unit("spec.parse");
  layers["mon.compile.us_per_property"] =
      1e-3 * setup_tracer.self_ns_per_unit("mon.compile");
  w.layer_metrics(tracer, layers);
  layers["trace.coverage"] = safe_ratio(median(covered_ns), median(untraced_ns));
  layers["trace.overhead"] = safe_ratio(median(traced_ns), median(untraced_ns));
  if (!args.spans_out.empty()) write_spans(args.spans_out, tracer);

  // The layers this workload's pipeline never calls, from a small probe of
  // the workload that owns them (same seed).
  for (const char* other : kWorkloads) {
    if (args.workload == other) continue;
    const auto probe = make(other, args.seed, Scale::Probe);
    for (int k = 0; k < 2; ++k) run.record(probe->run_op(), "probe operation");
    Tracer probe_tracer;
    Tracer::OpFold fold;
    run.record(probe->traced_op(probe_tracer, fold), "traced probe operation");
    probe->layer_metrics(probe_tracer, layers);
  }

  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerUnits) {
    const auto it = layers.find(name);
    if (it == layers.end()) {
      throw std::logic_error("no value for per-layer metric " + name);
    }
    out.push_back({name, it->second, unit});
    std::printf("  %-34s %.6g %s\n", name.c_str(), it->second, unit.c_str());
  }
  if (layers.size() != kLayerUnits.size()) {
    throw std::logic_error("a workload reports a per-layer metric with no unit");
  }
  return out;
}

int run_main(const Args& args) {
  // Benchmark set-up: inputs from the seed, and the reference results every
  // operation is checked against.
  const auto w = make(args.workload, args.seed, Scale::Full);
  Run run;
  run.record(w->run_op(), "warm-up operation");  // fills lazy caches
  const std::vector<Metric> metrics =
      args.trace ? per_layer(args, *w, run) : end_to_end(args, *w, run);
  print_result(run, metrics);
  return run.tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace loombench

int main(int argc, char** argv) {
  loombench::Args args;
  if (!loombench::parse_args(argc, argv, args)) {
    std::fprintf(stderr, "%s", loombench::kUsage);
    return 2;
  }
  try {
    return loombench::run_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loombench: %s\n", e.what());
    return 1;
  }
}
