// Self-test of the benchmark's own arithmetic (src/metrics.hpp): the
// percentile rule and its sample count, span self time with nested and
// overlapping children, guarded ratios and failure counting.
//
//   python3 loombench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "math_test.cpp:%d: FAILED %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace loombench;

void percentile_rule() {
  EXPECT(nearest_rank(0, 50) == 0);
  EXPECT(nearest_rank(1, 50) == 1);
  EXPECT(nearest_rank(4, 50) == 2);
  EXPECT(nearest_rank(5, 50) == 3);
  EXPECT(nearest_rank(100, 90) == 90);  // no off-by-one from 0.9 * 100
  EXPECT(nearest_rank(101, 90) == 91);
  EXPECT(nearest_rank(10, 100) == 10);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(percentile(v, 50) == 50);
  EXPECT(percentile(v, 90) == 90);
  EXPECT(percentile({}, 90) == 0);
  EXPECT(percentile({7}, 90) == 7);
  EXPECT(percentile({3, 1, 2}, 50) == 2);

  // Ten samples must lie beyond a reported percentile: p90 needs 100.
  EXPECT(!percentile_resolved(0, 90));
  EXPECT(!percentile_resolved(99, 90));
  EXPECT(percentile_resolved(100, 90));
  EXPECT(percentile_resolved(20, 50));
  EXPECT(!percentile_resolved(19, 50));
}

void guarded_ratios() {
  EXPECT(safe_ratio(0, 0) == 0);
  EXPECT(safe_ratio(5, 0) == 0);
  EXPECT(!std::isnan(safe_ratio(0, 0)));
  EXPECT(safe_ratio(3, 4) == 0.75);
}

void failure_counting() {
  OpTally t;
  EXPECT(t.failed_frac() == 0);  // nothing attempted: 0, not NaN
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(true);
  EXPECT(t.attempted == 4);
  EXPECT(t.failed == 1);
  EXPECT(t.failed_frac() == 0.25);
}

Span span(std::uint32_t parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void self_time() {
  // root [0,100) holds a [10,40) and b [50,60); a holds c [20,30).
  const std::vector<Span> nested = {
      span(kNoSpan, 0, 100), span(0, 10, 40), span(1, 20, 30), span(0, 50, 60)};
  const auto self = self_times(nested);
  EXPECT(self[0] == 100 - 30 - 10);
  EXPECT(self[1] == 30 - 10);  // only direct children count
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 10);

  // Overlapping children count once; a child outside its parent counts
  // only inside it.
  const std::vector<Span> odd = {span(kNoSpan, 0, 100), span(0, 10, 40),
                                 span(0, 30, 50), span(0, 90, 120)};
  EXPECT(self_times(odd)[0] == 100 - 40 - 10);

  // The tracer folds the same numbers per name and reports the covered
  // (non-root) self time.
  Tracer t;
  const auto root = t.intern("op");
  const auto leaf = t.intern("leaf");
  {
    Tracer::Scope r(t, root);
    Tracer::Scope l(t, leaf, 3);
    l.add_units(2);
  }
  const Tracer::OpFold fold = t.end_op();
  EXPECT(t.totals("leaf").count == 1);
  EXPECT(t.totals("leaf").units == 5);
  EXPECT(t.totals("op").duration_ns == fold.root_ns);
  EXPECT(fold.covered_ns == t.totals("leaf").self_ns);
  EXPECT(fold.covered_ns <= fold.root_ns);
  EXPECT(t.totals("missing").count == 0);
  EXPECT(t.self_ns_per_unit("missing") == 0);
  EXPECT(t.kept_spans().size() == 2);
}

}  // namespace

int main() {
  percentile_rule();
  guarded_ratios();
  failure_counting();
  self_time();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("loombench math self-test: all checks passed\n");
  return 0;
}
