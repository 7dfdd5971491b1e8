// The benchmark's own arithmetic: percentiles, guarded ratios, failure
// counting and span self time.  Header-only and free of the loom library,
// so tests/math_test.cpp pins every rule here without building a workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace loombench {

/// Guarded ratio: a zero denominator means "no such work happened" and
/// reads 0, never NaN (the rule of bench::safe_ratio in bench/bench_json.hpp).
inline double safe_ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) over `n` samples:
/// the smallest rank r with r >= p/100 * n.  0 when there are no samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard the representation error of p/100*n (e.g. 90/100*100 must be
  // rank 90, not 91) before rounding up.
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `samples` (0 for no samples).  The same rule
/// gives the median (p = 50) and the tail (p = 90).
inline double percentile(std::vector<double> samples, double p) {
  const std::size_t rank = nearest_rank(samples.size(), p);
  if (rank == 0) return 0.0;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Samples strictly above the percentile's rank.  A percentile is reported
/// as resolved only when at least kMinTailSamples lie beyond it, so p90
/// needs 100 samples.
constexpr std::size_t kMinTailSamples = 10;
inline bool percentile_resolved(std::size_t n, double p) {
  return n != 0 && n - nearest_rank(n, p) >= kMinTailSamples;
}

/// Operations attempted and failed in one run.  An operation fails when it
/// throws, or when any of its correctness checks does not hold.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double failed_frac() const {
    return safe_ratio(static_cast<double>(failed),
                      static_cast<double>(attempted));
  }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// One timed interval around a call into a loom layer.  `units` is the work
/// the call did in the layer's own unit (events, bytes, rungs, ...).
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoSpan;
  std::uint32_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t units = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and a
/// child sticking out of its parent counts only inside it).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoSpan) continue;
    const Span& p = spans[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// Span recorder for the traced run.  Spans of the operation in flight are
/// kept in memory; end_op() folds them into per-name totals and keeps the
/// first operation's spans verbatim for the span dump written at run end.
class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t duration_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t units = 0;
  };

  std::uint32_t intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.emplace_back(name);
    totals_.emplace_back();
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::uint32_t open(std::uint32_t name, std::uint64_t units = 0) {
    Span s;
    s.name = name;
    s.parent = open_;
    s.op = op_;
    s.units = units;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_ = static_cast<std::uint32_t>(spans_.size() - 1);
    return open_;
  }
  void close(std::uint32_t span, std::uint64_t extra_units = 0) {
    Span& s = spans_[span];
    s.end_ns = now_ns();
    s.units += extra_units;
    open_ = s.parent;
  }

  /// RAII form of open()/close().
  class Scope {
   public:
    Scope(Tracer& t, std::uint32_t name, std::uint64_t units = 0)
        : tracer_(t), span_(t.open(name, units)) {}
    ~Scope() { tracer_.close(span_, extra_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void add_units(std::uint64_t n) { extra_ += n; }

   private:
    Tracer& tracer_;
    std::uint32_t span_;
    std::uint64_t extra_ = 0;
  };

  /// Folds the finished operation's spans into the totals and starts the
  /// next operation id.  Returns the root spans' summed duration and the
  /// summed self time of every non-root span (the covered part).
  struct OpFold {
    std::int64_t root_ns = 0;
    std::int64_t covered_ns = 0;
  };
  OpFold end_op() {
    OpFold fold;
    const std::vector<std::int64_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = totals_[s.name];
      ++t.count;
      t.duration_ns += s.end_ns - s.start_ns;
      t.self_ns += self[i];
      t.units += s.units;
      if (s.parent == kNoSpan) {
        fold.root_ns += s.end_ns - s.start_ns;
      } else {
        fold.covered_ns += self[i];
      }
    }
    if (kept_.empty()) kept_ = spans_;
    spans_.clear();
    open_ = kNoSpan;
    ++op_;
    return fold;
  }

  const Totals& totals(std::string_view name) const {
    static const Totals kNone;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return totals_[i];
    }
    return kNone;
  }
  /// Self nanoseconds per unit of work of the named span (0 if absent).
  double self_ns_per_unit(std::string_view name) const {
    const Totals& t = totals(name);
    return safe_ratio(static_cast<double>(t.self_ns),
                      static_cast<double>(t.units));
  }

  const std::vector<Span>& kept_spans() const { return kept_; }
  const std::string& name_of(std::uint32_t id) const { return names_[id]; }

 private:
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Span> kept_;
  std::uint32_t open_ = kNoSpan;
  std::uint32_t op_ = 0;
};

}  // namespace loombench
