#include "mon/verdict.hpp"

#include <deque>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "mon/snapshot.hpp"
#include "mon/stats.hpp"

namespace loom::mon {

void Monitor::observe_batch(const spec::TimedEvent* begin,
                            const spec::TimedEvent* end) {
  for (const spec::TimedEvent* ev = begin; ev != end; ++ev) {
    observe(ev->name, ev->time);
  }
}

void snapshot_reason(Snapshot& out, const Reason& r) {
  out.put_u64(static_cast<std::uint64_t>(r.code) |
              (std::uint64_t{r.c} << 8));
  if (r.empty()) return;
  out.put_u64(r.a);
  out.put_u64(r.b);
}

void restore_reason(SnapshotReader& in, Reason& r) {
  const std::uint64_t head = in.u64();
  r.code = static_cast<MonReason>(head & 0xFF);
  r.c = static_cast<std::uint32_t>(head >> 8);
  if (r.empty()) {
    r.a = 0;
    r.b = 0;
    return;
  }
  r.a = in.u64();
  r.b = in.u64();
}

void snapshot_violation(Snapshot& out, const std::optional<Violation>& v) {
  out.put_bool(v.has_value());
  if (!v.has_value()) return;
  out.put_u64(v->event_ordinal);
  out.put_time(v->time);
  out.put_u64(v->name);
  snapshot_reason(out, v->reason);
}

void restore_violation(SnapshotReader& in, std::optional<Violation>& v) {
  if (!in.boolean()) {
    v.reset();
    return;
  }
  if (!v.has_value()) v.emplace();
  v->event_ordinal = static_cast<std::size_t>(in.u64());
  v->time = in.time();
  v->name = static_cast<spec::Name>(in.u64());
  restore_reason(in, v->reason);
}

namespace {

// The intern table behind intern_reason_text: a deque keeps every stored
// string at a stable address, the map dedupes by content.
struct ReasonTexts {
  std::mutex mutex;
  std::deque<std::string> texts;
  std::unordered_map<std::string_view, std::uint32_t> ids;
};

ReasonTexts& reason_texts() {
  static ReasonTexts table;
  return table;
}

}  // namespace

std::uint32_t intern_reason_text(const std::string& text) {
  ReasonTexts& t = reason_texts();
  const std::lock_guard<std::mutex> lock(t.mutex);
  if (const auto it = t.ids.find(text); it != t.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(t.texts.size());
  t.texts.push_back(text);
  t.ids.emplace(t.texts.back(), id);
  return id;
}

const std::string& interned_reason_text(std::uint32_t id) {
  ReasonTexts& t = reason_texts();
  const std::lock_guard<std::mutex> lock(t.mutex);
  if (id >= t.texts.size()) {
    throw std::out_of_range("interned_reason_text: unknown text id " +
                            std::to_string(id));
  }
  return t.texts[id];
}

std::string Reason::text() const {
  const auto num = [](std::uint64_t v) { return std::to_string(v); };
  switch (code) {
    case MonReason::None:
      return "";
    case MonReason::OutsideFragment:
      return "name from outside the active fragment (B or Af)";
    case MonReason::NeverStarted:
      return "fragment stopped before any of its ranges started";
    case MonReason::ConjunctUnobserved:
      return "conjunctive fragment stopped before one of its ranges was "
             "observed";
    case MonReason::AboveMax:
      return "more than v=" + num(a) + " consecutive occurrences";
    case MonReason::BlockBelowMin:
      return "block ended after " + num(a) + " occurrences, below u=" +
             num(b);
    case MonReason::FragmentStoppedBelowMin:
      return "fragment stopped after " + num(a) + " occurrences, below u=" +
             num(b);
    case MonReason::BlockReopened:
      return "range block reopened after it ended";
    case MonReason::ConsequentLate:
      return "consequent finished after the deadline (took " +
             sim::Time::ps(a).to_string() + ", bound " +
             sim::Time::ps(b).to_string() + ")";
    case MonReason::DeadlineElapsed:
      return "deadline elapsed before the consequent finished";
    case MonReason::DeadlineElapsedWatchdog:
      return "deadline elapsed before the consequent finished (watchdog)";
    case MonReason::ObservationEndedLate:
      return "observation ended after the deadline with the consequent "
             "unfinished";
    case MonReason::PslConjunct:
      return interned_reason_text(static_cast<std::uint32_t>(a));
    case MonReason::LexerAboveMax:
      return "lexer: block of '" + num(a) + "' exceeds v=" + num(b);
    case MonReason::LexerBelowMin:
      return "lexer: block of '" + num(a) + "' ended after " + num(b) +
             " occurrences, below u=" + num(c);
  }
  return "?";
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Monitoring: return "monitoring";
    case Verdict::Pending: return "pending";
    case Verdict::Holds: return "holds";
    case Verdict::Violated: return "violated";
  }
  return "?";
}

std::string Violation::to_string(const spec::Alphabet& ab) const {
  std::string out = "violation at event #" + std::to_string(event_ordinal);
  out += " (t=" + time.to_string() + ")";
  if (name != spec::kInvalidName) out += " on '" + ab.text(name) + "'";
  out += ": " + reason.text();
  return out;
}

}  // namespace loom::mon
