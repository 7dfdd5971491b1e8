#include "abv/checker.hpp"

#include "mon/snapshot.hpp"

namespace loom::abv {

std::size_t Checker::add(std::string name,
                         std::unique_ptr<mon::Monitor> monitor) {
  entries_.push_back({std::move(name), std::move(monitor)});
  return entries_.size() - 1;
}

void Checker::observe(spec::Name name, sim::Time time) {
  for (auto& e : entries_) e.monitor->observe(name, time);
}

void Checker::finish(sim::Time end_time) {
  for (auto& e : entries_) e.monitor->finish(end_time);
}

void Checker::run(const spec::Trace& trace, sim::Time end_time,
                  std::size_t snapshot_stride) {
  mon::Snapshot scratch;  // one reusable buffer for every round-trip
  std::size_t since_snapshot = 0;
  for (const auto& ev : trace) {
    observe(ev.name, ev.time);
    if (snapshot_stride != 0 && ++since_snapshot == snapshot_stride) {
      since_snapshot = 0;
      for (auto& e : entries_) {
        e.monitor->snapshot(scratch);
        e.monitor->restore(scratch);
      }
    }
  }
  finish(end_time);
}

bool Checker::all_passing() const { return violation_count() == 0; }

std::size_t Checker::violation_count() const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.monitor->verdict() == mon::Verdict::Violated) ++n;
  }
  return n;
}

std::vector<Checker::Report> Checker::reports() const {
  std::vector<Report> out;
  for (const auto& e : entries_) {
    out.push_back({e.name, e.monitor->verdict(), e.monitor->violation()});
  }
  return out;
}

mon::MonitorStats Checker::aggregate_stats() const {
  mon::MonitorStats total;
  for (const auto& e : entries_) total.merge(e.monitor->stats());
  return total;
}

void Checker::absorb(Checker&& shard) {
  for (auto& e : shard.entries_) entries_.push_back(std::move(e));
  shard.entries_.clear();
}

std::string Checker::summary(const spec::Alphabet& ab) const {
  std::string out;
  for (const auto& e : entries_) {
    out += '[';
    out += mon::to_string(e.monitor->verdict());
    out += "] ";
    out += e.name;
    if (e.monitor->violation().has_value()) {
      out += "\n    " + e.monitor->violation()->to_string(ab);
    }
    out += "\n";
  }
  return out;
}

}  // namespace loom::abv
