#include "spec/ast.hpp"

namespace loom::spec {

NameSet Fragment::alphabet() const {
  NameSet set;
  for (const auto& r : ranges) set.set(r.name);
  return set;
}

NameSet LooseOrdering::alphabet() const {
  NameSet set;
  for (const auto& f : fragments) set |= f.alphabet();
  return set;
}

NameSet Antecedent::alphabet() const {
  NameSet set = pattern.alphabet();
  set.set(trigger);
  return set;
}

NameSet TimedImplication::alphabet() const {
  NameSet set = antecedent.alphabet();
  set |= consequent.alphabet();
  return set;
}

NameSet Property::alphabet() const {
  if (is_antecedent()) return antecedent().alphabet();
  return timed().alphabet();
}

std::string to_string(const Range& r, const Alphabet& ab) {
  std::string out = ab.text(r.name);
  if (!r.trivial()) {
    out += '[';
    out += std::to_string(r.lo);
    out += ',';
    out += std::to_string(r.hi);
    out += ']';
  }
  return out;
}

std::string to_string(const Fragment& f, const Alphabet& ab) {
  if (f.ranges.size() == 1) return to_string(f.ranges.front(), ab);
  std::string out = "({";
  for (std::size_t i = 0; i < f.ranges.size(); ++i) {
    if (i != 0) out += ", ";
    out += to_string(f.ranges[i], ab);
  }
  out += "}, ";
  out += f.join == Join::Conj ? "&" : "|";
  out += ")";
  return out;
}

std::string to_string(const LooseOrdering& l, const Alphabet& ab) {
  std::string out;
  for (std::size_t i = 0; i < l.fragments.size(); ++i) {
    if (i != 0) out += " < ";
    out += to_string(l.fragments[i], ab);
  }
  return out;
}

// Built by appending: GCC 12 at -O3 reports a spurious -Wrestrict for
// `"(" + std::string&&` chains (the rvalue overload inserts at the front).
std::string to_string(const Antecedent& a, const Alphabet& ab) {
  std::string out = "(";
  out += to_string(a.pattern, ab);
  out += " << ";
  out += ab.text(a.trigger);
  out += a.repeated ? ", true)" : ", false)";
  return out;
}

std::string to_string(const TimedImplication& t, const Alphabet& ab) {
  std::string out = "(";
  out += to_string(t.antecedent, ab);
  out += " => ";
  out += to_string(t.consequent, ab);
  out += ", ";
  out += t.bound.to_string();
  out += ')';
  return out;
}

std::string to_string(const Property& p, const Alphabet& ab) {
  if (p.is_antecedent()) return to_string(p.antecedent(), ab);
  return to_string(p.timed(), ab);
}

}  // namespace loom::spec
