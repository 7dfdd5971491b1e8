#include "spec/export.hpp"

namespace loom::spec {
namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void emit_plan_tree(const OrderingPlan& plan, const Alphabet& ab,
                    const std::string& root_label, std::string& out) {
  out += "digraph property {\n";
  out += "  node [shape=box, fontname=\"monospace\"];\n";
  out += "  root [label=\"" + escape(root_label) + "\", style=bold];\n";
  for (std::size_t f = 0; f < plan.fragments.size(); ++f) {
    const FragmentPlan& fp = plan.fragments[f];
    // Appended, not `"f" + std::to_string(f)`: GCC 12 at -O3 reports a
    // spurious -Wrestrict for a literal plus an rvalue string.
    std::string fid = "f";
    fid += std::to_string(f);
    out += "  " + fid + " [label=\"F" + std::to_string(f + 1) + "  (" +
           (fp.join == Join::Conj ? "∧" : "∨") + ")\"];\n";
    out += "  root -> " + fid + ";\n";
    for (std::size_t r = 0; r < fp.ranges.size(); ++r) {
      const RangePlan& rp = fp.ranges[r];
      const std::string rid = fid + "r" + std::to_string(r);
      std::string label = ab.text(rp.name) + "[" + std::to_string(rp.lo) +
                          "," + std::to_string(rp.hi) + "]";
      label += "\\ns=" + std::string(rp.parent_join == Join::Conj ? "∧" : "∨");
      label += "  B=" + ab.render(rp.before);
      label += "\\nC=" + ab.render(rp.siblings);
      label += "  Ac=" + ab.render(rp.accept);
      label += "\\nAf=" + ab.render(rp.after);
      out += "  " + rid + " [label=\"" + escape(label) + "\"];\n";
      out += "  " + fid + " -> " + rid + ";\n";
    }
    if (f + 1 < plan.fragments.size()) {
      out += "  f" + std::to_string(f) + " -> f" + std::to_string(f + 1) +
             " [style=dashed, constraint=false, label=\"<\"];\n";
    }
  }
  out += "}\n";
}

}  // namespace

std::string to_dot(const Property& p, const Alphabet& ab) {
  std::string out;
  if (p.is_antecedent()) {
    emit_plan_tree(plan_antecedent(p.antecedent()), ab,
                   to_string(p.antecedent(), ab), out);
  } else {
    emit_plan_tree(plan_timed(p.timed()), ab, to_string(p.timed(), ab), out);
  }
  return out;
}

std::string range_automaton_dot(const RangePlan& plan, const Alphabet& ab) {
  const std::string n = ab.text(plan.name);
  const std::string c = ab.render(plan.siblings);
  const std::string ac = ab.render(plan.accept);
  const std::string bad = ab.render(plan.before | plan.after);
  const std::string u = std::to_string(plan.lo), v = std::to_string(plan.hi);
  const bool disj = plan.parent_join == Join::Disj;

  std::string out = "digraph range_recognizer {\n";
  out += "  rankdir=LR;\n  node [shape=circle, fontname=\"monospace\"];\n";
  out += "  label=\"recognizer for " + escape(n) + "[" + u + "," + v +
         "]  (s=" + (disj ? "∨" : "∧") + ")\";\n";
  out += "  s5 [shape=doublecircle, label=\"s5\\nerr\"];\n";
  for (const char* s : {"s0", "s1", "s2", "s3", "s4"}) {
    out += std::string("  ") + s + ";\n";
  }
  auto edge = [&](const char* from, const char* to, const std::string& lbl) {
    out += std::string("  ") + from + " -> " + to + " [label=\"" +
           escape(lbl) + "\"];\n";
  };
  edge("s0", "s1", "start");
  edge("s1", "s3", n + " /cpt=1");
  edge("s1", "s2", "C " + c);
  edge("s1", "s5", "Ac " + ac + " | B∪Af " + bad);
  edge("s2", "s3", n + " /cpt=1");
  edge("s2", "s2", "C " + c);
  edge("s2", disj ? "s0" : "s5",
       "Ac " + ac + (disj ? " /nok" : " /err (∧)"));
  edge("s2", "s5", "B∪Af " + bad);
  edge("s3", "s3", n + " [cpt<" + v + "] /cpt+=1");
  edge("s3", "s5", n + " [cpt=" + v + "]");
  edge("s3", "s4", "C [cpt>=" + u + "]");
  edge("s3", "s0", "Ac [cpt>=" + u + "] /ok");
  edge("s3", "s5", "Ac|C [cpt<" + u + "] | B∪Af");
  edge("s4", "s4", "C");
  edge("s4", "s0", "Ac /ok");
  edge("s4", "s5", n + " | B∪Af");
  out += "}\n";
  return out;
}

}  // namespace loom::spec
