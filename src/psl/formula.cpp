#include "psl/formula.hpp"

namespace loom::psl {
namespace {

FormulaPtr make(Op op, FormulaPtr lhs = nullptr, FormulaPtr rhs = nullptr) {
  auto f = std::make_shared<Formula>();
  f->op = op;
  f->lhs = std::move(lhs);
  f->rhs = std::move(rhs);
  return f;
}

}  // namespace

FormulaPtr f_true() {
  static const FormulaPtr t = make(Op::True);
  return t;
}

FormulaPtr f_false() {
  static const FormulaPtr f = make(Op::False);
  return f;
}

FormulaPtr f_atom(spec::Name token) {
  auto f = std::make_shared<Formula>();
  f->op = Op::Atom;
  f->atom = token;
  return f;
}

FormulaPtr f_not(FormulaPtr a) { return make(Op::Not, std::move(a)); }
FormulaPtr f_and(FormulaPtr a, FormulaPtr b) {
  return make(Op::And, std::move(a), std::move(b));
}
FormulaPtr f_or(FormulaPtr a, FormulaPtr b) {
  return make(Op::Or, std::move(a), std::move(b));
}
FormulaPtr f_implies(FormulaPtr a, FormulaPtr b) {
  return make(Op::Implies, std::move(a), std::move(b));
}
FormulaPtr f_next(FormulaPtr a) { return make(Op::Next, std::move(a)); }
FormulaPtr f_until(FormulaPtr a, FormulaPtr b) {
  return make(Op::Until, std::move(a), std::move(b));
}
FormulaPtr f_always(FormulaPtr a) { return make(Op::Always, std::move(a)); }
FormulaPtr f_eventually(FormulaPtr a) {
  return make(Op::Eventually, std::move(a));
}

FormulaPtr f_any_of(const std::vector<spec::Name>& tokens) {
  if (tokens.empty()) return f_false();
  FormulaPtr out = f_atom(tokens.front());
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    out = f_or(std::move(out), f_atom(tokens[i]));
  }
  return out;
}

std::size_t size(const FormulaPtr& f) {
  if (!f) return 0;
  return 1 + size(f->lhs) + size(f->rhs);
}

std::size_t temporal_size(const FormulaPtr& f) {
  if (!f) return 0;
  const std::size_t self =
      f->op == Op::Next || f->op == Op::Until || f->op == Op::Always ||
              f->op == Op::Eventually
          ? 1
          : 0;
  return self + temporal_size(f->lhs) + temporal_size(f->rhs);
}

std::string to_string(const FormulaPtr& f,
                      const std::vector<std::string>& token_texts) {
  if (!f) return "?";
  // Built by appending: GCC 12 at -O3 reports a spurious -Wrestrict for
  // `"(" + std::string&&` chains (the rvalue overload inserts at the front).
  std::string out;
  const auto wrap = [&](const char* open, const char* op, const char* close) {
    out = open;
    out += to_string(f->lhs, token_texts);
    if (op != nullptr) {
      out += op;
      out += to_string(f->rhs, token_texts);
    }
    out += close;
    return out;
  };
  switch (f->op) {
    case Op::True: return "true";
    case Op::False: return "false";
    case Op::Atom:
      if (f->atom < token_texts.size()) return token_texts[f->atom];
      out = "tok";
      out += std::to_string(f->atom);
      return out;
    case Op::Not: return wrap("!", nullptr, "");
    case Op::And: return wrap("(", " && ", ")");
    case Op::Or: return wrap("(", " || ", ")");
    case Op::Implies: return wrap("(", " -> ", ")");
    case Op::Next: return wrap("next(", nullptr, ")");
    case Op::Until: return wrap("(", " until! ", ")");
    case Op::Always: return wrap("always(", nullptr, ")");
    case Op::Eventually: return wrap("eventually(", nullptr, ")");
  }
  return "?";
}

}  // namespace loom::psl
