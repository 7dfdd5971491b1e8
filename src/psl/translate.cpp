#include "psl/translate.hpp"

namespace loom::psl {

const char* to_string(ClauseKind k) {
  switch (k) {
    case ClauseKind::Mutex: return "asynch";
    case ClauseKind::MaxOne: return "max-one";
    case ClauseKind::Range: return "range";
    case ClauseKind::Order: return "order";
    case ClauseKind::Before: return "before";
    case ClauseKind::After: return "after";
  }
  return "?";
}

spec::Name TokenVocab::add_source(spec::Name source, std::uint32_t lo,
                                  std::uint32_t hi, std::size_t fragment,
                                  const std::string& text) {
  SourceRange sr;
  sr.source = source;
  sr.lo = lo;
  sr.hi = hi;
  sr.fragment = fragment;
  sr.first_token = static_cast<spec::Name>(texts_.size());
  by_source_.emplace(source, sources_.size());
  sources_.push_back(sr);
  if (lo == 1 && hi == 1) {
    texts_.push_back(text);
  } else {
    for (std::uint32_t k = lo; k <= hi; ++k) {
      texts_.push_back(text + "#" + std::to_string(k));
    }
  }
  return sr.first_token;
}

spec::Name TokenVocab::token_for(spec::Name source,
                                 std::uint32_t count) const {
  auto it = by_source_.find(source);
  if (it == by_source_.end()) return spec::kInvalidName;
  const SourceRange& sr = sources_[it->second];
  if (count < sr.lo || count > sr.hi) return spec::kInvalidName;
  return sr.first_token + (count - sr.lo);
}

std::vector<spec::Name> TokenVocab::tokens_of(const SourceRange& sr) const {
  std::vector<spec::Name> out;
  for (std::uint32_t k = sr.lo; k <= sr.hi; ++k) {
    out.push_back(sr.first_token + (k - sr.lo));
  }
  return out;
}

std::uint64_t Encoding::ops_per_token() const {
  std::uint64_t total = 0;
  for (const auto& c : clauses) total += c.cost_ops;
  return total;
}

std::uint64_t Encoding::clause_bits() const {
  std::uint64_t total = 0;
  for (const auto& c : clauses) total += c.cost_bits;
  return total;
}

namespace {

spec::NameSet set_of(const std::vector<spec::Name>& tokens) {
  spec::NameSet s;
  for (auto t : tokens) s.set(t);
  return s;
}

/// Shared construction over a fragment chain.  `trigger` is kInvalidName
/// for timed chains (the final fragment then acts as the reset point).
Encoding build_chain(const std::vector<spec::Fragment>& chain,
                     spec::Name trigger, bool with_after,
                     bool retire_on_reset, std::size_t max_clauses,
                     const spec::Alphabet* ab) {
  const auto text_of = [ab](spec::Name name) -> std::string {
    if (ab != nullptr) return ab->text(name);
    // Appended, not `"n" + std::to_string(name)`: GCC 12 at -O3 reports a
    // spurious -Wrestrict for a literal plus an rvalue string.
    std::string text = "n";
    text += std::to_string(name);
    return text;
  };
  Encoding enc;
  enc.retire_on_reset = retire_on_reset;

  const bool has_trigger = trigger != spec::kInvalidName;
  // The reset group: the trigger, or the single range of the last fragment.
  const std::size_t reset_fragment =
      has_trigger ? SourceRange::npos : chain.size() - 1;
  if (!has_trigger && chain.back().ranges.size() != 1) {
    throw std::invalid_argument(
        "ViaPSL encoding requires a single-range final fragment as the "
        "reset point of a timed chain");
  }

  // 1. Unfold ranges into tokens.
  for (std::size_t f = 0; f < chain.size(); ++f) {
    Encoding::FragmentTokens ft;
    ft.join = chain[f].join;
    for (const auto& r : chain[f].ranges) {
      enc.vocab.add_source(r.name, r.lo, r.hi, f, text_of(r.name));
      ft.per_range.push_back(
          set_of(enc.vocab.tokens_of(enc.vocab.sources().back())));
    }
    enc.fragments.push_back(std::move(ft));
  }
  if (has_trigger) {
    enc.vocab.add_source(trigger, 1, 1, SourceRange::npos, text_of(trigger));
  }

  // Reset token set and its disjunction width.
  std::vector<spec::Name> reset_tokens;
  if (has_trigger) {
    reset_tokens.push_back(enc.vocab.source_info(trigger).first_token);
  } else {
    reset_tokens = enc.vocab.tokens_of(
        enc.vocab.source_info(chain.back().ranges.front().name));
  }
  enc.reset_tokens = set_of(reset_tokens);
  const FormulaPtr reset_dis = f_any_of(reset_tokens);

  auto add_clause = [&](Clause c) {
    if (enc.clauses.size() >= max_clauses) {
      throw std::length_error(
          "ViaPSL encoding exceeds the clause limit; use the analytic cost "
          "model (psl/cost_model.hpp)");
    }
    c.cost_ops = size(c.formula);
    c.cost_bits = temporal_size(c.formula);
    enc.clauses.push_back(std::move(c));
  };

  const std::size_t total_tokens = enc.vocab.token_count();

  // 2. Asynch: mutual exclusion of every pair of tokens.
  for (spec::Name a = 0; a < total_tokens; ++a) {
    for (spec::Name b = a + 1; b < total_tokens; ++b) {
      if (enc.clauses.size() + (total_tokens - b) > max_clauses) {
        throw std::length_error("ViaPSL encoding exceeds the clause limit");
      }
      Clause c;
      c.kind = ClauseKind::Mutex;
      c.formula = f_always(f_not(f_and(f_atom(a), f_atom(b))));
      add_clause(std::move(c));
    }
  }

  // Token lists per chain range (skipping the reset fragment of a timed
  // chain, whose tokens *are* the reset point).
  for (const auto& sr : enc.vocab.sources()) {
    if (sr.fragment == SourceRange::npos) continue;  // the trigger
    const bool is_reset_range = sr.fragment == reset_fragment;
    const auto tokens = enc.vocab.tokens_of(sr);

    // 3. MaxOne per token (also for the reset range: a block may not repeat
    //    within a round).
    for (auto a : tokens) {
      Clause c;
      c.kind = ClauseKind::MaxOne;
      c.arm.set(a);
      c.forbid.set(a);
      c.disarm = enc.reset_tokens;
      c.formula = f_always(
          f_implies(f_atom(a), f_next(f_until(f_not(f_atom(a)), reset_dis))));
      add_clause(std::move(c));
    }

    // 4. Range: at most one token per range before the reset point.
    for (auto a : tokens) {
      for (auto b : tokens) {
        if (a == b) continue;
        Clause c;
        c.kind = ClauseKind::Range;
        c.arm.set(a);
        c.forbid.set(b);
        c.disarm = enc.reset_tokens;
        c.formula = f_always(
            f_implies(f_atom(a), f_until(f_not(f_atom(b)), reset_dis)));
        add_clause(std::move(c));
      }
    }

    // 5/6. BeforeI / AfterI groups: one per range of a ∧-fragment, one per
    // ∨-fragment (built after the loop for ∨, below), not for the reset
    // fragment.
    if (!is_reset_range && chain[sr.fragment].join == spec::Join::Conj) {
      const FormulaPtr group = f_any_of(tokens);
      Clause before;
      before.kind = ClauseKind::Before;
      before.initially_armed = true;
      before.forbid = enc.reset_tokens;
      before.disarm = set_of(tokens);
      before.formula = f_until(f_not(reset_dis), group);
      add_clause(std::move(before));
      if (with_after) {
        Clause after;
        after.kind = ClauseKind::After;
        after.arm = enc.reset_tokens;
        after.forbid = enc.reset_tokens;
        after.disarm = set_of(tokens);
        after.formula = f_always(f_implies(
            reset_dis, f_next(f_until(f_not(reset_dis), group))));
        add_clause(std::move(after));
      }
    }
  }

  // 5/6 continued: whole-fragment groups for ∨-fragments.
  for (std::size_t f = 0; f < chain.size(); ++f) {
    if (f == reset_fragment) continue;
    if (chain[f].join != spec::Join::Disj) continue;
    std::vector<spec::Name> tokens;
    for (const auto& r : chain[f].ranges) {
      for (auto t : enc.vocab.tokens_of(enc.vocab.source_info(r.name))) {
        tokens.push_back(t);
      }
    }
    const FormulaPtr group = f_any_of(tokens);
    Clause before;
    before.kind = ClauseKind::Before;
    before.initially_armed = true;
    before.forbid = enc.reset_tokens;
    before.disarm = set_of(tokens);
    before.formula = f_until(f_not(reset_dis), group);
    add_clause(std::move(before));
    if (with_after) {
      Clause after;
      after.kind = ClauseKind::After;
      after.arm = enc.reset_tokens;
      after.forbid = enc.reset_tokens;
      after.disarm = set_of(tokens);
      after.formula = f_always(
          f_implies(reset_dis, f_next(f_until(f_not(reset_dis), group))));
      add_clause(std::move(after));
    }
  }

  // 7. Order: adjacent-fragment exclusion.
  for (std::size_t f = 1; f < chain.size(); ++f) {
    std::vector<spec::Name> cur, prev;
    for (const auto& r : chain[f].ranges) {
      for (auto t : enc.vocab.tokens_of(enc.vocab.source_info(r.name))) {
        cur.push_back(t);
      }
    }
    for (const auto& r : chain[f - 1].ranges) {
      for (auto t : enc.vocab.tokens_of(enc.vocab.source_info(r.name))) {
        prev.push_back(t);
      }
    }
    if (enc.clauses.size() + cur.size() * prev.size() > max_clauses) {
      throw std::length_error("ViaPSL encoding exceeds the clause limit");
    }
    for (auto a : cur) {
      for (auto b : prev) {
        Clause c;
        c.kind = ClauseKind::Order;
        c.arm.set(a);
        c.forbid.set(b);
        c.disarm = enc.reset_tokens;
        c.formula = f_always(
            f_implies(f_atom(a), f_until(f_not(f_atom(b)), reset_dis)));
        add_clause(std::move(c));
      }
    }
  }

  enc.clause_text_ids =
      std::make_shared<std::vector<std::atomic<std::uint32_t>>>(
          enc.clauses.size());
  return enc;
}

}  // namespace

Encoding encode(const spec::Antecedent& a, std::size_t max_clauses,
                const spec::Alphabet* ab) {
  Encoding enc = build_chain(a.pattern.fragments, a.trigger,
                             /*with_after=*/a.repeated,
                             /*retire_on_reset=*/!a.repeated, max_clauses, ab);
  return enc;
}

Encoding encode(const spec::TimedImplication& t, std::size_t max_clauses,
                const spec::Alphabet* ab) {
  std::vector<spec::Fragment> chain = t.antecedent.fragments;
  chain.insert(chain.end(), t.consequent.fragments.begin(),
               t.consequent.fragments.end());
  Encoding enc = build_chain(chain, spec::kInvalidName, /*with_after=*/true,
                             /*retire_on_reset=*/false, max_clauses, ab);
  enc.timed = true;
  enc.bound = t.bound;
  enc.p_fragment_count = t.antecedent.fragments.size();
  return enc;
}

Encoding encode(const spec::Property& p, std::size_t max_clauses,
                const spec::Alphabet* ab) {
  if (p.is_antecedent()) return encode(p.antecedent(), max_clauses, ab);
  return encode(p.timed(), max_clauses, ab);
}

bool encodable(const spec::Property& p) {
  // Mirror of the one shape refusal above: a timed chain (no trigger)
  // needs a single-range final fragment as its reset point.  Antecedents
  // always have their trigger as the reset point.  encode() inspects the
  // back of the concatenated antecedent ++ consequent chain, so judge the
  // same fragment — and an empty chain (never produced by the parser, but
  // representable) has no reset point at all.
  if (p.is_antecedent()) return true;
  const spec::TimedImplication& t = p.timed();
  const std::vector<spec::Fragment>& tail_side =
      !t.consequent.fragments.empty() ? t.consequent.fragments
                                      : t.antecedent.fragments;
  if (tail_side.empty()) return false;
  return tail_side.back().ranges.size() == 1;
}

}  // namespace loom::psl
