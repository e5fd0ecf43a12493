#pragma once

#include <string>
#include <vector>

#include "core/rules.hpp"

namespace quotient {

/// One applied rewrite, for EXPLAIN-style traces.
struct RewriteStep {
  std::string rule;
  std::string before;  // rendering of the rewritten subtree
  std::string after;
  /// Estimated cost of the whole plan after this step, when the driver
  /// costs candidates (MemoSearch, opt/memo.cpp, fills it; 0 = not
  /// costed). Plain data — the engine itself never computes costs.
  double cost_after = 0;
};

/// Marker step recorded in the trace when Rewrite() stops with a rewrite
/// still available: the caller asked for fewer steps than the fixpoint
/// needs. Parenthesized so consumers that tally law fires can skip it.
inline constexpr const char* kRewriteBudgetExhausted = "(rewrite budget exhausted)";

/// One line per applied rule ("  1. law3-selection-pushdown"), for EXPLAIN
/// output; "  (none)" when the trace is empty.
std::string SummarizeRewrites(const std::vector<RewriteStep>& trace);

/// One alternative rewrite of a whole plan: the rewritten root plus the
/// single rule application that produced it. `step` names the rule; its
/// before/after text is left for the driver to render from `before` (the
/// replaced subtree) and `after` (its replacement) for the steps it keeps,
/// since most alternatives a search costs are dropped.
struct RewriteAlternative {
  PlanPtr plan;
  RewriteStep step;
  PlanPtr before;
  PlanPtr after;
};

/// A rule-based rewriting driver in the spirit of Starburst/Cascades rule
/// engines (§1.1): applies its rules to a plan top-down until no rule fires
/// or the step budget is exhausted.
class RewriteEngine {
 public:
  RewriteEngine() = default;
  explicit RewriteEngine(std::vector<RulePtr> rules) : rules_(std::move(rules)) {}

  /// Engine loaded with DefaultRuleSet().
  static RewriteEngine Default();

  void Add(RulePtr rule) { rules_.push_back(std::move(rule)); }
  size_t rule_count() const { return rules_.size(); }

  /// Applies the first matching rule at the topmost matching node (pre-order
  /// walk). Returns nullptr when nothing fires.
  PlanPtr RewriteOnce(const PlanPtr& plan, const RewriteContext& context,
                      RewriteStep* step = nullptr) const;

  /// Applies rules to a fixpoint (bounded by `max_steps`); records each
  /// applied rewrite in `trace` when provided. When the budget runs out
  /// with another rewrite still available, sets `*budget_exhausted` (when
  /// given) and appends a kRewriteBudgetExhausted marker to the trace —
  /// silent truncation used to be indistinguishable from convergence.
  PlanPtr Rewrite(const PlanPtr& plan, const RewriteContext& context,
                  std::vector<RewriteStep>* trace = nullptr, size_t max_steps = 64,
                  bool* budget_exhausted = nullptr) const;

  /// Enumerates EVERY applicable (rule, node) pair — not just the first
  /// match — returning one alternative per application: the full rewritten
  /// root plan plus the step that produced it. This is what turns the rule
  /// set from a fixed pipeline into a search space (opt/memo.hpp); the
  /// order is deterministic (pre-order by node, rule-set order per node).
  std::vector<RewriteAlternative> Enumerate(const PlanPtr& plan,
                                            const RewriteContext& context) const;

 private:
  std::vector<RulePtr> rules_;
};

}  // namespace quotient
