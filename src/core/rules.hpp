#pragma once

#include <memory>
#include <vector>

#include "plan/logical.hpp"

namespace quotient {

/// Context handed to rewrite rules.
///
/// Data-dependent preconditions (c1/c2 of Law 2, the foreign key of Law 12,
/// the containment of Law 9, disjointness for Laws 7/13) are established in
/// one of two ways, mirroring the paper's discussion of c1 vs c2:
///   * from declared Catalog metadata when the operands are base tables
///     (cheap, what a production optimizer would do), or
///   * by evaluating the operand subplans when `allow_runtime_checks` is
///     set (exact but potentially expensive; the paper calls testing c1
///     "expensive" — this flag makes that trade-off explicit).
struct RewriteContext {
  const Catalog* catalog = nullptr;
  bool allow_runtime_checks = false;
};

/// Declarative descriptor of one rewrite rule: its identity plus what it
/// matches and what applying it promises. The descriptor is data, not
/// behavior — EXPLAIN, the search report, and Database::Stats() key on
/// `name`, and docs/optimizer.md renders the match/promise columns — so new
/// laws declare themselves instead of hand-fusing their story into the
/// driver ("An Extensible and Verifiable Language for Query Rewrite Rules").
struct RuleInfo {
  const char* name;     // stable identifier ("law3-selection-pushdown")
  int law;              // paper law number; 0 for examples and baselines
  const char* match;    // plan shape the rule fires on
  const char* promise;  // why applying it should pay off
};

/// A transformation rule implementing one of the paper's laws on plan trees.
/// Apply() returns the rewritten node, or nullptr when the rule does not
/// match (or its precondition cannot be established).
class RewriteRule {
 public:
  virtual ~RewriteRule() = default;
  virtual const RuleInfo& info() const = 0;
  const char* name() const { return info().name; }
  virtual PlanPtr Apply(const PlanPtr& node, const RewriteContext& context) const = 0;
};

using RulePtr = std::unique_ptr<RewriteRule>;

// ---- Rule factories, one per law (see core/laws.hpp for the equations) ----
RulePtr MakeLaw1DivisorUnionRule();       // ÷ over ∪-divisor → pipelined double divide
RulePtr MakeLaw2DividendUnionRule();      // ÷ over ∪-dividend → ∪ of divides (needs c1/c2)
RulePtr MakeLaw3SelectionPushdownRule();  // σp(A) through ÷
RulePtr MakeLaw4ReplicateSelectionRule(); // σp(B) on divisor replicated to dividend
RulePtr MakeExample1DividendSelectionRule();  // σp(B) on dividend (Example 1)
RulePtr MakeLaw5IntersectRule();          // ÷ over ∩-dividend
RulePtr MakeLaw6DifferenceRule();         // ÷ over −-dividend (σ' ⊇ σ'')
RulePtr MakeLaw7DifferencePruneRule();    // drop the subtrahend divide entirely
RulePtr MakeLaw8ProductRule();            // ÷ through × (divisor-free factor)
RulePtr MakeLaw9ProductRule();            // ÷ through × (divisor-covered factor)
RulePtr MakeLaw10SemiJoinRule();          // ⋉ through ÷
RulePtr MakeLaw11GroupedDividendRule();   // ÷ after Aγ → guarded semi-join plan
RulePtr MakeLaw12GroupedDividendRule();   // ÷ after Bγ + FK → guarded semi-join plan
RulePtr MakeLaw13GreatDivisorUnionRule(); // ÷* over ∪-divisor (C-disjoint)
RulePtr MakeLaw14SelectionPushdownRule(); // σp(A) through ÷*
RulePtr MakeLaw15DivisorSelectionRule();  // σp(C) through ÷*
RulePtr MakeLaw16ReplicateSelectionRule();// σp(B) on ÷*-divisor replicated
RulePtr MakeLaw17ProductRule();           // ÷* through ×
RulePtr MakeExample4JoinPushRule();       // equi-join through ÷* (Example 4)
RulePtr MakeJoinExtractionRule();         // σθ over × or ⋈ → pushed σ + equi-join keys

/// Baseline (not part of the default optimizing set): expands ÷ into
/// Healy's basic-algebra form. Used to *demonstrate* why first-class
/// division beats simulation.
RulePtr MakeDivideToHealyExpansionRule();

/// The default optimizing rule set, in a deliberate order: selection
/// pushdowns first, then join extraction (so the structural rules see its
/// joins), then structural rules, then the grouped special cases.
/// Law 1 (pipelining) and Example 1 (the paper's "extreme case") are
/// deliberately excluded — they reshape rather than shrink work — but are
/// available above for targeted use.
std::vector<RulePtr> DefaultRuleSet();

/// The rule set for cost-guided search (opt/memo.hpp): DefaultRuleSet()
/// plus the reshaping laws a greedy fixpoint must exclude — Law 1
/// (pipelining the divisor union) and Example 1 (the paper's "extreme
/// case" dividend selection), which trade one shape for another rather
/// than strictly shrinking work. Under search they are safe: a candidate
/// that reshapes unprofitably simply never becomes the cheapest plan. The
/// Healy expansion stays excluded — it is the demoted baseline, not an
/// optimization.
std::vector<RulePtr> SearchRuleSet();

}  // namespace quotient
