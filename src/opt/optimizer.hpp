#pragma once

#include "core/engine.hpp"
#include "opt/cost.hpp"
#include "opt/planner.hpp"
#include "opt/stats.hpp"

namespace quotient {

/// End-to-end optimizer configuration. The rewrite search has no knobs:
/// Optimize always runs MemoSearch with its constant budgets (opt/memo.hpp).
struct OptimizerOptions {
  PlannerOptions planner;
};

/// What the optimizer did to a query, for EXPLAIN output.
struct OptimizationReport {
  PlanPtr chosen;
  double original_cost = 0;
  double chosen_cost = 0;
  std::vector<RewriteStep> steps;  // applied law rewrites, in order
  /// Candidate plans costed by the search (the original included).
  size_t search_candidates = 0;
  /// Duplicate states the memo pruned by fingerprint.
  size_t memo_hits = 0;
  /// A search budget ran out before the space was exhausted.
  bool budget_exhausted = false;

  /// Human-readable summary: costs, search totals, applied laws with
  /// per-step cost deltas, final plan.
  std::string Explain() const;
};

/// The optimizer: law-based rewriting (src/core) driven by the cost model,
/// then lowering to the execution engine. The memoized best-first search
/// (opt/memo.hpp) over SearchRuleSet() picks the cheapest of every explored
/// alternative, so the chosen plan is never costlier than the original.
class Optimizer {
 public:
  /// `stats` feeds the cost model; pass the snapshot's cache
  /// (CatalogSnapshot::stats() in api/database.hpp) so harvests are shared
  /// across compiles. When null the optimizer owns a transient cache (used
  /// for transaction overlay catalogs, whose dirty contents have no
  /// published snapshot).
  explicit Optimizer(const Catalog& catalog, OptimizerOptions options = {},
                     const StatsCache* stats = nullptr);

  /// Rewrites and costs `plan` without executing it.
  OptimizationReport Optimize(const PlanPtr& plan) const;

  /// Optimizes, lowers, executes; fills `profile`/`report` when provided.
  Relation Run(const PlanPtr& plan, ExecProfile* profile = nullptr,
               OptimizationReport* report = nullptr) const;

 private:
  const StatsCache& stats() const { return stats_ != nullptr ? *stats_ : owned_stats_; }

  const Catalog& catalog_;
  OptimizerOptions options_;
  RewriteEngine engine_;  // search space: SearchRuleSet()
  const StatsCache* stats_;
  StatsCache owned_stats_;
};

}  // namespace quotient
