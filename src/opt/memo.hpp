#pragma once

// Memoized, cost-guided search over law applications.
//
// The greedy fixpoint (RewriteEngine::Rewrite) commits to the first
// matching rule at the topmost matching node; when two laws compete for
// the same subtree (Law 3's selection pushdown vs. Law 10's semijoin
// reshuffle, say) it cannot weigh them. MemoSearch explores the
// alternatives instead: states are whole logical plans, transitions are
// single rule applications (RewriteEngine::Enumerate), and exploration is
// best-first by estimated cost (opt/cost.hpp) under a candidate/step
// budget. The memo table deduplicates states by the injective plan
// fingerprint (opt/fingerprint.hpp), so plans reachable through different
// law orders are explored once — the memoization that makes term
// rewriting tractable (Chen & Mengel, arXiv 2411.10229).
//
// Determinism: enumeration order is deterministic, ties in the frontier
// break by insertion sequence, and the best plan prefers the deeper
// rewrite on exact cost ties (matching the greedy engine's bias toward
// applying laws). Search output therefore never depends on timing.

#include <cstddef>
#include <vector>

#include "core/engine.hpp"
#include "opt/cost.hpp"
#include "opt/stats.hpp"

namespace quotient {

/// The search budgets: law applications along one path (the depth bound)
/// and candidate plans costed across the whole search. Constants, not
/// knobs: Optimizer::Optimize always searches with these defaults.
inline constexpr size_t kMaxRewriteSteps = 64;
inline constexpr size_t kMaxSearchCandidates = 256;

struct MemoSearchOptions {
  size_t max_steps = kMaxRewriteSteps;
  size_t max_candidates = kMaxSearchCandidates;
};

struct MemoSearchResult {
  double original_cost = 0;  // EstimateCost(original)
  PlanPtr best;             // cheapest plan found (the original when nothing beat it)
  double best_cost = 0;     // EstimateCost(best)
  /// Law path from the original to `best`, each step's cost_after filled.
  std::vector<RewriteStep> steps;
  size_t candidates = 0;    // distinct plans costed (the original included)
  size_t memo_hits = 0;     // duplicate states pruned by fingerprint
  bool budget_exhausted = false;  // frontier was non-empty when a budget hit
};

/// Explores law applications from `original` best-first and returns the
/// cheapest plan found. Never returns a plan worse than the original:
/// `best_cost <= EstimateCost(original)` by construction.
MemoSearchResult MemoSearch(const PlanPtr& original, const RewriteEngine& engine,
                            const RewriteContext& context, const Catalog& catalog,
                            const StatsCache& stats, const MemoSearchOptions& options);

}  // namespace quotient
