#pragma once

#include <memory>
#include <string>

#include "exec/iterator.hpp"
#include "exec/recycler.hpp"
#include "plan/evaluate.hpp"
#include "plan/logical.hpp"

namespace quotient {

class StatsCache;  // opt/stats.hpp

/// What the planner attaches to the physical plan it builds. ÷ always
/// lowers to hash-division and ÷* to the hash great divide; to run Healy's
/// basic-algebra baseline instead, rewrite the logical plan with
/// MakeDivideToHealyExpansionRule() (core/rules.hpp) before planning.
struct PlannerOptions {
  /// Cross-query artifact recycler (exec/recycler.hpp). When set, the
  /// planner attaches RecycleSpecs — plan-fragment fingerprints plus table
  /// data versions — to every blocking sink whose build side is a
  /// deterministic function of base tables, so repeated executions adopt
  /// cached divisor/join/grouping build state. Null disables recycling.
  std::shared_ptr<ArtifactRecycler> recycler;
};

/// Lowers a logical plan to a Volcano iterator tree over `catalog`.
/// ThetaJoins whose condition is a conjunction of cross-side column
/// equalities become hash equi-joins; other conditions fall back to a
/// nested-loop join. No cost estimate is made: the executor sizes its only
/// fan-out from exact row counts (ChoosePipeline, exec/pipeline.hpp).
/// `stats` is unused; it stays for callers that still pass one.
IterPtr BuildPhysicalPlan(const PlanPtr& plan, const Catalog& catalog,
                          const PlannerOptions& options = {},
                          const StatsCache* stats = nullptr);

/// Execution profile: per-operator row counts rolled up, plus the pipeline
/// structure the parallel executor ran (exec/pipeline.hpp). The compile-side
/// fields (rewrite_steps, plan_cache_hit, fallback_reason) are filled by the
/// Session front door (api/session.hpp) so EXPLAIN ANALYZE reports the full
/// compile+run story; ExecutePlan leaves them at their defaults.
struct ExecProfile {
  size_t total_rows = 0;      // sum of rows produced by every operator
  size_t max_rows = 0;        // largest single operator output
  size_t max_dop = 0;         // most threads any drain's chunks ran on (1 = serial)
  std::string explain;        // EXPLAIN ANALYZE style tree (rows + dop)
  std::string pipelines;      // pipeline decomposition with per-pipeline dop
  size_t rewrite_steps = 0;   // law rewrites applied during compilation
  // Cost-guided search accounting (opt/memo.hpp), filled by the optimizer
  // driver: candidate plans costed and duplicate states the memo pruned.
  // Both zero when the plan was cached.
  size_t search_candidates = 0;
  size_t memo_hits = 0;
  bool plan_cache_hit = false;    // compiled plan served from the LRU cache
  std::string fallback_reason;    // nonempty when the oracle interpreter ran
  // Governor accounting (exec/query_context.hpp), filled by the Session:
  size_t rows_charged_bytes = 0;  // approximate build-state bytes charged
  bool cancelled = false;         // the statement tripped kCancelled
  std::string fault_site;         // injected fault that fired ("" = none)
  // Spill accounting (exec/spill.hpp): flushes of build state to the
  // statement's temp file. Zero when the watermark was never crossed.
  size_t spill_partitions = 0;
  size_t spill_bytes_written = 0;
  // Artifact recycler accounting (exec/recycler.hpp): build-state lookups
  // this statement made against the shared cache. A hit means a blocking
  // sink adopted a cached build instead of draining its input.
  size_t recycler_hits = 0;
  size_t recycler_misses = 0;
};

class QueryContext;

/// Builds, runs, and drains a physical plan; fills `profile` if given.
/// When `context` is set it is installed as the current query governor for
/// the drain (exec/query_context.hpp): morsel loops and blocking builds
/// poll it, and a trip unwinds as QueryAbort — callers own converting that
/// to a Status. Governor accounting fields of `profile` are filled from it.
Relation ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                     const PlannerOptions& options = {}, ExecProfile* profile = nullptr,
                     QueryContext* context = nullptr);

}  // namespace quotient
