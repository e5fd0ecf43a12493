#include "opt/memo.hpp"

#include <queue>
#include <unordered_set>
#include <utility>

#include "opt/fingerprint.hpp"

namespace quotient {

namespace {

/// Memo key of a plan: the injective fingerprint when available, else a
/// rendering-based fallback for plans with VALUES/param leaves. The
/// fallback is not injective (two distinct VALUES relations can share a
/// label), but a collision only prunes exploration of one duplicate-keyed
/// state — it never corrupts the chosen plan, whose cost and shape are
/// computed from the real plan object.
std::string MemoKey(const PlanPtr& plan) {
  std::string key;
  if (FingerprintPlan(plan, &key)) return key;
  return "s:" + plan->ToString();
}

struct SearchState {
  PlanPtr plan;
  double cost = 0;
  std::vector<RewriteStep> steps;
  std::vector<std::pair<PlanPtr, PlanPtr>> subtrees;  // per step: replaced, replacement
  size_t seq = 0;  // insertion order, the deterministic tiebreak
};

struct FrontierOrder {
  // std::priority_queue pops the LARGEST element, so invert: cheaper cost
  // first, earlier insertion on ties.
  bool operator()(const SearchState& a, const SearchState& b) const {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.seq > b.seq;
  }
};

}  // namespace

MemoSearchResult MemoSearch(const PlanPtr& original, const RewriteEngine& engine,
                            const RewriteContext& context, const Catalog& catalog,
                            const StatsCache& stats, const MemoSearchOptions& options) {
  MemoSearchResult result;
  result.original_cost = EstimateCost(original, catalog, stats);
  result.best = original;
  result.best_cost = result.original_cost;
  result.candidates = 1;

  std::unordered_set<std::string> visited;
  visited.insert(MemoKey(original));
  std::vector<std::pair<PlanPtr, PlanPtr>> best_subtrees;

  std::priority_queue<SearchState, std::vector<SearchState>, FrontierOrder> frontier;
  size_t seq = 0;
  frontier.push({original, result.best_cost, {}, {}, seq++});

  while (!frontier.empty()) {
    if (result.candidates >= options.max_candidates) {
      result.budget_exhausted = true;
      break;
    }
    SearchState state = frontier.top();
    frontier.pop();
    if (state.steps.size() >= options.max_steps) {
      result.budget_exhausted = true;
      continue;
    }
    for (RewriteAlternative& alt : engine.Enumerate(state.plan, context)) {
      std::string key = MemoKey(alt.plan);
      if (!visited.insert(std::move(key)).second) {
        ++result.memo_hits;
        continue;
      }
      double cost = EstimateCost(alt.plan, catalog, stats);
      ++result.candidates;
      SearchState next;
      next.plan = alt.plan;
      next.cost = cost;
      next.steps = state.steps;
      alt.step.cost_after = cost;
      next.steps.push_back(std::move(alt.step));
      next.subtrees = state.subtrees;
      next.subtrees.emplace_back(std::move(alt.before), std::move(alt.after));
      next.seq = seq++;
      // Strictly cheaper wins; on an exact tie prefer the deeper rewrite,
      // matching the greedy engine's bias toward applying laws.
      if (cost < result.best_cost ||
          (cost == result.best_cost && next.steps.size() > result.steps.size())) {
        result.best = next.plan;
        result.best_cost = cost;
        result.steps = next.steps;
        best_subtrees = next.subtrees;
      }
      frontier.push(std::move(next));
      if (result.candidates >= options.max_candidates) break;
    }
  }
  if (result.candidates >= options.max_candidates && !frontier.empty()) {
    result.budget_exhausted = true;
  }
  // Render only the chosen path's steps.
  for (size_t i = 0; i < result.steps.size(); ++i) {
    result.steps[i].before = best_subtrees[i].first->ToString();
    result.steps[i].after = best_subtrees[i].second->ToString();
  }
  return result;
}

}  // namespace quotient
