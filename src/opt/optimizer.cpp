#include "opt/optimizer.hpp"

#include <cstdio>
#include <utility>

#include "opt/memo.hpp"

namespace quotient {

namespace {

/// "%.1f" of a double into a std::string, sized exactly — no fixed buffer
/// to overflow (large estimates print all their digits).
std::string FormatCost(double cost) {
  int needed = std::snprintf(nullptr, 0, "%.1f", cost);
  if (needed < 0) return "?";
  std::string out(static_cast<size_t>(needed) + 1, '\0');
  std::snprintf(out.data(), out.size(), "%.1f", cost);
  out.resize(static_cast<size_t>(needed));
  return out;
}

}  // namespace

std::string OptimizationReport::Explain() const {
  std::string out;
  out += "original cost: " + FormatCost(original_cost) +
         ", chosen cost: " + FormatCost(chosen_cost) + "\n";
  out += "search: " + std::to_string(search_candidates) + " candidates, " +
         std::to_string(memo_hits) + " memo hits";
  if (budget_exhausted) out += " (budget exhausted)";
  out += "\n";
  if (steps.empty()) {
    out += "no rewrites applied\n";
  } else {
    out += "applied rewrites:\n";
    double running = original_cost;
    for (const RewriteStep& step : steps) {
      out += "  - " + step.rule + " (cost " + FormatCost(running) + " -> " +
             FormatCost(step.cost_after) + ")\n";
      running = step.cost_after;
    }
  }
  out += "final plan:\n" + chosen->ToString();
  return out;
}

Optimizer::Optimizer(const Catalog& catalog, OptimizerOptions options, const StatsCache* stats)
    : catalog_(catalog),
      options_(std::move(options)),
      engine_(RewriteEngine(SearchRuleSet())),
      stats_(stats) {}

OptimizationReport Optimizer::Optimize(const PlanPtr& plan) const {
  // Rules establish data-dependent preconditions from declared metadata
  // only: a compiled plan never depends on evaluating data at compile time.
  RewriteContext context{&catalog_, /*allow_runtime_checks=*/false};
  MemoSearchResult searched = MemoSearch(plan, engine_, context, catalog_, stats(), {});
  OptimizationReport report;
  report.original_cost = searched.original_cost;
  report.chosen = std::move(searched.best);
  report.chosen_cost = searched.best_cost;
  report.steps = std::move(searched.steps);
  report.search_candidates = searched.candidates;
  report.memo_hits = searched.memo_hits;
  report.budget_exhausted = searched.budget_exhausted;
  return report;
}

Relation Optimizer::Run(const PlanPtr& plan, ExecProfile* profile,
                        OptimizationReport* report) const {
  OptimizationReport local = Optimize(plan);
  Relation result = ExecutePlan(local.chosen, catalog_, options_.planner, profile);
  if (profile != nullptr) {
    profile->search_candidates = local.search_candidates;
    profile->memo_hits = local.memo_hits;
  }
  if (report != nullptr) *report = std::move(local);
  return result;
}

}  // namespace quotient
