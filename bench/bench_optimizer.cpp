// Cost-guided rewrite search (opt/memo.hpp, docs/optimizer.md): what the
// memoized exploration costs at compile time, and what it buys at run time.
//
//   Optimize — compile time of the one rewrite driver (the memoized
//       best-first search) on a law-rich plan.
//   LawChoice/fixpoint vs LawChoice/search — execution of the plan the
//       greedy fixpoint (RewriteEngine::Default().Rewrite, the test and
//       bench tool) and the optimizer's search pick for a union-divisor
//       query. Law 1 lives only in the search rule set, so the fixpoint
//       runs the original r1 ÷ (r2' ∪ r2'') while the search may adopt the
//       semi-join form when the model scores it cheaper: the gap is what
//       cost-driven choice is worth end to end.

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "opt/optimizer.hpp"

namespace quotient {
namespace {

/// σ over ÷ over ×: selection pushdown, product laws, and their orderings
/// all compete — a dense search space from a small plan.
PlanPtr LawRichPlan(const Catalog& catalog) {
  PlanPtr divide = LogicalOp::Divide(
      LogicalOp::Product(LogicalOp::Values(Relation::Parse("z", "1; 2"), "star"),
                         LogicalOp::Scan(catalog, "r1")),
      LogicalOp::Scan(catalog, "r2"));
  return LogicalOp::Select(divide, Expr::ColCmp("a", CmpOp::kLt, V(64)));
}

void BM_Optimize(benchmark::State& state) {
  auto workload = bench::MakeDivisionWorkload(/*groups=*/2048, /*domain=*/64,
                                              /*divisor_size=*/16);
  Catalog catalog;
  catalog.Put("r1", workload.dividend);
  catalog.Put("r2", workload.divisor);
  // One long-lived stats cache, like a snapshot's: harvests are warm, the
  // loop measures pure exploration + costing.
  StatsCache stats;
  Optimizer optimizer(catalog, {}, &stats);
  PlanPtr plan = LawRichPlan(catalog);
  (void)optimizer.Optimize(plan);  // warm the stats harvests
  size_t candidates = 0;
  for (auto _ : state) {
    OptimizationReport report = optimizer.Optimize(plan);
    candidates = report.search_candidates;
    benchmark::DoNotOptimize(report.chosen_cost);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}

void BM_LawChoice(benchmark::State& state, bool search) {
  // Union divisor: only the search rule set carries Law 1, so the two
  // drivers can genuinely pick different plans for the same query. The shape
  // is tuned so Law 1 wins the cost race: many near-singleton groups make
  // the divide's per-group bitmap work dominate the scans, and the thin
  // first divisor slice prunes nearly every candidate before the wide
  // second slice ever gets checked.
  DataGen gen(42);
  Relation full_divisor = gen.Divisor(/*size=*/4096, /*domain=*/8192);
  Relation dividend = gen.DividendWithHits(/*groups=*/16384, /*hit_groups=*/4,
                                           full_divisor, /*domain=*/8192,
                                           /*density=*/0.001);
  Catalog catalog;
  catalog.Put("r1", dividend);
  // Split the divisor into a thin prefix and a wide tail united in the plan.
  std::vector<Tuple> first(full_divisor.tuples().begin(),
                           full_divisor.tuples().begin() + 64);
  std::vector<Tuple> second(full_divisor.tuples().begin() + 64,
                            full_divisor.tuples().end());
  catalog.Put("r2a", Relation(full_divisor.schema(), std::move(first)));
  catalog.Put("r2b", Relation(full_divisor.schema(), std::move(second)));

  StatsCache stats;
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Scan(catalog, "r1"),
      LogicalOp::Union(LogicalOp::Scan(catalog, "r2a"), LogicalOp::Scan(catalog, "r2b")));
  std::vector<RewriteStep> steps;
  PlanPtr chosen;
  if (search) {
    OptimizationReport report = Optimizer(catalog, {}, &stats).Optimize(plan);
    chosen = report.chosen;
    steps = std::move(report.steps);
  } else {
    chosen = RewriteEngine::Default().Rewrite(plan, RewriteContext{&catalog}, &steps);
  }
  for (auto _ : state) {
    Relation q = ExecutePlan(chosen, catalog);
    benchmark::DoNotOptimize(q);
  }
  state.counters["chosen_cost"] = EstimateCost(chosen, catalog, stats);
  state.counters["rewrites"] = static_cast<double>(steps.size());
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  benchmark::RegisterBenchmark("Optimize", BM_Optimize)->Unit(benchmark::kMicrosecond);
  for (bool search : {false, true}) {
    benchmark::RegisterBenchmark(search ? "LawChoice/search" : "LawChoice/fixpoint",
                                 [search](benchmark::State& s) { BM_LawChoice(s, search); })
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
