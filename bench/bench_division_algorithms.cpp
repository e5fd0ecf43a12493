// Hash-division (Graefe/Cole [16]) plus the §6 claim of Leinders/Van den
// Bussche [25]: simulating the small divide with basic algebra (Healy's
// expansion) forces quadratic intermediate results, while the first-class
// operator stays (n log n)-ish.
//
// Expected shape: HashDivision scales near-linearly in |dividend|; the
// Healy expansion (the logical plan rewritten by
// MakeDivideToHealyExpansionRule) is orders of magnitude slower and its max
// intermediate result grows with |candidates| x |divisor| (quadratic in the
// input scale), which the "MaxIntermediateRows" counter makes visible.

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "exec/exec_divide.hpp"
#include "opt/planner.hpp"

namespace quotient {
namespace {

using bench::MakeDivisionWorkload;

void BM_HashDivision(benchmark::State& state) {
  size_t groups = static_cast<size_t>(state.range(0));
  size_t divisor_size = static_cast<size_t>(state.range(1));
  auto workload = MakeDivisionWorkload(groups, /*domain=*/64, divisor_size);
  // The encodings model base tables whose dictionaries are already cached by
  // the catalog (built once above, outside the timed loop).
  for (auto _ : state) {
    Relation q = ExecDivide(workload.dividend, workload.divisor, workload.dividend_enc,
                            workload.divisor_enc);
    benchmark::DoNotOptimize(q);
  }
  state.counters["dividend"] = static_cast<double>(workload.dividend.size());
  state.counters["divisor"] = static_cast<double>(workload.divisor.size());
}

/// First-class hash division vs. Healy's basic-algebra simulation, with the
/// per-plan row accounting that exhibits the quadratic intermediate result.
void BM_FirstClassVsSimulation(benchmark::State& state, bool expand) {
  size_t groups = static_cast<size_t>(state.range(0));
  size_t divisor_size = static_cast<size_t>(state.range(1));
  auto workload = MakeDivisionWorkload(groups, /*domain=*/64, divisor_size);
  Catalog catalog;
  catalog.Put("r1", workload.dividend);
  catalog.Put("r2", workload.divisor);
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"),
                                   LogicalOp::Scan(catalog, "r2"));
  if (expand) {
    RewriteEngine healy;
    healy.Add(MakeDivideToHealyExpansionRule());
    plan = healy.Rewrite(plan, RewriteContext{&catalog, false});
  }
  ExecProfile profile;
  for (auto _ : state) {
    Relation q = ExecutePlan(plan, catalog, {}, &profile);
    benchmark::DoNotOptimize(q);
  }
  state.counters["MaxIntermediateRows"] = static_cast<double>(profile.max_rows);
  state.counters["TotalRows"] = static_cast<double>(profile.total_rows);
  state.counters["InputRows"] =
      static_cast<double>(workload.dividend.size() + workload.divisor.size());
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  benchmark::RegisterBenchmark("HashDivision", BM_HashDivision)
      ->ArgsProduct({{64, 256, 1024}, {4, 16, 48}})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("FirstClassDivide",
                               [](benchmark::State& s) { BM_FirstClassVsSimulation(s, false); })
      ->ArgsProduct({{64, 256, 1024}, {8, 32}})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("HealySimulation",
                               [](benchmark::State& s) { BM_FirstClassVsSimulation(s, true); })
      ->ArgsProduct({{64, 256, 1024}, {8, 32}})
      ->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
