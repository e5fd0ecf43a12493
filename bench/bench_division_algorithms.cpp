// Graefe's division-algorithm catalogue [14] plus the §6 claim of
// Leinders/Van den Bussche [25]: simulating the small divide with basic
// algebra (Healy's expansion) forces quadratic intermediate results, while
// the first-class operators stay (n log n)-ish.
//
// Expected shape: hash/counting divisions are the fastest and scale near-
// linearly in |dividend|; merge-sort division pays the sort; nested-loop
// division scales with |dividend| x |divisor|; the Healy expansion is
// orders of magnitude slower and its max intermediate result grows with
// |candidates| x |divisor| (quadratic in the input scale), which the
// "MaxIntermediateRows" counter makes visible.

#include "bench_common.hpp"
#include "exec/exec_divide.hpp"
#include "opt/planner.hpp"

namespace quotient {
namespace {

using bench::MakeDivisionWorkload;

void BM_DivisionAlgorithm(benchmark::State& state, DivisionAlgorithm algorithm) {
  size_t groups = static_cast<size_t>(state.range(0));
  size_t divisor_size = static_cast<size_t>(state.range(1));
  auto workload = MakeDivisionWorkload(groups, /*domain=*/64, divisor_size);
  // The encodings model base tables whose dictionaries are already cached by
  // the catalog (built once above, outside the timed loop).
  for (auto _ : state) {
    Relation q = ExecDivide(workload.dividend, workload.divisor, algorithm,
                            workload.dividend_enc, workload.divisor_enc);
    benchmark::DoNotOptimize(q);
  }
  state.counters["dividend"] = static_cast<double>(workload.dividend.size());
  state.counters["divisor"] = static_cast<double>(workload.divisor.size());
}

void RegisterAlgorithm(const char* name, DivisionAlgorithm algorithm) {
  benchmark::RegisterBenchmark(name, [algorithm](benchmark::State& state) {
    BM_DivisionAlgorithm(state, algorithm);
  })
      ->ArgsProduct({{64, 256, 1024}, {4, 16, 48}})
      ->Unit(benchmark::kMicrosecond);
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
  PlannerOptions options;
  options.expand_divide = expand;
  ExecProfile profile;
  for (auto _ : state) {
    Relation q = ExecutePlan(plan, catalog, options, &profile);
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
  RegisterAlgorithm("HashDivision", DivisionAlgorithm::kHash);
  RegisterAlgorithm("TransposedHashDivision", DivisionAlgorithm::kHashTransposed);
  RegisterAlgorithm("MergeSortDivision", DivisionAlgorithm::kMergeSort);
  RegisterAlgorithm("HashCountDivision", DivisionAlgorithm::kHashCount);
  RegisterAlgorithm("SortCountDivision", DivisionAlgorithm::kSortCount);
  RegisterAlgorithm("NestedLoopDivision", DivisionAlgorithm::kNestedLoop);
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
