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
//
// The 16384- and 65536-group points (~330k and ~1.3M dividend rows) and
// WindowedDivide (a RangeScan span of a ~1.3M-row dividend, 62k to 702k
// rows) straddle the parallel executor's fan-out break-even; their "dop"
// counter records whether the drains ran chunked (docs/parallel_execution.md).
// WindowedDivide's second argument is the morsel size: at 1024 rows a drain
// fans out from a quarter of the default break-even, which shows what the
// chunked drain costs below it.
//
// WindowedDivide's dividend is clustered on A (a RangeScan of a table whose
// leading column is A), so it is divided run by run (exec/division_runs.hpp).
// WindowedDivideUnclustered divides the same window's rows stored B first,
// where A is no key prefix: the candidate-matrix path, for comparison.

#include <memory>
#include <string>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "exec/exec_divide.hpp"
#include "exec/pipeline.hpp"
#include "opt/planner.hpp"

namespace quotient {
namespace {

using bench::DivisionWorkload;
using bench::MakeDivisionWorkload;

/// One point's inputs: the catalog holds the dividend as r1 and the divisor
/// as r2, and the encodings model the catalog's per-table dictionary cache.
struct DivisionPoint {
  Catalog catalog;
  TableEncodingPtr dividend_enc;
  TableEncodingPtr divisor_enc;
  const Relation& dividend() const { return catalog.Get("r1"); }
  const Relation& divisor() const { return catalog.Get("r2"); }
};

/// The inputs of the last (groups, divisor) asked for: repetitions of one
/// point share them, so the large points are generated once, not once per
/// run, and only one point's rows are resident at a time.
const DivisionPoint& CachedPoint(size_t groups, size_t divisor_size) {
  static size_t cached_groups = 0;
  static size_t cached_divisor = 0;
  static std::unique_ptr<DivisionPoint> point;
  if (point == nullptr || groups != cached_groups || divisor_size != cached_divisor) {
    point.reset();
    DivisionWorkload workload = MakeDivisionWorkload(groups, /*domain=*/64, divisor_size);
    point = std::make_unique<DivisionPoint>();
    point->catalog.Put("r1", std::make_shared<const Relation>(std::move(workload.dividend)));
    point->catalog.Put("r2", std::make_shared<const Relation>(std::move(workload.divisor)));
    // Warm the catalog's encoding cache, so no timed iteration builds it.
    point->dividend_enc = point->catalog.Encoding("r1");
    point->divisor_enc = point->catalog.Encoding("r2");
    cached_groups = groups;
    cached_divisor = divisor_size;
  }
  return *point;
}

void BM_HashDivision(benchmark::State& state) {
  size_t groups = static_cast<size_t>(state.range(0));
  size_t divisor_size = static_cast<size_t>(state.range(1));
  const DivisionPoint& point = CachedPoint(groups, divisor_size);
  // The encodings model base tables whose dictionaries are already cached by
  // the catalog (built once above, outside the timed loop).
  for (auto _ : state) {
    Relation q =
        ExecDivide(point.dividend(), point.divisor(), point.dividend_enc, point.divisor_enc);
    benchmark::DoNotOptimize(q);
  }
  state.counters["dividend"] = static_cast<double>(point.dividend().size());
  state.counters["divisor"] = static_cast<double>(point.divisor().size());
}

/// First-class hash division vs. Healy's basic-algebra simulation, with the
/// per-plan row accounting that exhibits the quadratic intermediate result.
void BM_FirstClassVsSimulation(benchmark::State& state, bool expand) {
  size_t groups = static_cast<size_t>(state.range(0));
  size_t divisor_size = static_cast<size_t>(state.range(1));
  const DivisionPoint& point = CachedPoint(groups, divisor_size);
  const Catalog& catalog = point.catalog;
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
      static_cast<double>(point.dividend().size() + point.divisor().size());
  state.counters["dop"] = static_cast<double>(profile.max_dop);
}

/// The windowed points divide groups [0, window) of a 65536-group dividend.
/// MakeDivisionWorkload plants the whole divisor in its first groups/10 + 1
/// groups (6,554 here), so a window starting at group 0 holds qualifying
/// candidates: all 2,048 groups of the smallest window and the 6,554 hit
/// groups of the larger ones. A window elsewhere would divide to an empty
/// quotient and never time the emission of a result.
constexpr int64_t kWindowGroups = 65536;
constexpr int64_t kWindowStart = 0;

/// Hash division over a window of `window` groups of a 65536-group
/// dividend: the planner reads the leading-column range as a RangeScan, so
/// the probe drain's row count is the span width (bench_e2e's divide_olap
/// shape, at several window sizes). Runs with morsels of range(1) rows.
void BM_WindowedDivide(benchmark::State& state) {
  const int64_t window = state.range(0);
  ScopedMorselRows morsels(static_cast<size_t>(state.range(1)));
  const Catalog& catalog = CachedPoint(kWindowGroups, /*divisor_size=*/16).catalog;
  const int64_t lo = kWindowStart;
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                        Expr::And(Expr::ColCmp("a", CmpOp::kGe, V(lo)),
                                  Expr::ColCmp("a", CmpOp::kLt, V(lo + window)))),
      LogicalOp::Scan(catalog, "r2"));
  ExecProfile profile;
  size_t quotient_rows = 0;
  for (auto _ : state) {
    Relation q = ExecutePlan(plan, catalog, {}, &profile);
    quotient_rows = q.size();
    benchmark::DoNotOptimize(q);
  }
  state.counters["dop"] = static_cast<double>(profile.max_dop);
  state.counters["RangeScan"] = profile.pipelines.find("RangeScan") != std::string::npos;
  state.counters["quotient_rows"] = static_cast<double>(quotient_rows);
}

/// WindowedDivide's rows with A not leading: the window of the same
/// dividend, stored as its own table w(b, a) and scanned whole, so the
/// division takes the candidate-matrix path over exactly the rows
/// WindowedDivide divides run by run.
void BM_WindowedDivideUnclustered(benchmark::State& state) {
  const int64_t window = state.range(0);
  ScopedMorselRows morsels(static_cast<size_t>(state.range(1)));
  const Catalog& source = CachedPoint(kWindowGroups, /*divisor_size=*/16).catalog;
  const int64_t lo = kWindowStart;
  std::vector<Tuple> rows;
  for (const Tuple& t : source.Get("r1").tuples()) {
    int64_t a = t[0].as_int();
    if (a >= lo && a < lo + window) rows.push_back({t[1], t[0]});
  }
  Catalog catalog;
  catalog.Put("w", Relation(Schema::Parse("b, a"), std::move(rows)));
  catalog.Put("r2", source.Get("r2"));
  catalog.Encoding("w");  // warm the dictionary cache outside the timed loop
  catalog.Encoding("r2");
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "w"), LogicalOp::Scan(catalog, "r2"));
  ExecProfile profile;
  size_t quotient_rows = 0;
  for (auto _ : state) {
    Relation q = ExecutePlan(plan, catalog, {}, &profile);
    quotient_rows = q.size();
    benchmark::DoNotOptimize(q);
  }
  state.counters["dop"] = static_cast<double>(profile.max_dop);
  state.counters["rows"] = static_cast<double>(catalog.Get("w").size());
  state.counters["quotient_rows"] = static_cast<double>(quotient_rows);
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  benchmark::RegisterBenchmark("HashDivision", BM_HashDivision)
      ->ArgsProduct({{64, 256, 1024}, {4, 16, 48}})
      ->Args({16384, 16})
      ->Args({65536, 16})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("FirstClassDivide",
                               [](benchmark::State& s) { BM_FirstClassVsSimulation(s, false); })
      ->ArgsProduct({{64, 256, 1024}, {8, 32}})
      ->Args({16384, 16})
      ->Args({65536, 16})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("WindowedDivide", BM_WindowedDivide)
      ->ArgsProduct({{2048, 8192, 16384, 32768}, {4096, 1024}})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("WindowedDivideUnclustered", BM_WindowedDivideUnclustered)
      ->ArgsProduct({{2048, 8192, 16384, 32768}, {4096, 1024}})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("HealySimulation",
                               [](benchmark::State& s) { BM_FirstClassVsSimulation(s, true); })
      ->ArgsProduct({{64, 256, 1024}, {8, 32}})
      ->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
