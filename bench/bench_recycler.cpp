// Cross-query artifact recycler (exec/recycler.hpp, docs/recycler.md):
// the cost of re-executing a statement whose blocking build state is
// served from the database-wide recycler, against the same statement
// rebuilding that state from scratch every time.
//
// Three database configurations per workload:
//   * off   — recycler_memory_bytes = 0: every execution rebuilds (the
//             pre-recycler engine; plan cache warm in all variants, so
//             compile cost is out of the picture).
//   * warm  — recycler on and pre-populated: every execution adopts the
//             published artifacts; the measured work is probe/output only.
//   * cold  — recycler on but cleared before each timed execution: the
//             build-and-publish path, i.e. the overhead the first execution
//             after a shape's first sighting pays to make every later one
//             warm. Clearing drops artifacts but keeps sightings, and the
//             warm-up has already sighted the statement, so every timed
//             iteration publishes.
//
// The warm-up executes each statement twice: the first execution sights
// its fragments (admission publishes only on a second sighting, docs/
// recycler.md) and the second publishes them, so `warm` adopts from its
// first timed iteration.
//
// scripts/run_benchmarks.sh merges off/warm into BENCH_recycler.json with
// the speedup per workload; the acceptance bar is >= 2x warm-vs-off on the
// build-dominated workloads (division, grouping).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "api/session.hpp"
#include "bench_common.hpp"

namespace quotient {
namespace {

// Build-heavy workloads: a division whose probe state covers the whole
// dividend drain, and a grouping whose artifact is the finished aggregate.
constexpr const char* kDivideSql =
    "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";
constexpr const char* kGroupBySql =
    "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a";
constexpr const char* kSemiJoinSql =
    "SELECT DISTINCT a FROM r1 WHERE b IN (SELECT b FROM r2)";

std::shared_ptr<Database> BuildDatabase(size_t recycler_bytes) {
  DatabaseOptions options;
  options.recycler_memory_bytes = recycler_bytes;
  auto db = std::make_shared<Database>(options);
  DataGen gen(42);
  Relation divisor = gen.Divisor(48, /*domain=*/64);
  Relation dividend =
      gen.DividendWithHits(4096, 409, divisor, /*domain=*/64, /*density=*/0.5);
  db->CreateTable("r1", std::move(dividend));
  db->CreateTable("r2", std::move(divisor));
  return db;
}

/// One shared database per configuration for the whole binary run, exactly
/// like a long-lived server process. The plan cache is warmed by the first
/// execution; the recycler state is what each variant controls.
const std::shared_ptr<Database>& OffDatabase() {
  static const std::shared_ptr<Database> db = BuildDatabase(0);
  return db;
}

const std::shared_ptr<Database>& OnDatabase() {
  static const std::shared_ptr<Database> db = BuildDatabase(64ull << 20);
  return db;
}

void RunStatement(benchmark::State& state, const std::shared_ptr<Database>& db,
                  const char* sql, bool clear_each_iteration) {
  Session session(db);
  // Plan cache, then the recycler: sight the fragments, then publish them.
  for (int i = 0; i < 2; ++i) {
    Result<QueryResult> warmup = session.Execute(sql);
    if (!warmup.ok()) {
      state.SkipWithError(warmup.error().c_str());
      return;
    }
  }
  for (auto _ : state) {
    if (clear_each_iteration) {
      state.PauseTiming();
      db->ClearRecycler();
      state.ResumeTiming();
    }
    Result<QueryResult> result = session.Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().rows);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Recycler_Divide_off(benchmark::State& state) {
  RunStatement(state, OffDatabase(), kDivideSql, false);
}
void BM_Recycler_Divide_warm(benchmark::State& state) {
  RunStatement(state, OnDatabase(), kDivideSql, false);
}
void BM_Recycler_Divide_cold(benchmark::State& state) {
  RunStatement(state, OnDatabase(), kDivideSql, true);
}

void BM_Recycler_GroupBy_off(benchmark::State& state) {
  RunStatement(state, OffDatabase(), kGroupBySql, false);
}
void BM_Recycler_GroupBy_warm(benchmark::State& state) {
  RunStatement(state, OnDatabase(), kGroupBySql, false);
}
void BM_Recycler_GroupBy_cold(benchmark::State& state) {
  RunStatement(state, OnDatabase(), kGroupBySql, true);
}

void BM_Recycler_SemiJoin_off(benchmark::State& state) {
  RunStatement(state, OffDatabase(), kSemiJoinSql, false);
}
void BM_Recycler_SemiJoin_warm(benchmark::State& state) {
  RunStatement(state, OnDatabase(), kSemiJoinSql, false);
}

BENCHMARK(BM_Recycler_Divide_off)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Recycler_Divide_warm)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Recycler_Divide_cold)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Recycler_GroupBy_off)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Recycler_GroupBy_warm)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Recycler_GroupBy_cold)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Recycler_SemiJoin_off)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Recycler_SemiJoin_warm)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace quotient

BENCHMARK_MAIN();
