// End-to-end SQL through the Session front door: parse -> lower -> law
// rewrites -> physical planning -> (parallel) pipeline execution, against a
// generated suppliers-and-parts database. The cache-miss fixtures price the
// whole compile+run path; the cache-hit fixtures isolate what the LRU plan
// cache saves; the comma-join fixture prices a hash join extracted from a
// WHERE clause; the oracle fixture is the tuple-at-a-time interpreter
// baseline the Session replaced as the default path; the windowed
// prepared divide prices a dividend read as a span of the table's order;
// the distinct and group-having fixtures price the fleet dashboard's
// SELECT DISTINCT over EXISTS and IN subqueries and its GROUP BY ... HAVING.
//
// scripts/run_benchmarks.sh runs this binary into
// bench-results/BENCH_sql.json.

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "sql/interp.hpp"

namespace quotient {
namespace {

/// supplies(s#, p#) with `suppliers` suppliers over `parts` parts (full
/// coverage for a fixed fraction so quotients are nonempty), and
/// parts(p#, color) cycling through four colors.
void FillTables(int64_t suppliers, int64_t parts, Session* session, Catalog* catalog) {
  DataGen gen(17);
  std::vector<Tuple> supply_rows;
  for (int64_t s = 1; s <= suppliers; ++s) {
    bool full = s % 10 == 0;  // every 10th supplier covers everything
    for (int64_t p = 1; p <= parts; ++p) {
      if (full || gen.Chance(0.3)) supply_rows.push_back({V(s), V(p)});
    }
  }
  static const char* kColors[] = {"blue", "red", "green", "white"};
  std::vector<Tuple> part_rows;
  for (int64_t p = 1; p <= parts; ++p) {
    part_rows.push_back({V(p), V(kColors[p % 4])});
  }
  Relation supplies(Schema::Parse("s#, p#"), std::move(supply_rows));
  Relation part_rel(Schema::Parse("p#:int, color:string"), std::move(part_rows));
  if (session != nullptr) {
    session->CreateTable("supplies", supplies);
    session->CreateTable("parts", part_rel);
  }
  if (catalog != nullptr) {
    catalog->Put("supplies", std::move(supplies));
    catalog->Put("parts", std::move(part_rel));
  }
}

const char* kDivideSql =
    "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
    "WHERE color = 'blue'";

void BM_SessionDivide_CacheMiss(benchmark::State& state) {
  SessionOptions options;
  options.plan_cache_capacity = 0;  // full parse+rewrite+plan every time
  Session session(options);
  FillTables(state.range(0), state.range(1), &session, nullptr);
  for (auto _ : state) {
    Result<QueryResult> result = session.Execute(kDivideSql);
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().rows);
  }
}
BENCHMARK(BM_SessionDivide_CacheMiss)
    ->ArgNames({"suppliers", "parts"})
    ->Args({64, 16})
    ->Args({512, 32})
    ->Args({2048, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_SessionDivide_CacheHit(benchmark::State& state) {
  Session session;
  FillTables(state.range(0), state.range(1), &session, nullptr);
  (void)session.Execute(kDivideSql);  // warm the plan cache
  for (auto _ : state) {
    Result<QueryResult> result = session.Execute(kDivideSql);
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().rows);
  }
}
BENCHMARK(BM_SessionDivide_CacheHit)
    ->ArgNames({"suppliers", "parts"})
    ->Args({64, 16})
    ->Args({512, 32})
    ->Args({2048, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_OracleInterpreter_Divide(benchmark::State& state) {
  Catalog catalog;
  FillTables(state.range(0), state.range(1), nullptr, &catalog);
  for (auto _ : state) {
    Result<Relation> result = sql::ExecuteSql(kDivideSql, catalog);
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value());
  }
}
BENCHMARK(BM_OracleInterpreter_Divide)
    ->ArgNames({"suppliers", "parts"})
    ->Args({64, 16})
    ->Args({512, 32})
    ->Args({2048, 64})
    ->Unit(benchmark::kMicrosecond);

// Compile-only cost (EXPLAIN does not execute): what Prepare()+cache avoid.
void BM_SessionCompileOnly(benchmark::State& state) {
  SessionOptions options;
  options.plan_cache_capacity = 0;
  Session session(options);
  FillTables(64, 16, &session, nullptr);
  std::string explain = std::string("EXPLAIN ") + kDivideSql;
  for (auto _ : state) {
    Result<QueryResult> result = session.Execute(explain);
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().rows);
  }
}
BENCHMARK(BM_SessionCompileOnly)->Unit(benchmark::kMicrosecond);

void BM_SessionPrepared_InSubquery(benchmark::State& state) {
  Session session;
  FillTables(state.range(0), state.range(1), &session, nullptr);
  Result<PreparedStatement> prepared = session.Prepare(
      "SELECT DISTINCT s# FROM supplies WHERE p# IN ("
      "SELECT p# FROM parts WHERE color = ?)");
  if (!prepared.ok()) {
    state.SkipWithError(prepared.error().c_str());
    return;
  }
  (void)prepared.value().Execute({Value::Str("red")});  // warm
  for (auto _ : state) {
    Result<QueryResult> result = prepared.value().Execute({Value::Str("red")});
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().rows);
  }
}
BENCHMARK(BM_SessionPrepared_InSubquery)
    ->ArgNames({"suppliers", "parts"})
    ->Args({512, 32})
    ->Args({2048, 64})
    ->Unit(benchmark::kMicrosecond);

// The fleet-size comma join (4000 suppliers x 64 parts, a 50-supplier
// filter) at plan-cache hit, with the filter written inline as one more
// join conjunct (arg 0) and inside a derived table (arg 1). Join
// extraction plans both as a hash equi-join below a pushed-down filter.
void BM_SessionCommaJoin(benchmark::State& state) {
  static const char* kTexts[] = {
      "SELECT s.s#, p.color FROM supplies AS s, parts AS p "
      "WHERE s.p# = p.p# AND s.s# <= 50",
      "SELECT s.s#, p.color FROM (SELECT s#, p# FROM supplies WHERE s# <= 50) AS s, "
      "parts AS p WHERE s.p# = p.p#"};
  const char* sql = kTexts[state.range(0)];
  Session session;
  FillTables(4000, 64, &session, nullptr);
  (void)session.Execute(sql);  // warm the plan cache
  for (auto _ : state) {
    Result<QueryResult> result = session.Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().rows);
  }
}
BENCHMARK(BM_SessionCommaJoin)
    ->ArgName("derived_table")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// Rows every scan of the plan read: the sum of "Scan"/"RangeScan" row
/// counts in the operator profile.
double RowsScanned(const ExecProfile& profile) {
  // Each profile line reads "<operator>  rows=<n>  ...".
  std::istringstream lines(profile.explain);
  std::string op, count, rest;
  double rows = 0;
  while (lines >> op >> count && std::getline(lines, rest)) {
    if (op == "Scan" || op == "RangeScan") rows += std::stod(count.substr(count.find('=') + 1));
  }
  return rows;
}

// A prepared small divide over 2048 suppliers x 64 parts whose supplier
// window covers a quarter (arg 4) or all (arg 1) of the suppliers. The
// window's bounds on s#, the leading column of supplies, make the dividend
// a span of the table's canonical order, so rows scanned per execution
// scale with the window instead of the table. The artifact recycler is
// off: with it, every repeat of one window adopts the cached probe state
// and scans nothing.
void BM_SessionPrepared_WindowedDivide(benchmark::State& state) {
  const int64_t suppliers = 2048;
  DatabaseOptions options;
  options.recycler_memory_bytes = 0;
  Session session(std::make_shared<Database>(options));
  FillTables(suppliers, 64, &session, nullptr);
  Result<PreparedStatement> prepared = session.Prepare(
      "SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE s# >= ? AND s# < ?");
  if (!prepared.ok()) {
    state.SkipWithError(prepared.error().c_str());
    return;
  }
  const std::vector<Value> window = {V(int64_t{1}), V(1 + suppliers / state.range(0))};
  double scanned = 0;
  for (auto _ : state) {
    Result<QueryResult> result = prepared.value().Execute(window);
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().rows);
    scanned = RowsScanned(result.value().profile);
  }
  state.counters["rows_scanned"] = scanned;
}
BENCHMARK(BM_SessionPrepared_WindowedDivide)
    ->ArgName("window_fraction_inverse")
    ->Arg(4)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// Repeats `sql` over 4000 suppliers x 64 parts at plan-cache hit (the
/// default database, recycler on, as in the end-to-end fleet workload).
void RunCachedText(benchmark::State& state, const char* sql) {
  Session session;
  FillTables(4000, 64, &session, nullptr);
  (void)session.Execute(sql);  // warm the plan cache
  size_t result_rows = 0;
  for (auto _ : state) {
    Result<QueryResult> result = session.Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.error().c_str());
      break;
    }
    result_rows = result.value().rows.size();
    benchmark::DoNotOptimize(result.value().rows);
  }
  state.counters["result_rows"] = static_cast<double>(result_rows);
}

// The dashboard's EXISTS text: a semi-join of supplies with its own top 1%
// of suppliers, then SELECT DISTINCT over the survivors. Nearly every
// supplies row survives the semi-join, still grouped on s#, so π keeps a
// row where s# changes (dedup=runs).
void BM_SessionDistinctSemiJoin(benchmark::State& state) {
  RunCachedText(state,
                "SELECT DISTINCT s1.s# FROM supplies AS s1 WHERE EXISTS (SELECT * FROM "
                "supplies AS s2 WHERE s2.p# = s1.p# AND s2.s# > 3960)");
}
BENCHMARK(BM_SessionDistinctSemiJoin)->Unit(benchmark::kMicrosecond);

// The dashboard's IN text: SELECT DISTINCT s# over the supplies rows whose
// part is blue. The semi-join keeps supplies' order, so π emits at s# run
// boundaries without numbering a key (dedup=runs).
void BM_SessionDistinctClustered(benchmark::State& state) {
  RunCachedText(state,
                "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
                "color = 'blue')");
}
BENCHMARK(BM_SessionDistinctClustered)->Unit(benchmark::kMicrosecond);

// The dashboard's GROUP BY ... HAVING text: γ's 4000 groups (a recycled
// artifact after the first run) filtered, under a π that keeps every
// column, so its batches pass through (dedup=pass).
void BM_SessionGroupHaving(benchmark::State& state) {
  RunCachedText(state,
                "SELECT s#, COUNT(p#) AS n FROM supplies GROUP BY s# HAVING COUNT(p#) >= 20");
}
BENCHMARK(BM_SessionGroupHaving)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace quotient

BENCHMARK_MAIN();
