// The Session front door (api/session.hpp): catalog management, compiled
// execution through the rewrite laws onto the parallel executor, prepared
// statements with '?' binding, the LRU plan cache, pull-based cursors, the
// oracle fallback, and EXPLAIN / EXPLAIN ANALYZE.

#include <gtest/gtest.h>

#include <limits>

#include "api/session.hpp"
#include "exec/pipeline.hpp"
#include "exec/scheduler.hpp"
#include "paper_fixtures.hpp"
#include "sql/interp.hpp"
#include "sql/parser.hpp"

namespace quotient {
namespace {

const char* kQ1 =
    "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#";
const char* kQ2 =
    "SELECT s# FROM supplies AS s DIVIDE BY ("
    "SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";
const char* kQ3 =
    "SELECT DISTINCT s#, color "
    "FROM supplies AS s1, parts AS p1 "
    "WHERE NOT EXISTS ("
    "  SELECT * FROM parts AS p2 "
    "  WHERE p2.color = p1.color AND NOT EXISTS ("
    "    SELECT * FROM supplies AS s2 "
    "    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))";

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.CreateTable("supplies", paper::SuppliesTable()).ok());
    ASSERT_TRUE(session_.CreateTable("parts", paper::PartsTable()).ok());
  }

  std::string ExplainText(const Relation& rows) {
    std::string out;
    for (const Tuple& t : rows.tuples()) out += t[1].ToString() + "\n";
    return out;
  }

  Session session_;
};

TEST_F(SessionTest, DivideByCompilesThroughRewriteEngineAndExecutor) {
  Result<QueryResult> result = session_.Execute(kQ1);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().rows, paper::Q1Answer());
  EXPECT_TRUE(result.value().compile.compiled);
  EXPECT_TRUE(result.value().compile.fallback_reason.empty());
  // The lowered plan carries a first-class GreatDivide operator.
  EXPECT_NE(result.value().compile.lowered->ToString().find("GreatDivide"),
            std::string::npos);
  // And the physical engine (not the interpreter) produced the rows.
  EXPECT_NE(result.value().profile.explain.find("Scan"), std::string::npos);
}

TEST_F(SessionTest, SmallDivideWithDerivedDivisor) {
  Result<QueryResult> result = session_.Execute(kQ2);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().rows, paper::Q2Answer());
  EXPECT_TRUE(result.value().compile.compiled);
  EXPECT_NE(result.value().compile.lowered->ToString().find("Divide"), std::string::npos);
}

TEST_F(SessionTest, Q3FallsBackToOracleWithRecordedReason) {
  Result<QueryResult> result = session_.Execute(kQ3);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().rows, paper::Q1Answer());
  EXPECT_FALSE(result.value().compile.compiled);
  EXPECT_FALSE(result.value().compile.fallback_reason.empty());
  EXPECT_EQ(result.value().profile.fallback_reason,
            result.value().compile.fallback_reason);
}

TEST_F(SessionTest, PlanCacheHitsOnNormalizedSql) {
  Result<QueryResult> first = session_.Execute(kQ1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().profile.plan_cache_hit);
  // Same query, different whitespace and keyword case.
  std::string variant =
      "select   s#, color\nFROM supplies as s divide by parts AS p ON s.p# = p.p#";
  Result<QueryResult> second = session_.Execute(variant);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_TRUE(second.value().profile.plan_cache_hit);
  EXPECT_EQ(second.value().rows, paper::Q1Answer());
  EXPECT_EQ(session_.plan_cache_size(), 1u);
}

TEST_F(SessionTest, DdlInvalidatesThePlanCache) {
  ASSERT_TRUE(session_.Execute(kQ1).ok());
  EXPECT_EQ(session_.plan_cache_size(), 1u);
  // New data must be visible to the "same" statement.
  ASSERT_TRUE(session_.InsertRows("supplies", {{V(9), V(1)}, {V(9), V(3)}}).ok());
  EXPECT_EQ(session_.plan_cache_size(), 0u);
  Result<QueryResult> result = session_.Execute(kQ1);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().profile.plan_cache_hit);
  // Supplier 9 now supplies all blue parts {1, 3}.
  EXPECT_TRUE(result.value().rows.Contains({V(9), V("blue")}));
}

TEST_F(SessionTest, LruEvictsOldestBeyondCapacity) {
  SessionOptions options;
  options.plan_cache_capacity = 2;
  Session session(options);
  ASSERT_TRUE(session.CreateTable("t", Relation::Parse("a, b", "1,10; 2,20")).ok());
  ASSERT_TRUE(session.Execute("SELECT a FROM t").ok());
  ASSERT_TRUE(session.Execute("SELECT b FROM t").ok());
  ASSERT_TRUE(session.Execute("SELECT a, b FROM t").ok());
  EXPECT_EQ(session.plan_cache_size(), 2u);
  // The first statement was evicted; re-running misses.
  Result<QueryResult> again = session.Execute("SELECT a FROM t");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().profile.plan_cache_hit);
}

TEST_F(SessionTest, PreparedStatementCompilesOnceAcrossDistinctBindings) {
  // The regression this guards: the plan cache used to key on (normalized
  // SQL + parameter values), so every distinct binding re-ran parse →
  // lower → RewriteEngine and flooded the LRU. The statement must compile
  // exactly once, with every binding a cache hit on that one entry.
  ASSERT_TRUE(session_.Execute(kQ1).ok());  // an unrelated hot plan
  size_t baseline_compiles = session_.plan_cache_stats().compiles;

  Result<PreparedStatement> prepared =
      session_.Prepare("SELECT s# FROM supplies WHERE p# = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  size_t cache_size = session_.plan_cache_size();
  for (int64_t i = 0; i < 10000; ++i) {
    Result<QueryResult> result = prepared.value().Execute({V(i)});
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(result.value().profile.plan_cache_hit) << "binding " << i;
    EXPECT_TRUE(result.value().compile.compiled);
  }
  // 10k distinct bindings: one compile (at Prepare), no LRU flooding.
  EXPECT_EQ(session_.plan_cache_stats().compiles, baseline_compiles + 1);
  EXPECT_EQ(session_.plan_cache_size(), cache_size);

  // ... and the binding storm did not evict the unrelated hot plan.
  Result<QueryResult> hot = session_.Execute(kQ1);
  ASSERT_TRUE(hot.ok());
  EXPECT_TRUE(hot.value().profile.plan_cache_hit);
}

TEST_F(SessionTest, PreparedBindingsProduceBindingSpecificResults) {
  // Sharing one cached plan across bindings must not leak one binding's
  // values into another's results (the plan carries '?' slots; each
  // execution binds its own).
  Result<PreparedStatement> prepared =
      session_.Prepare("SELECT s# FROM supplies WHERE p# = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  for (int round = 0; round < 2; ++round) {
    for (int64_t p = 1; p <= 4; ++p) {
      Result<QueryResult> got = prepared.value().Execute({V(p)});
      ASSERT_TRUE(got.ok()) << got.error();
      Result<Relation> oracle = sql::ExecuteSql(
          "SELECT s# FROM supplies WHERE p# = " + std::to_string(p), session_.catalog());
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ(got.value().rows, oracle.value()) << "p# = " << p;
      // The cached plans carry the statement's '?' as a first-class
      // parameter slot (this is what makes compile-once possible); the
      // executed plan is fully bound.
      EXPECT_EQ(CountPlanParameters(got.value().compile.lowered), 1u);
      EXPECT_EQ(CountPlanParameters(got.value().compile.optimized), 1u);
    }
  }
}

TEST_F(SessionTest, PreparedStatementSurvivesDdl) {
  Result<PreparedStatement> prepared =
      session_.Prepare("SELECT s# FROM supplies WHERE p# = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  Result<QueryResult> before = prepared.value().Execute({V(9)});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().rows.size(), 0u);
  // DDL on the referenced table: the next execution recompiles against the
  // new snapshot (once) instead of serving the stale plan or failing.
  ASSERT_TRUE(session_.InsertRows("supplies", {{V(7), V(9)}}).ok());
  Result<QueryResult> after = prepared.value().Execute({V(9)});
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(after.value().rows, Relation::FromRows("s#", {{V(7)}}));
  EXPECT_FALSE(after.value().profile.plan_cache_hit);  // recompiled once
  Result<QueryResult> again = prepared.value().Execute({V(9)});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().profile.plan_cache_hit);
}

TEST_F(SessionTest, DdlInvalidatesOnlyPlansTouchingTheTable) {
  ASSERT_TRUE(session_.CreateTable("other", Relation::Parse("a, b", "1,10; 2,20")).ok());
  ASSERT_TRUE(session_.Execute(kQ1).ok());                    // supplies + parts
  ASSERT_TRUE(session_.Execute("SELECT a FROM other").ok());  // other only
  EXPECT_EQ(session_.plan_cache_size(), 2u);

  // DDL on `supplies` must evict the division plan but keep `other`'s.
  ASSERT_TRUE(session_.InsertRows("supplies", {{V(9), V(1)}}).ok());
  Result<QueryResult> unrelated = session_.Execute("SELECT a FROM other");
  ASSERT_TRUE(unrelated.ok());
  EXPECT_TRUE(unrelated.value().profile.plan_cache_hit);
  Result<QueryResult> touched = session_.Execute(kQ1);
  ASSERT_TRUE(touched.ok());
  EXPECT_FALSE(touched.value().profile.plan_cache_hit);

  // Metadata DDL invalidates the declared tables' plans, too: key/FK
  // declarations feed Laws 11/12, so plans over those tables must recompile.
  ASSERT_TRUE(session_.Execute(kQ1).ok());
  ASSERT_TRUE(session_.DeclareKey("parts", {"p#"}).ok());
  Result<QueryResult> redeclared = session_.Execute(kQ1);
  ASSERT_TRUE(redeclared.ok());
  EXPECT_FALSE(redeclared.value().profile.plan_cache_hit);
  Result<QueryResult> still_cached = session_.Execute("SELECT a FROM other");
  ASSERT_TRUE(still_cached.ok());
  EXPECT_TRUE(still_cached.value().profile.plan_cache_hit);
}

TEST_F(SessionTest, CursorPinsItsSnapshotAcrossDdl) {
  ScopedBatchRows batch_rows(2);
  Result<ResultCursor> cursor = session_.Query("SELECT * FROM supplies");
  ASSERT_TRUE(cursor.ok()) << cursor.error();
  Tuple first;
  ASSERT_TRUE(cursor.value().Next(&first));
  // Replace the table mid-stream: the cursor pinned its snapshot and keeps
  // streaming the data as of its open; the next statement sees the new data.
  ASSERT_TRUE(session_.CreateTable("supplies", Relation::Parse("s#, p#", "77,1")).ok());
  std::vector<Tuple> rows = {first};
  Tuple t;
  while (cursor.value().Next(&t)) rows.push_back(t);
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  EXPECT_EQ(Relation(cursor.value().schema(), rows), paper::SuppliesTable());
  Result<QueryResult> fresh = session_.Execute("SELECT * FROM supplies");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().rows, Relation::Parse("s#, p#", "77,1"));
}

TEST_F(SessionTest, CursorMidStreamErrorSetsStatusAndClosesDeterministically) {
  // Fault injection: the predicate divides by zero on the row a=3, after
  // two rows have already streamed out. The error must surface through
  // status() — never an exception — and the cursor must close for good.
  ASSERT_TRUE(session_.CreateTable("f", Relation::Parse("a, b", "1,10; 2,20; 3,30")).ok());
  ScopedBatchRows batch_rows(1);  // one row per batch: the failure is mid-stream
  Result<ResultCursor> cursor = session_.Query("SELECT a, b FROM f WHERE b / (a - 3) <= 0");
  ASSERT_TRUE(cursor.ok()) << cursor.error();
  EXPECT_TRUE(cursor.value().compile().compiled);

  Tuple t;
  size_t produced = 0;
  while (cursor.value().Next(&t)) ++produced;
  EXPECT_EQ(produced, 2u);  // a=1 and a=2 stream before the poison row
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("division by zero"), std::string::npos)
      << cursor.value().status().message();
  EXPECT_TRUE(cursor.value().done());
  // The cursor is closed: every further pull reports end of stream and the
  // first error sticks.
  EXPECT_FALSE(cursor.value().Next(&t));
  EXPECT_EQ(cursor.value().NextBatch(), nullptr);
  EXPECT_NE(cursor.value().status().message().find("division by zero"), std::string::npos);

  // Drain() on a failing cursor returns the rows before the failure and
  // reports the error through status().
  Result<ResultCursor> draining =
      session_.Query("SELECT a, b FROM f WHERE b / (a - 3) <= 0");
  ASSERT_TRUE(draining.ok());
  Relation partial = draining.value().Drain();
  EXPECT_EQ(partial.size(), 2u);
  EXPECT_FALSE(draining.value().status().ok());
}

TEST_F(SessionTest, SessionsOverOneDatabaseShareCacheAndSnapshots) {
  auto db = std::make_shared<Database>();
  Session first(db);
  Session second(db);
  ASSERT_TRUE(first.CreateTable("nums", Relation::Parse("a, b", "1,10; 2,20")).ok());
  // DDL from one session is visible to the other at its next statement.
  Result<QueryResult> seen = second.Execute("SELECT a FROM nums");
  ASSERT_TRUE(seen.ok()) << seen.error();
  EXPECT_FALSE(seen.value().profile.plan_cache_hit);
  // ... and the compiled plan is shared: the first session hits on it.
  Result<QueryResult> shared = first.Execute("SELECT a FROM nums");
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(shared.value().profile.plan_cache_hit);
  EXPECT_EQ(db->plan_cache_size(), 1u);
  EXPECT_EQ(db->version(), 1u);
}

TEST_F(SessionTest, PreparedStatementBindsParameters) {
  Result<PreparedStatement> prepared = session_.Prepare(
      "SELECT s# FROM supplies AS s DIVIDE BY ("
      "SELECT p# FROM parts WHERE color = ?) AS p ON s.p# = p.p#");
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  EXPECT_EQ(prepared.value().parameter_count(), 1u);

  Result<QueryResult> blue = prepared.value().Execute({Value::Str("blue")});
  ASSERT_TRUE(blue.ok()) << blue.error();
  EXPECT_EQ(blue.value().rows, paper::Q2Answer());
  EXPECT_TRUE(blue.value().compile.compiled);

  Result<QueryResult> red = prepared.value().Execute({Value::Str("red")});
  ASSERT_TRUE(red.ok()) << red.error();
  EXPECT_NE(red.value().rows, blue.value().rows);

  // Same binding again: served from the plan cache.
  Result<QueryResult> blue_again = prepared.value().Execute({Value::Str("blue")});
  ASSERT_TRUE(blue_again.ok());
  EXPECT_TRUE(blue_again.value().profile.plan_cache_hit);
}

TEST_F(SessionTest, ParameterCountMismatchIsAnError) {
  Result<PreparedStatement> prepared =
      session_.Prepare("SELECT s# FROM supplies WHERE p# = ?");
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared.value().Execute({}).ok());
  EXPECT_FALSE(prepared.value().Execute({V(1), V(2)}).ok());
  EXPECT_TRUE(prepared.value().Execute({V(1)}).ok());
}

TEST_F(SessionTest, UnboundParameterInExecuteIsAnError) {
  Result<QueryResult> result = session_.Execute("SELECT s# FROM supplies WHERE p# = ?");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().find("Prepare"), std::string::npos);
}

TEST_F(SessionTest, BadInputNeverThrows) {
  EXPECT_FALSE(session_.Execute("").ok());
  EXPECT_FALSE(session_.Execute("SELEKT 1").ok());
  EXPECT_FALSE(session_.Execute("SELECT FROM parts").ok());
  EXPECT_FALSE(session_.Execute("SELECT x FROM nosuch").ok());
  EXPECT_FALSE(session_.Execute("SELECT nosuchcol FROM parts").ok());
  EXPECT_FALSE(session_.Execute(
      "SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# < p.p#").ok());
  EXPECT_FALSE(session_.Query("SELECT (").ok());
  EXPECT_FALSE(session_.Prepare("EXPLAIN").ok());
}

TEST_F(SessionTest, IntegerOverflowIsATypedErrorOnBothPaths) {
  // The shape compiles (no oracle fallback) ...
  const std::string compiled = "SELECT s# FROM supplies WHERE s# + ";
  Result<QueryResult> fits = session_.Execute(compiled + "1 < 0");
  ASSERT_TRUE(fits.ok()) << fits.error();
  EXPECT_TRUE(fits.value().compile.compiled);
  // ... and its overflow is an error, not a wrapped value that selects
  // every row.
  Result<QueryResult> overflow = session_.Execute(compiled + "9223372036854775807 < 0");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kError);
  EXPECT_NE(overflow.error().find("integer overflow"), std::string::npos) << overflow.error();
  // A computed select item runs on the oracle and reports the same.
  Result<QueryResult> item = session_.Execute("SELECT s# * 9223372036854775807 AS x FROM supplies");
  ASSERT_FALSE(item.ok());
  EXPECT_EQ(item.status().code(), StatusCode::kError);
  EXPECT_NE(item.error().find("integer overflow"), std::string::npos) << item.error();
}

/// u(g, k, a): group 1 sums past int64 max; group 2 holds {max, 1, -1},
/// whose true sum fits although its prefix max + 1 (in k order, the scan
/// order) does not.
Relation SumOverflowTable() {
  const int64_t max = std::numeric_limits<int64_t>::max();
  return Relation::FromRows("g, k, a", {{V(1), V(1), V(max)},
                                        {V(1), V(2), V(1)},
                                        {V(2), V(1), V(max)},
                                        {V(2), V(2), V(1)},
                                        {V(2), V(3), V(-1)}});
}

TEST_F(SessionTest, IntegerSumOverflowIsATypedErrorAtEveryThreadCount) {
  ASSERT_TRUE(session_.CreateTable("u", SumOverflowTable()).ok());
  ScopedMorselRows morsels(1);  // grouping drains serially at every thread count
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ScopedExecThreads scoped(threads);
    for (const char* query : {"SELECT g, SUM(a) AS n FROM u GROUP BY g",
                              "SELECT g FROM u GROUP BY g HAVING SUM(a) < 0"}) {
      Result<QueryResult> result = session_.Execute(query);
      ASSERT_FALSE(result.ok()) << query << " at threads=" << threads;
      EXPECT_EQ(result.status().code(), StatusCode::kError);
      EXPECT_NE(result.error().find("integer overflow in SUM"), std::string::npos)
          << result.error();
    }
    Result<QueryResult> fits =
        session_.Execute("SELECT g, SUM(a) AS n FROM u WHERE g = 2 GROUP BY g");
    ASSERT_TRUE(fits.ok()) << fits.error();
    EXPECT_TRUE(fits.value().compile.compiled) << fits.value().compile.fallback_reason;
    EXPECT_EQ(fits.value().rows,
              Relation::FromRows("g, n", {{V(2), V(std::numeric_limits<int64_t>::max())}}))
        << "threads=" << threads;
  }
}

TEST_F(SessionTest, IntegerAvgPast2To53AgreesWithTheOracleAtEveryThreadCount) {
  // One group: 2^53 + 1, 1 and 254 zeros. A running double sum rounds the
  // 2^53 + 1 away (average 2^45); the exact sum 2^53 + 2 averages to
  // 2^45 + 2^-7, which a double holds exactly. AVG must divide the exact
  // sum on both paths.
  std::vector<Tuple> rows = {{V(1), V(1), V((int64_t{1} << 53) + 1)}, {V(1), V(2), V(1)}};
  for (int k = 3; k <= 256; ++k) rows.push_back({V(1), V(k), V(0)});
  ASSERT_TRUE(
      session_.CreateTable("w", Relation::FromRows(Schema::Parse("g, k, a"), rows)).ok());
  const char* query = "SELECT g, AVG(a) AS m FROM w GROUP BY g";
  Result<Relation> oracle = sql::ExecuteSql(query, session_.catalog());
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  EXPECT_EQ(oracle.value(), Relation::FromRows("g, m:real", {{V(1), V(35184372088832.0078125)}}));
  // One-row batches and morsels: the grouping drain stays serial at four
  // threads, one row per batch.
  ScopedBatchRows batches(1);
  ScopedMorselRows morsels(1);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ScopedExecThreads scoped(threads);
    Result<QueryResult> compiled = session_.Execute(query);
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    EXPECT_TRUE(compiled.value().compile.compiled) << compiled.value().compile.fallback_reason;
    EXPECT_EQ(compiled.value().rows, oracle.value()) << "threads=" << threads;
  }
}

TEST_F(SessionTest, ChainAtTheExpressionDepthLimitExecutes) {
  // kMaxExpressionDepth OR links and + links: one past either is a parse
  // error (ParserTest); at the limit the whole stack runs without a crash.
  std::string ors = "SELECT s# FROM supplies WHERE p# = 1";
  std::string sums = "SELECT s# FROM supplies WHERE p#";
  for (size_t i = 0; i < sql::kMaxExpressionDepth; ++i) {
    ors += " OR p# = 1";
    sums += " + 1";
  }
  sums += " > 1000";
  for (const std::string& query : {ors, sums}) {
    Result<QueryResult> result = session_.Execute(query);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(result.value().compile.compiled) << result.value().compile.fallback_reason;
    Result<Relation> oracle = sql::ExecuteSql(query, session_.catalog());
    ASSERT_TRUE(oracle.ok()) << oracle.error();
    EXPECT_EQ(result.value().rows, oracle.value());
  }
}

TEST_F(SessionTest, CursorRowGranularity) {
  Result<ResultCursor> cursor = session_.Query(kQ1);
  ASSERT_TRUE(cursor.ok()) << cursor.error();
  std::vector<Tuple> rows;
  Tuple t;
  while (cursor.value().Next(&t)) rows.push_back(t);
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  EXPECT_TRUE(cursor.value().done());
  EXPECT_EQ(Relation(cursor.value().schema(), rows), paper::Q1Answer());
}

TEST_F(SessionTest, CursorBatchGranularityAndMixedPulls) {
  ScopedBatchRows batch_rows(2);  // force several batches
  Result<ResultCursor> cursor = session_.Query("SELECT * FROM supplies");
  ASSERT_TRUE(cursor.ok()) << cursor.error();
  // One row first, then batches: no row is lost or duplicated.
  Tuple first;
  ASSERT_TRUE(cursor.value().Next(&first));
  std::vector<Tuple> rows = {first};
  while (const Batch* batch = cursor.value().NextBatch()) {
    for (size_t i = 0; i < batch->ActiveRows(); ++i) {
      Tuple t;
      batch->ToTuple(batch->RowAt(i), &t);
      rows.push_back(std::move(t));
    }
  }
  EXPECT_EQ(Relation(cursor.value().schema(), rows), paper::SuppliesTable());
}

TEST_F(SessionTest, CursorDrainMatchesExecute) {
  Result<QueryResult> executed = session_.Execute(kQ2);
  ASSERT_TRUE(executed.ok());
  Result<ResultCursor> cursor = session_.Query(kQ2);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor.value().Drain(), executed.value().rows);
}

TEST_F(SessionTest, CursorWorksOnOracleFallback) {
  Result<ResultCursor> cursor = session_.Query(kQ3);
  ASSERT_TRUE(cursor.ok()) << cursor.error();
  EXPECT_FALSE(cursor.value().compile().compiled);
  EXPECT_EQ(cursor.value().Drain(), paper::Q1Answer());
}

TEST_F(SessionTest, ExplainShowsAppliedLaws) {
  // σ over a great divide: Laws 14/15 push the selection through.
  std::string query = std::string(kQ1) + " WHERE color = 'red'";
  Result<QueryResult> result = session_.Execute("EXPLAIN " + query);
  ASSERT_TRUE(result.ok()) << result.error();
  std::string text = ExplainText(result.value().rows);
  EXPECT_NE(text.find("path: compiled"), std::string::npos) << text;
  EXPECT_NE(text.find("rewrites applied:"), std::string::npos) << text;
  EXPECT_NE(text.find("law"), std::string::npos) << text;
  EXPECT_NE(text.find("logical plan"), std::string::npos) << text;
  // EXPLAIN does not execute: no operator profile section.
  EXPECT_EQ(text.find("operator profile:"), std::string::npos) << text;
}

TEST_F(SessionTest, ExplainAnalyzeShowsTheFullCompileAndRunStory) {
  ScopedExecThreads threads(4);
  std::string query = std::string(kQ1) + " WHERE color = 'red'";
  ASSERT_TRUE(session_.Execute(query).ok());  // warm the cache
  Result<QueryResult> result = session_.Execute("EXPLAIN ANALYZE " + query);
  ASSERT_TRUE(result.ok()) << result.error();
  std::string text = ExplainText(result.value().rows);
  EXPECT_NE(text.find("plan cache: hit"), std::string::npos) << text;
  EXPECT_NE(text.find("law"), std::string::npos) << text;
  EXPECT_NE(text.find("dop="), std::string::npos) << text;
  EXPECT_NE(text.find("operator profile:"), std::string::npos) << text;
  EXPECT_NE(text.find("pipelines:"), std::string::npos) << text;
  EXPECT_GT(result.value().profile.rewrite_steps, 0u);
  EXPECT_TRUE(result.value().profile.plan_cache_hit);
}

TEST_F(SessionTest, ExplainAnalyzeOnFallbackNamesTheOracle) {
  Result<QueryResult> result = session_.Execute(std::string("EXPLAIN ANALYZE ") + kQ3);
  ASSERT_TRUE(result.ok()) << result.error();
  std::string text = ExplainText(result.value().rows);
  EXPECT_NE(text.find("oracle interpreter"), std::string::npos) << text;
  EXPECT_NE(text.find("fallback"), std::string::npos) << text;
}

TEST_F(SessionTest, CsvRoundTripThroughTheCatalog) {
  Status status = session_.LoadCsv("colors", "name:string,code:int\nblue,1\nred,2\n");
  ASSERT_TRUE(status.ok()) << status.message();
  Result<QueryResult> result = session_.Execute("SELECT name FROM colors WHERE code = 2");
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().rows, Relation::FromRows("name:string", {{V("red")}}));
}

TEST_F(SessionTest, LoadCsvRejectsNaN) {
  Status status = session_.LoadCsv("readings", "id:int,x:real\n1,0.5\n2,nan\n");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("NaN"), std::string::npos) << status.message();
  EXPECT_FALSE(session_.Execute("SELECT id FROM readings").ok());  // nothing was loaded
}

TEST_F(SessionTest, InsertRowsRejectsUnknownTableAndBadTypes) {
  EXPECT_FALSE(session_.InsertRows("nosuch", {{V(1)}}).ok());
  EXPECT_FALSE(session_.InsertRows("parts", {{V(1), V(2)}}).ok());  // color must be string
  EXPECT_FALSE(session_.CreateTable("bad", "a:int, a:int").ok());
}

TEST_F(SessionTest, DeclaredMetadataReachesTheRewriteRules) {
  // Law 12 needs a foreign key; just prove the declaration round-trips.
  ASSERT_TRUE(session_.DeclareKey("parts", {"p#"}).ok());
  ASSERT_TRUE(session_.DeclareForeignKey("supplies", {"p#"}, "parts").ok());
  EXPECT_TRUE(session_.catalog().ImpliesKey("parts", {"p#"}));
  EXPECT_TRUE(session_.catalog().HasForeignKey("supplies", {"p#"}, "parts"));
}

TEST_F(SessionTest, CompiledMatchesOracleAcrossThreadCounts) {
  for (size_t threads : {1u, 8u}) {
    ScopedExecThreads scoped(threads);
    Result<QueryResult> result = session_.Execute(kQ1);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(result.value().rows, paper::Q1Answer()) << "threads " << threads;
  }
}

TEST_F(SessionTest, GroupByHavingThroughTheCompiledPath) {
  Result<QueryResult> result = session_.Execute(
      "SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= 2");
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result.value().compile.compiled) << result.value().compile.fallback_reason;
  EXPECT_EQ(result.value().rows,
            Relation::FromRows("color:string, n:int", {{V("blue"), V(2)}, {V("red"), V(2)}}));
}

TEST_F(SessionTest, HavingOnlyAggregateCompiles) {
  // The HAVING aggregate does not appear in the select list; the lowering
  // adds a hidden agg$ column and projects it away.
  Result<QueryResult> result = session_.Execute(
      "SELECT color FROM parts GROUP BY color HAVING COUNT(p#) >= 2");
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result.value().compile.compiled) << result.value().compile.fallback_reason;
  EXPECT_EQ(result.value().rows,
            Relation::FromRows("color:string", {{V("blue")}, {V("red")}}));
}

TEST_F(SessionTest, InSubqueryCompilesToSemiJoin) {
  Result<QueryResult> result = session_.Execute(
      "SELECT DISTINCT s# FROM supplies WHERE p# IN ("
      "SELECT p# FROM parts WHERE color = 'blue')");
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result.value().compile.compiled) << result.value().compile.fallback_reason;
  EXPECT_NE(result.value().compile.lowered->ToString().find("SemiJoin"), std::string::npos);
  EXPECT_EQ(result.value().rows, Relation::Parse("s#", "1; 2; 4"));
}

TEST_F(SessionTest, CorrelatedExistsCompilesToSemiJoin) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t", Relation::Parse("a, b", "1,10; 2,20; 3,30")).ok());
  ASSERT_TRUE(session.CreateTable("u", Relation::Parse("a, c", "1,100; 3,300")).ok());
  Result<QueryResult> result = session.Execute(
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a)");
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result.value().compile.compiled) << result.value().compile.fallback_reason;
  EXPECT_NE(result.value().compile.lowered->ToString().find("SemiJoin"), std::string::npos);
  EXPECT_EQ(result.value().rows, Relation::Parse("a", "1; 3"));

  Result<QueryResult> anti = session.Execute(
      "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = t.a)");
  ASSERT_TRUE(anti.ok()) << anti.error();
  EXPECT_TRUE(anti.value().compile.compiled) << anti.value().compile.fallback_reason;
  EXPECT_NE(anti.value().compile.lowered->ToString().find("AntiJoin"), std::string::npos);
  EXPECT_EQ(anti.value().rows, Relation::Parse("a", "2"));
}

}  // namespace
}  // namespace quotient
