// Differential suite: every statement runs through Session (compiled onto
// the batched/parallel executor, threads {1, 8}) AND through the oracle
// interpreter (sql::ExecuteQueryOracle via ExecuteSql); results and
// error/ok status must agree exactly. Division queries additionally must
// compile (no oracle fallback) and, when a selection sits on the division,
// show Law rewrites in the trace.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/generator.hpp"
#include "api/session.hpp"
#include "exec/pipeline.hpp"
#include "exec/scheduler.hpp"
#include "paper_fixtures.hpp"
#include "sql/interp.hpp"

namespace quotient {
namespace {

/// Builds a Session whose catalog mirrors `catalog`.
Session MakeSession(const Catalog& catalog) {
  Session session;
  for (const std::string& name : catalog.Names()) {
    EXPECT_TRUE(session.CreateTable(name, catalog.Get(name)).ok());
  }
  return session;
}

/// Runs `query` on the oracle and through the Session at threads {1, 8};
/// asserts identical ok/error status and identical relations. Returns the
/// session's compile story (from the threads=1 run) for extra assertions.
CompileInfo ExpectSessionMatchesOracle(const Catalog& catalog, const std::string& query) {
  Result<Relation> oracle = sql::ExecuteSql(query, catalog);
  CompileInfo info;
  for (size_t threads : {1u, 8u}) {
    ScopedExecThreads scoped_threads(threads);
    Session session = MakeSession(catalog);
    Result<QueryResult> compiled = session.Execute(query);
    EXPECT_EQ(compiled.ok(), oracle.ok())
        << query << "\noracle: " << (oracle.ok() ? "ok" : oracle.error())
        << "\nsession: " << (compiled.ok() ? "ok" : compiled.error());
    if (oracle.ok() && compiled.ok()) {
      EXPECT_EQ(compiled.value().rows, oracle.value())
          << query << "\nthreads " << threads
          << (compiled.value().compile.compiled
                  ? "\n(compiled)"
                  : "\n(fallback: " + compiled.value().compile.fallback_reason + ")");
      if (threads == 1) info = compiled.value().compile;
    }
  }
  return info;
}

// ---------------------------------------------------------------------------
// The full fixed corpus: every query exercised by the SQL tests, plus the
// lowering's new territory (EXISTS/IN as semi-joins, HAVING-only
// aggregates, SELECT * naming).
// ---------------------------------------------------------------------------

TEST(SessionDifferential, SignedZeroGroupsAsOneValue) {
  // 0.0 and -0.0 compare equal, so they form one group on both paths.
  Catalog catalog;
  catalog.Put("r", Relation(Schema::Parse("a:real, b:int"),
                            {{V(0.0), V(1)}, {V(-0.0), V(2)}, {V(0.0), V(3)}}));
  const std::string query = "SELECT a, COUNT(b) AS n FROM r GROUP BY a";
  Result<Relation> oracle = sql::ExecuteSql(query, catalog);
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  ASSERT_EQ(oracle.value().size(), 1u);
  EXPECT_EQ(oracle.value().tuples()[0][1], V(3));
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    Session session = MakeSession(catalog);
    Result<QueryResult> compiled = session.Execute(query);
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    EXPECT_TRUE(compiled.value().compile.compiled);
    EXPECT_EQ(compiled.value().rows, oracle.value());
  }
}

TEST(SessionDifferential, PaperCorpus) {
  Catalog catalog;
  catalog.Put("supplies", paper::SuppliesTable());
  catalog.Put("parts", paper::PartsTable());
  const char* queries[] = {
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#",
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
      "AS p ON s.p# = p.p#",
      "SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS ("
      "SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS ("
      "SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s#))",
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE color = 'red'",
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
      "AS p ON s.p# = p.p# WHERE s# > 1",
      "SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= 2",
      "SELECT color FROM parts GROUP BY color HAVING COUNT(p#) >= 2",
      "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
      "color = 'blue')",
      "SELECT DISTINCT s# FROM supplies WHERE p# NOT IN (SELECT p# FROM parts WHERE "
      "color = 'blue')",
      "SELECT * FROM supplies",
      "SELECT * FROM supplies AS s, parts AS p",
      "SELECT s.s#, p.color FROM supplies AS s, parts AS p WHERE s.p# = p.p#",
      "SELECT COUNT(*) AS n, MIN(p#) AS lo, MAX(p#) AS hi FROM supplies",
      "SELECT COUNT(*) AS n FROM supplies WHERE s# > 99",  // empty input, global agg
      // Errors must agree too.
      "SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# < p.p#",
      "SELECT x FROM nosuch",
      "SELECT nosuchcol FROM parts",
      "SELECT a FROM supplies, parts",  // no such bare column anywhere
  };
  for (const char* query : queries) ExpectSessionMatchesOracle(catalog, query);
}

TEST(SessionDifferential, InterpCorpus) {
  Catalog catalog;
  catalog.Put("t", Relation::Parse("a, b", "1,10; 2,20; 3,30"));
  catalog.Put("u", Relation::Parse("a, c", "1,100; 3,300"));
  catalog.Put("r1", Relation::Parse("a, b", "1,1; 1,2; 2,1"));
  catalog.Put("r2", Relation::Parse("b", "1; 2"));
  catalog.Put("dups", Relation::Parse("a, b", "1,1; 1,2"));
  catalog.Put("empty", Relation(Schema::Parse("b")));
  const char* queries[] = {
      "SELECT * FROM t",
      "SELECT * FROM t, u",
      "SELECT a FROM t, u",  // ambiguous: both error
      "SELECT t.a, u.a AS ua FROM t, u WHERE t.a = u.a",
      "SELECT a FROM t WHERE b / 10 = a * 1.0",      // computed WHERE compiles
      "SELECT a + 1 AS next FROM t WHERE a = 1",     // computed item: oracle fallback
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a)",
      "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = t.a)",
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a AND u.c > 150)",
      "SELECT q.a FROM (SELECT a FROM t WHERE b >= 20) AS q WHERE q.a < 3",
      "SELECT COUNT(*) AS n, SUM(b) AS s, MIN(a) AS lo, MAX(a) AS hi, AVG(b) AS m FROM t",
      "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b",
      "SELECT a FROM r1 DIVIDE BY empty ON r1.b = empty.b",
      "SELECT a FROM dups",
      "SELECT a FROM t WHERE a IN (SELECT a, b FROM t)",  // both error
      "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE c > 150)",
      "SELECT a FROM t WHERE a NOT IN (SELECT a FROM u)",
      "SELECT b, COUNT(a) AS n FROM r1 GROUP BY b",
      "SELECT a, b FROM t WHERE a = 2 OR b = 30",
  };
  for (const char* query : queries) ExpectSessionMatchesOracle(catalog, query);
}

// ---------------------------------------------------------------------------
// Division queries must compile (never fall back) and, with a selection on
// the division, must show Law rewrites in the trace — the acceptance
// criterion that DIVIDE BY through the Session reaches the rewrite engine.
// ---------------------------------------------------------------------------

TEST(SessionDifferential, DivisionQueriesCompileAndRewrite) {
  Catalog catalog;
  catalog.Put("supplies", paper::SuppliesTable());
  catalog.Put("parts", paper::PartsTable());

  CompileInfo plain = ExpectSessionMatchesOracle(
      catalog, "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#");
  EXPECT_TRUE(plain.compiled) << plain.fallback_reason;
  EXPECT_NE(plain.lowered->ToString().find("GreatDivide"), std::string::npos);

  // σ on the divisor-group attribute: Law 15 (or 14) must fire.
  CompileInfo filtered = ExpectSessionMatchesOracle(
      catalog,
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE color = 'red'");
  EXPECT_TRUE(filtered.compiled) << filtered.fallback_reason;
  ASSERT_FALSE(filtered.rewrites.empty());
  bool saw_law = false;
  for (const RewriteStep& step : filtered.rewrites) {
    if (step.rule.find("law") == 0) saw_law = true;
  }
  EXPECT_TRUE(saw_law) << "no Law rewrite in the trace";

  // σ on the quotient attribute of a small divide: Law 3.
  CompileInfo small = ExpectSessionMatchesOracle(
      catalog,
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE "
      "color = 'blue') AS p ON s.p# = p.p# WHERE s# > 1");
  EXPECT_TRUE(small.compiled) << small.fallback_reason;
  ASSERT_FALSE(small.rewrites.empty());
  EXPECT_EQ(small.rewrites[0].rule.find("law"), 0u) << small.rewrites[0].rule;
}

// ---------------------------------------------------------------------------
// Randomized: generated databases × generated statements, so the lowering's
// equivalence with the oracle does not depend on the fixtures.
// ---------------------------------------------------------------------------

TEST(SessionDifferential, RandomizedDatabasesAndQueries) {
  DataGen gen(4242);
  for (int round = 0; round < 8; ++round) {
    Catalog catalog;
    std::vector<Tuple> supplies;
    for (int64_t s = 1; s <= 5; ++s) {
      for (int64_t p = 1; p <= 6; ++p) {
        if (gen.Chance(0.45)) supplies.push_back({V(s), V(p)});
      }
    }
    if (supplies.empty()) supplies.push_back({V(1), V(1)});
    std::vector<Tuple> parts;
    for (int64_t p = 1; p <= 6; ++p) {
      parts.push_back({V(p), gen.Chance(0.5) ? V("blue") : V("red")});
    }
    catalog.Put("supplies", Relation(Schema::Parse("s#, p#"), supplies));
    catalog.Put("parts", Relation(Schema::Parse("p#:int, color:string"), parts));

    int64_t cut = gen.UniformInt(0, 6);
    std::string color = gen.Chance(0.5) ? "blue" : "red";
    std::string queries[] = {
        "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#",
        "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = '" +
            color + "') AS p ON s.p# = p.p#",
        "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
        "WHERE color = '" + color + "'",
        "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
        "WHERE s# > " + std::to_string(cut),
        "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
        "color = '" + color + "')",
        "SELECT DISTINCT s# FROM supplies WHERE p# NOT IN (SELECT p# FROM parts WHERE "
        "color = '" + color + "')",
        "SELECT DISTINCT s1.s# FROM supplies AS s1 WHERE EXISTS ("
        "SELECT * FROM supplies AS s2 WHERE s2.p# = s1.p# AND s2.s# > " +
            std::to_string(cut) + ")",
        "SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= " +
            std::to_string(gen.UniformInt(1, 4)),
        "SELECT s.s#, p.color FROM supplies AS s, parts AS p WHERE s.p# = p.p# AND "
        "s.s# <= " + std::to_string(cut),
        // The paper's Q3 (oracle fallback) against the same random data.
        "SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS ("
        "SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS ("
        "SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s#))",
    };
    for (const std::string& query : queries) {
      ExpectSessionMatchesOracle(catalog, query);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// The compiled path must agree with itself through a warm plan cache and
// across prepared-statement bindings.
// ---------------------------------------------------------------------------

TEST(SessionDifferential, PlanCacheAndPreparedBindingsStayConsistent) {
  Catalog catalog;
  catalog.Put("supplies", paper::SuppliesTable());
  catalog.Put("parts", paper::PartsTable());
  Session session = MakeSession(catalog);
  Result<PreparedStatement> prepared = session.Prepare(
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = ?) "
      "AS p ON s.p# = p.p#");
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  for (const char* color : {"blue", "red", "blue", "green", "red"}) {
    std::string literal = std::string("'") + color + "'";
    Result<Relation> oracle = sql::ExecuteSql(
        "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = " +
            literal + ") AS p ON s.p# = p.p#",
        catalog);
    Result<QueryResult> bound = prepared.value().Execute({Value::Str(color)});
    ASSERT_EQ(bound.ok(), oracle.ok());
    if (oracle.ok()) EXPECT_EQ(bound.value().rows, oracle.value()) << color;
  }
}

}  // namespace
}  // namespace quotient
