// Concurrent sessions over one shared Database (api/database.hpp): N
// threads × M sessions run the PR 4 SQL corpus — including Real-typed
// SUM/AVG, whose aggregate sink refuses the parallel merge — against the
// oracle interpreter's answers, while sharing catalog snapshots, the plan
// cache, and the process-wide worker pool. The suite name starts with
// "Session" so the ThreadSanitizer CI job (-R 'Parallel|Session') runs it.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "exec/pipeline.hpp"
#include "exec/scheduler.hpp"
#include "paper_fixtures.hpp"
#include "sql/interp.hpp"

namespace quotient {
namespace {

std::shared_ptr<Database> MakeSharedDatabase() {
  auto db = std::make_shared<Database>();
  EXPECT_TRUE(db->CreateTable("supplies", paper::SuppliesTable()).ok());
  EXPECT_TRUE(db->CreateTable("parts", paper::PartsTable()).ok());
  EXPECT_TRUE(db->CreateTable("t", Relation::Parse("a, b", "1,10; 2,20; 3,30")).ok());
  EXPECT_TRUE(db->CreateTable("u", Relation::Parse("a, c", "1,100; 3,300")).ok());
  // Real-typed measures: SUM/AVG over r refuse the parallel merge
  // (floating-point addition is not associative), forcing the serial drain
  // discipline inside otherwise-parallel execution.
  EXPECT_TRUE(db->CreateTable(
                    "m", Relation::Parse("g:int, r:real",
                                         "1,1.5; 2,2.25; 3,4.5; 4,0.25; 5,9.0; 6,0.125"))
                  .ok());
  return db;
}

/// The PR 4 differential corpus (tests/test_session_differential.cpp),
/// trimmed to one representative of each lowering shape, plus the
/// Real-typed aggregate and the agreed-error cases.
std::vector<std::string> Corpus() {
  return {
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#",
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
      "AS p ON s.p# = p.p#",
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE color = 'red'",
      // The paper's Q3: multi-level correlation, oracle fallback.
      "SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS ("
      "SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS ("
      "SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s#))",
      "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
      "color = 'blue')",
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a)",
      "SELECT a FROM t WHERE b / 10 = a * 1.0",
      "SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= 2",
      "SELECT COUNT(*) AS n, SUM(r) AS s, AVG(r) AS m FROM m",
      "SELECT g, SUM(r) AS s FROM m GROUP BY g",
      "SELECT * FROM supplies",
      // Errors must agree between sessions and the oracle, too.
      "SELECT x FROM nosuch",
      "SELECT nosuchcol FROM parts",
  };
}

using Expected = std::vector<std::pair<std::string, Result<Relation>>>;

Expected OracleAnswers(const Catalog& catalog) {
  Expected expected;
  for (const std::string& query : Corpus()) {
    expected.emplace_back(query, sql::ExecuteSql(query, catalog));
  }
  return expected;
}

void RunCorpus(const std::shared_ptr<Database>& db, const Expected& expected, int rounds) {
  Session session(db);
  for (int round = 0; round < rounds; ++round) {
    for (const auto& [query, oracle] : expected) {
      Result<QueryResult> got = session.Execute(query);
      EXPECT_EQ(got.ok(), oracle.ok())
          << query << "\nsession: " << (got.ok() ? "ok" : got.error());
      if (got.ok() && oracle.ok()) {
        EXPECT_EQ(got.value().rows, oracle.value()) << query;
      }
    }
  }
}

TEST(SessionConcurrent, DifferentialCorpusAcrossEightSessions) {
  ScopedExecThreads pool(4);              // one worker pool shared by all
  std::shared_ptr<Database> db = MakeSharedDatabase();
  Expected expected = OracleAnswers(db->snapshot()->catalog());

  constexpr size_t kSessions = 8;
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&] { RunCorpus(db, expected, /*rounds=*/2); });
  }
  for (std::thread& t : threads) t.join();
}

TEST(SessionConcurrent, SessionsShareCompiledPlans) {
  std::shared_ptr<Database> db = MakeSharedDatabase();
  Expected expected = OracleAnswers(db->snapshot()->catalog());

  // Warm the shared cache from one session; every statement compiles here.
  RunCorpus(db, expected, /*rounds=*/1);
  size_t compiles_after_warmup = db->plan_cache_stats().compiles;
  EXPECT_GE(compiles_after_warmup, Corpus().size());

  // Eight more sessions re-run the corpus concurrently: nothing recompiles.
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 8; ++i) {
    threads.emplace_back([&] { RunCorpus(db, expected, /*rounds=*/1); });
  }
  for (std::thread& t : threads) t.join();
  PlanCacheStats stats = db->plan_cache_stats();
  EXPECT_EQ(stats.compiles, compiles_after_warmup);
  EXPECT_GE(stats.hits, 8 * Corpus().size());
}

TEST(SessionConcurrent, DdlPublishesSnapshotsWhileReadersRun) {
  std::shared_ptr<Database> db = MakeSharedDatabase();
  const Relation parts_answer =
      sql::ExecuteSql("SELECT color, COUNT(p#) AS n FROM parts GROUP BY color",
                      db->snapshot()->catalog())
          .value();

  constexpr int kInserts = 40;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Session session(db);
    for (int i = 0; i < kInserts; ++i) {
      EXPECT_TRUE(session.InsertRows("t", {{V(100 + i), V(1000 + i)}}).ok());
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Session session(db);
      int rounds = 0;
      while (rounds++ < 5 || !done.load()) {
        // Table `parts` is untouched by the writer: its result is stable
        // and its cached plan must survive every DDL on `t`.
        Result<QueryResult> stable =
            session.Execute("SELECT color, COUNT(p#) AS n FROM parts GROUP BY color");
        ASSERT_TRUE(stable.ok()) << stable.error();
        EXPECT_EQ(stable.value().rows, parts_answer);
        // Table `t` grows monotonically; each statement pins one snapshot,
        // so the count is some consistent version between start and end.
        Result<QueryResult> counted = session.Execute("SELECT COUNT(*) AS n FROM t");
        ASSERT_TRUE(counted.ok()) << counted.error();
        int64_t n = counted.value().rows.tuples()[0][0].as_int();
        EXPECT_GE(n, 3);
        EXPECT_LE(n, 3 + kInserts);
        if (rounds > 200) break;  // safety valve
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // The parts plan was never invalidated by the storm of DDL on t.
  Session session(db);
  Result<QueryResult> warm =
      session.Execute("SELECT color, COUNT(p#) AS n FROM parts GROUP BY color");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().profile.plan_cache_hit);
}

TEST(SessionConcurrent, PreparedBindingStormAcrossSessions) {
  std::shared_ptr<Database> db = MakeSharedDatabase();
  const std::string sql = "SELECT s# FROM supplies WHERE p# = ?";
  const Catalog& catalog = db->snapshot()->catalog();
  std::vector<Relation> answers;
  for (int64_t p = 0; p < 8; ++p) {
    answers.push_back(
        sql::ExecuteSql("SELECT s# FROM supplies WHERE p# = " + std::to_string(p), catalog)
            .value());
  }

  // One compile, from whichever session gets there first.
  {
    Session warm(db);
    Result<PreparedStatement> prepared = warm.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.error();
    ASSERT_TRUE(prepared.value().Execute({V(1)}).ok());
  }
  size_t compiles_after_warmup = db->plan_cache_stats().compiles;

  std::vector<std::thread> threads;
  for (size_t i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      Session session(db);
      Result<PreparedStatement> prepared = session.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << prepared.error();
      for (int64_t round = 0; round < 64; ++round) {
        int64_t p = round % 8;
        Result<QueryResult> got = prepared.value().Execute({V(p)});
        ASSERT_TRUE(got.ok()) << got.error();
        EXPECT_TRUE(got.value().profile.plan_cache_hit);
        EXPECT_EQ(got.value().rows, answers[static_cast<size_t>(p)]) << "p# = " << p;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // 8 sessions × 64 distinct-binding executions later: still one compile.
  EXPECT_EQ(db->plan_cache_stats().compiles, compiles_after_warmup);
}

}  // namespace
}  // namespace quotient
