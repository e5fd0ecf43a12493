// Multi-statement transaction tests (docs/transactions.md): BEGIN/COMMIT/
// ROLLBACK through SQL and the Session API, snapshot-pinned reads with
// read-your-own-writes overlays, first-committer-wins validation (including
// the multi-session contention acceptance scenario run at 1 and 8 threads),
// fault injection at the commit sites, DML autocommit, and the ORDER BY /
// LIMIT result shaping that rides the same statement layer.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algebra/generator.hpp"
#include "api/database.hpp"
#include "api/session.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "util/status.hpp"

namespace quotient {
namespace {

Value V(int64_t v) { return Value::Int(v); }

constexpr const char* kDivideSql =
    "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";

/// Disarms an injector on scope exit, so a failing assertion can't leak an
/// armed site into later tests.
struct ScopedDisarm {
  explicit ScopedDisarm(FaultInjector* injector) : injector_(injector) {}
  ~ScopedDisarm() { injector_->Disarm(); }
  FaultInjector* injector_;
};

/// A shared database with table t(a) = {1,2,3}.
std::shared_ptr<Database> MakeDb() {
  auto db = std::make_shared<Database>();
  Session setup(db);
  EXPECT_TRUE(setup.CreateTable("t", Relation::Parse("a", "1; 2; 3")).ok());
  return db;
}

// ---------------------------------------------------------------------------
// TxnBasics: statement plumbing, lifecycle errors, read-your-own-writes.
// ---------------------------------------------------------------------------

TEST(TxnBasicsTest, SqlControlStatementsAcknowledge) {
  Session session(MakeDb());
  Result<QueryResult> begin = session.Execute("BEGIN");
  ASSERT_TRUE(begin.ok()) << begin.error();
  EXPECT_EQ(begin.value().rows, Relation::FromRows("status:string", {{Value::Str("BEGIN")}}));
  EXPECT_TRUE(session.in_transaction());

  Result<QueryResult> commit = session.Execute("COMMIT");
  ASSERT_TRUE(commit.ok()) << commit.error();
  EXPECT_EQ(commit.value().rows,
            Relation::FromRows("status:string", {{Value::Str("COMMIT")}}));
  EXPECT_FALSE(session.in_transaction());

  // The noise words parse too, and a read-only transaction always commits.
  ASSERT_TRUE(session.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(session.Execute("SELECT a FROM t").ok());
  ASSERT_TRUE(session.Execute("COMMIT WORK").ok());

  ASSERT_TRUE(session.Execute("begin work").ok());
  Result<QueryResult> rollback = session.Execute("ROLLBACK");
  ASSERT_TRUE(rollback.ok()) << rollback.error();
  EXPECT_EQ(rollback.value().rows,
            Relation::FromRows("status:string", {{Value::Str("ROLLBACK")}}));
}

TEST(TxnBasicsTest, LifecycleErrors) {
  Session session(MakeDb());
  EXPECT_FALSE(session.Execute("COMMIT").ok());
  EXPECT_FALSE(session.Execute("ROLLBACK").ok());
  EXPECT_FALSE(session.Commit().ok());
  EXPECT_FALSE(session.Rollback().ok());

  ASSERT_TRUE(session.Begin().ok());
  Result<QueryResult> nested = session.Execute("BEGIN");
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.error().find("already in a transaction"), std::string::npos);
  ASSERT_TRUE(session.Rollback().ok());
}

TEST(TxnBasicsTest, ReadYourOwnWritesInvisibleToOthersUntilCommit) {
  auto db = MakeDb();
  Session writer(db);
  Session other(db);

  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  Result<QueryResult> insert = writer.Execute("INSERT INTO t VALUES (10), (11)");
  ASSERT_TRUE(insert.ok()) << insert.error();
  EXPECT_EQ(insert.value().rows, Relation::FromRows("rows_affected:int", {{V(2)}}));

  // The writer reads through its overlay; the other session reads committed
  // state only.
  Result<QueryResult> mine = writer.Execute("SELECT a FROM t");
  ASSERT_TRUE(mine.ok()) << mine.error();
  EXPECT_EQ(mine.value().rows, Relation::Parse("a", "1; 2; 3; 10; 11"));
  Result<QueryResult> theirs = other.Execute("SELECT a FROM t");
  ASSERT_TRUE(theirs.ok()) << theirs.error();
  EXPECT_EQ(theirs.value().rows, Relation::Parse("a", "1; 2; 3"));

  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  theirs = other.Execute("SELECT a FROM t");
  ASSERT_TRUE(theirs.ok()) << theirs.error();
  EXPECT_EQ(theirs.value().rows, Relation::Parse("a", "1; 2; 3; 10; 11"));
}

TEST(TxnBasicsTest, RollbackDiscardsBufferedWrites) {
  Session session(MakeDb());
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (42)").ok());
  ASSERT_TRUE(session.Execute("DELETE FROM t WHERE a = 1").ok());
  ASSERT_TRUE(session.Execute("ROLLBACK").ok());
  Result<QueryResult> after = session.Execute("SELECT a FROM t");
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(after.value().rows, Relation::Parse("a", "1; 2; 3"));
}

TEST(TxnBasicsTest, DdlAndPrepareAreRejectedInsideOrForTransactions) {
  Session session(MakeDb());
  ASSERT_TRUE(session.Begin().ok());
  Status ddl = session.CreateTable("u", "x:int");
  ASSERT_FALSE(ddl.ok());
  EXPECT_NE(ddl.message().find("DDL is not allowed inside a transaction"), std::string::npos);
  EXPECT_FALSE(session.LoadCsv("u", "x\n1\n").ok());
  EXPECT_FALSE(session.DeclareKey("t", {"a"}).ok());

  // InsertRows routes into the transaction instead of erroring.
  ASSERT_TRUE(session.InsertRows("t", {{V(50)}}).ok());
  Result<QueryResult> mine = session.Execute("SELECT a FROM t");
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine.value().rows.size(), 4u);
  ASSERT_TRUE(session.Rollback().ok());
  EXPECT_EQ(session.Execute("SELECT a FROM t").value().rows.size(), 3u);

  EXPECT_FALSE(session.Prepare("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(session.Prepare("BEGIN").ok());
  Result<QueryResult> explain = session.Execute("EXPLAIN INSERT INTO t VALUES (1)");
  ASSERT_FALSE(explain.ok());
  EXPECT_NE(explain.error().find("EXPLAIN supports SELECT"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TxnDml: INSERT / DELETE semantics, in and out of transactions.
// ---------------------------------------------------------------------------

TEST(TxnDmlTest, AutocommitInsertAndDelete) {
  Session session(MakeDb());
  Result<QueryResult> insert = session.Execute("INSERT INTO t VALUES (4), (5)");
  ASSERT_TRUE(insert.ok()) << insert.error();
  EXPECT_EQ(insert.value().rows, Relation::FromRows("rows_affected:int", {{V(2)}}));

  // Set semantics: re-inserting existing rows adds nothing.
  insert = session.Execute("INSERT INTO t VALUES (4)");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert.value().rows, Relation::FromRows("rows_affected:int", {{V(0)}}));

  Result<QueryResult> del = session.Execute("DELETE FROM t WHERE a > 3");
  ASSERT_TRUE(del.ok()) << del.error();
  EXPECT_EQ(del.value().rows, Relation::FromRows("rows_affected:int", {{V(2)}}));
  EXPECT_EQ(session.Execute("SELECT a FROM t").value().rows, Relation::Parse("a", "1; 2; 3"));

  del = session.Execute("DELETE FROM t");  // unconditional: empties the table
  ASSERT_TRUE(del.ok()) << del.error();
  EXPECT_EQ(del.value().rows, Relation::FromRows("rows_affected:int", {{V(3)}}));
  EXPECT_EQ(session.Execute("SELECT a FROM t").value().rows.size(), 0u);

  // Another session observes the committed autocommit writes.
  Session other(session.database());
  EXPECT_EQ(other.Execute("SELECT a FROM t").value().rows.size(), 0u);
}

TEST(TxnDmlTest, InsertValidatesArityAndTypes) {
  Session session;
  ASSERT_TRUE(session.CreateTable("p", "a:int, name:string").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO p VALUES (1, 'red')").ok());

  Result<QueryResult> bad = session.Execute("INSERT INTO p VALUES (1)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("has 1 value(s)"), std::string::npos);

  bad = session.Execute("INSERT INTO p VALUES ('red', 1)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("expected int"), std::string::npos);

  bad = session.Execute("INSERT INTO nope VALUES (1)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("unknown table 'nope'"), std::string::npos);

  bad = session.Execute("DELETE FROM nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("unknown table 'nope'"), std::string::npos);

  // Ints coerce into real columns.
  ASSERT_TRUE(session.CreateTable("r", "x:real").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO r VALUES (2)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO r VALUES (-1.5)").ok());
  EXPECT_EQ(session.Execute("SELECT x FROM r").value().rows.size(), 2u);
}

TEST(TxnDmlTest, DeleteInsideTransactionSeesOwnInserts) {
  Session session(MakeDb());
  ASSERT_TRUE(session.Begin().ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (7), (8)").ok());
  Result<QueryResult> del = session.Execute("DELETE FROM t WHERE a >= 7");
  ASSERT_TRUE(del.ok()) << del.error();
  // The overlay rows it just wrote are deletable — read-your-own-writes.
  EXPECT_EQ(del.value().rows, Relation::FromRows("rows_affected:int", {{V(2)}}));
  ASSERT_TRUE(session.Commit().ok());
  EXPECT_EQ(session.Execute("SELECT a FROM t").value().rows, Relation::Parse("a", "1; 2; 3"));
}

// ---------------------------------------------------------------------------
// TxnIsolation: snapshot pinning across concurrent commits.
// ---------------------------------------------------------------------------

TEST(TxnIsolationTest, StatementsPinTheBeginSnapshot) {
  auto db = MakeDb();
  Session reader(db);
  Session writer(db);

  ASSERT_TRUE(reader.Execute("BEGIN").ok());
  EXPECT_EQ(reader.Execute("SELECT a FROM t").value().rows.size(), 3u);

  ASSERT_TRUE(writer.Execute("INSERT INTO t VALUES (100)").ok());

  // Still the BEGIN-time view, even after the other session's commit.
  EXPECT_EQ(reader.Execute("SELECT a FROM t").value().rows.size(), 3u);
  ASSERT_TRUE(reader.Execute("COMMIT").ok());  // read-only: always succeeds
  EXPECT_EQ(reader.Execute("SELECT a FROM t").value().rows.size(), 4u);
}

TEST(TxnIsolationTest, CursorPinsItsSnapshotAcrossAConcurrentCommit) {
  ScopedBatchRows batches(1);  // stream row-at-a-time so the commit interleaves
  auto db = MakeDb();
  Session reader(db);
  Session writer(db);

  Result<ResultCursor> opened = reader.Query("SELECT a FROM t");
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();
  Tuple row;
  ASSERT_TRUE(cursor.Next(&row));  // the stream is live

  // A whole transaction commits into t mid-stream.
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO t VALUES (100), (101)").ok());
  ASSERT_TRUE(writer.Execute("COMMIT").ok());

  // The cursor still streams the data as of its open: exactly the 3 old
  // rows, no torn reads, no new rows.
  std::vector<Tuple> rest;
  while (cursor.Next(&row)) rest.push_back(row);
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().message();
  EXPECT_EQ(rest.size(), 2u);

  // A fresh statement sees the committed state.
  EXPECT_EQ(reader.Execute("SELECT a FROM t").value().rows.size(), 5u);
}

/// A shared database with table w(k, v): k in 1..20, v in {0, 1}.
std::shared_ptr<Database> MakeWindowDb() {
  auto db = std::make_shared<Database>();
  Session setup(db);
  std::vector<Tuple> rows;
  for (int64_t k = 1; k <= 20; ++k) {
    for (int64_t v = 0; v <= 1; ++v) rows.push_back({V(k), V(v)});
  }
  EXPECT_TRUE(setup.CreateTable("w", Relation(Schema::Parse("k:int, v:int"), rows)).ok());
  return db;
}

/// The rows of w(k, v) with lo <= k < hi in `table`.
Relation Window(const Relation& table, int64_t lo, int64_t hi) {
  std::vector<Tuple> rows;
  for (const Tuple& row : table.tuples()) {
    if (row[0].as_int() >= lo && row[0].as_int() < hi) rows.push_back(row);
  }
  return Relation(table.schema(), std::move(rows));
}

constexpr const char* kWindowSql = "SELECT k, v FROM w WHERE k >= 3 AND k < 10";

TEST(TxnRangeScanTest, WindowedReadInsideATransactionSeesItsOwnWrites) {
  auto db = MakeWindowDb();
  Session session(db);
  Session other(db);
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  // Inserts inside, below and above the window; a delete inside it.
  ASSERT_TRUE(session.Execute("INSERT INTO w VALUES (5, 7), (0, 7), (25, 7), (9, 7)").ok());
  ASSERT_TRUE(session.Execute("DELETE FROM w WHERE k = 6").ok());
  const Relation& overlay = session.catalog().Get("w");
  ASSERT_EQ(overlay.size(), 40u + 4u - 2u);
  Result<QueryResult> windowed = session.Execute(kWindowSql);
  ASSERT_TRUE(windowed.ok()) << windowed.error();
  EXPECT_EQ(windowed.value().rows, Window(overlay, 3, 10));
  EXPECT_TRUE(windowed.value().rows.Contains({V(5), V(7)}));
  EXPECT_TRUE(windowed.value().rows.Contains({V(9), V(7)}));
  EXPECT_FALSE(windowed.value().rows.Contains({V(6), V(0)}));
  EXPECT_EQ(windowed.value().rows.size(), 7u * 2u - 2u + 2u);
  EXPECT_NE(windowed.value().profile.explain.find("RangeScan"), std::string::npos)
      << windowed.value().profile.explain;

  // Another session's windowed read sees none of it until the commit.
  Result<QueryResult> before = other.Execute(kWindowSql);
  ASSERT_TRUE(before.ok()) << before.error();
  EXPECT_EQ(before.value().rows.size(), 14u);
  ASSERT_TRUE(session.Execute("COMMIT").ok());
  Result<QueryResult> after = other.Execute(kWindowSql);
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(after.value().rows, windowed.value().rows);
}

TEST(TxnRangeScanTest, WindowedCursorKeepsItsPinnedSnapshotAcrossACommit) {
  ScopedBatchRows batches(1);  // stream row-at-a-time so the commit interleaves
  auto db = MakeWindowDb();
  Session reader(db);
  Session writer(db);
  const Relation expected = Window(reader.catalog().Get("w"), 3, 10);

  Result<ResultCursor> opened = reader.Query(kWindowSql);
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();
  std::vector<Tuple> rows(1);
  ASSERT_TRUE(cursor.Next(&rows[0]));

  // The commit shifts every storage position of the window in the newer
  // relation: rows land below, inside and above it, and one leaves it.
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO w VALUES (0, 5), (2, 5), (4, 5), (40, 5)").ok());
  ASSERT_TRUE(writer.Execute("DELETE FROM w WHERE k = 1 OR k = 8").ok());
  ASSERT_TRUE(writer.Execute("COMMIT").ok());

  // The span indexes the cursor's pinned relation, not the newer one.
  Tuple row;
  while (cursor.Next(&row)) rows.push_back(row);
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().message();
  EXPECT_EQ(Relation(expected.schema(), rows), expected);
  EXPECT_EQ(rows.size(), expected.size());
  EXPECT_NE(cursor.Profile().explain.find("RangeScan"), std::string::npos)
      << cursor.Profile().explain;

  // A fresh statement reads the committed window.
  Result<QueryResult> fresh = reader.Execute(kWindowSql);
  ASSERT_TRUE(fresh.ok()) << fresh.error();
  EXPECT_EQ(fresh.value().rows, Window(reader.catalog().Get("w"), 3, 10));
  EXPECT_TRUE(fresh.value().rows.Contains({V(4), V(5)}));
  EXPECT_FALSE(fresh.value().rows.Contains({V(8), V(0)}));
}

TEST(TxnIsolationTest, FirstCommitterWinsSecondGetsConflict) {
  auto db = MakeDb();
  Session a(db);
  Session b(db);

  ASSERT_TRUE(a.Execute("BEGIN").ok());
  ASSERT_TRUE(b.Execute("BEGIN").ok());
  ASSERT_TRUE(a.Execute("INSERT INTO t VALUES (10)").ok());
  ASSERT_TRUE(b.Execute("INSERT INTO t VALUES (20)").ok());

  ASSERT_TRUE(a.Execute("COMMIT").ok());  // first committer wins
  Result<QueryResult> lost = b.Execute("COMMIT");
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kConflict);
  EXPECT_NE(lost.error().find("write-write conflict on table 't'"), std::string::npos);
  EXPECT_FALSE(b.in_transaction());  // the failed commit rolled back cleanly

  // The loser's retry converges: re-read, re-apply, commit.
  ASSERT_TRUE(b.Execute("BEGIN").ok());
  ASSERT_TRUE(b.Execute("INSERT INTO t VALUES (20)").ok());
  ASSERT_TRUE(b.Execute("COMMIT").ok());
  EXPECT_EQ(b.Execute("SELECT a FROM t").value().rows,
            Relation::Parse("a", "1; 2; 3; 10; 20"));

  TransactionStats stats = db->transaction_stats();
  EXPECT_EQ(stats.conflicts, 1u);
}

TEST(TxnIsolationTest, DdlOnAWrittenTableConflictsTheCommit) {
  auto db = MakeDb();
  Session txn(db);
  Session ddl(db);

  ASSERT_TRUE(txn.Execute("BEGIN").ok());
  ASSERT_TRUE(txn.Execute("INSERT INTO t VALUES (10)").ok());
  // DDL replaces t wholesale — the transaction's base version is gone.
  ASSERT_TRUE(ddl.CreateTable("t", Relation::Parse("a", "7")).ok());

  Result<QueryResult> lost = txn.Execute("COMMIT");
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kConflict);
  EXPECT_EQ(txn.Execute("SELECT a FROM t").value().rows, Relation::Parse("a", "7"));
}

TEST(TxnIsolationTest, DisjointWriteSetsBothCommit) {
  auto db = std::make_shared<Database>();
  Session setup(db);
  ASSERT_TRUE(setup.CreateTable("t1", Relation::Parse("a", "1")).ok());
  ASSERT_TRUE(setup.CreateTable("t2", Relation::Parse("a", "1")).ok());

  Session a(db);
  Session b(db);
  ASSERT_TRUE(a.Execute("BEGIN").ok());
  ASSERT_TRUE(b.Execute("BEGIN").ok());
  ASSERT_TRUE(a.Execute("INSERT INTO t1 VALUES (2)").ok());
  ASSERT_TRUE(b.Execute("INSERT INTO t2 VALUES (2)").ok());
  EXPECT_TRUE(a.Execute("COMMIT").ok());
  EXPECT_TRUE(b.Execute("COMMIT").ok());  // no overlap, no conflict
  EXPECT_EQ(setup.Execute("SELECT a FROM t1").value().rows.size(), 2u);
  EXPECT_EQ(setup.Execute("SELECT a FROM t2").value().rows.size(), 2u);
}

// ---------------------------------------------------------------------------
// TxnConflict: the multi-session contention acceptance scenario. N writer
// sessions run BEGIN → read → INSERT → COMMIT rounds with retry-on-conflict
// while reader sessions stream DIVIDE BY results from pinned snapshots. The
// whole scenario runs at 1 and at 8 execution threads and must land in the
// same final state: the serial union of every writer's rows.
// ---------------------------------------------------------------------------

struct ScenarioOutcome {
  Relation final_table{Schema::Parse("w:int, v:int")};
  Relation divide_result{Schema::Parse("a:int")};
  size_t reader_iterations = 0;
  std::vector<std::string> errors;
  uint64_t begun = 0, committed = 0, conflicts = 0;
  uint64_t versions_published = 0;
};

ScenarioOutcome RunConflictScenario(size_t writer_count, size_t rounds) {
  ScenarioOutcome out;
  auto db = std::make_shared<Database>();
  Session setup(db);
  EXPECT_TRUE(setup.CreateTable("t", "w:int, v:int").ok());
  DataGen gen(7);
  Relation divisor = gen.Divisor(8, /*domain=*/64);
  Relation dividend =
      gen.DividendWithHits(64, 9, divisor, /*domain=*/64, /*density=*/0.5);
  EXPECT_TRUE(setup.CreateTable("r1", std::move(dividend)).ok());
  EXPECT_TRUE(setup.CreateTable("r2", std::move(divisor)).ok());
  const uint64_t version_base = db->version();
  Result<QueryResult> expected = setup.Execute(kDivideSql);
  EXPECT_TRUE(expected.ok()) << expected.error();
  out.divide_result = expected.value().rows;

  std::mutex error_mutex;
  auto report = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(error_mutex);
    out.errors.push_back(message);
  };

  std::atomic<bool> stop{false};
  std::atomic<size_t> reader_iterations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Session session(db);
      while (!stop.load(std::memory_order_relaxed)) {
        Result<QueryResult> result = session.Execute(kDivideSql);
        if (!result.ok()) {
          report("reader failed: " + result.error());
          return;
        }
        if (result.value().rows != out.divide_result) {
          report("reader saw a different divide result");
          return;
        }
        reader_iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (size_t w = 0; w < writer_count; ++w) {
    writers.emplace_back([&, w] {
      Session session(db);
      for (size_t k = 0; k < rounds; ++k) {
        bool committed = false;
        for (int attempt = 0; attempt < 200 && !committed; ++attempt) {
          Result<QueryResult> begin = session.Execute("BEGIN");
          if (!begin.ok()) {
            report("BEGIN failed: " + begin.error());
            return;
          }
          // Read inside the transaction (pins the BEGIN snapshot).
          Result<QueryResult> read = session.Execute("SELECT w FROM t");
          if (!read.ok()) {
            report("in-txn read failed: " + read.error());
            return;
          }
          std::string insert = "INSERT INTO t VALUES (" + std::to_string(w) + ", " +
                               std::to_string(k) + ")";
          Result<QueryResult> written = session.Execute(insert);
          if (!written.ok()) {
            report("INSERT failed: " + written.error());
            return;
          }
          Result<QueryResult> commit = session.Execute("COMMIT");
          if (commit.ok()) {
            committed = true;
          } else if (commit.status().code() != StatusCode::kConflict) {
            report("COMMIT failed with non-conflict: " + commit.error());
            return;
          }
          // kConflict: first committer won this round; re-run the whole
          // transaction against a fresh snapshot.
        }
        if (!committed) {
          report("writer retry loop did not converge");
          return;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  Result<QueryResult> final_rows = setup.Execute("SELECT w, v FROM t");
  EXPECT_TRUE(final_rows.ok()) << final_rows.error();
  out.final_table = final_rows.value().rows;
  out.reader_iterations = reader_iterations.load();
  TransactionStats stats = db->transaction_stats();
  out.begun = stats.begun;
  out.committed = stats.committed;
  out.conflicts = stats.conflicts;
  out.versions_published = db->version() - version_base;
  return out;
}

TEST(TxnConflictTest, ContendedCommitsSerializeIdenticallyAtOneAndEightThreads) {
  constexpr size_t kWriters = 4;
  constexpr size_t kRounds = 6;

  // The serial answer: every (w, k) pair exactly once.
  std::vector<Tuple> expected_rows;
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t k = 0; k < kRounds; ++k) {
      expected_rows.push_back({V(static_cast<int64_t>(w)), V(static_cast<int64_t>(k))});
    }
  }
  Relation expected(Schema::Parse("w:int, v:int"), expected_rows);

  ScenarioOutcome serial, parallel;
  {
    ScopedExecThreads threads(1);
    serial = RunConflictScenario(kWriters, kRounds);
  }
  {
    ScopedExecThreads threads(8);
    parallel = RunConflictScenario(kWriters, kRounds);
  }

  for (const ScenarioOutcome* outcome : {&serial, &parallel}) {
    for (const std::string& error : outcome->errors) ADD_FAILURE() << error;
    // Final state is the serial union — every round's write landed exactly
    // once, regardless of how the commits raced.
    EXPECT_EQ(outcome->final_table, expected);
    // Exactly the first committer per version won: every successful commit
    // published exactly one snapshot version, and every BEGIN ended in
    // either a successful commit or a counted conflict.
    EXPECT_EQ(outcome->committed, kWriters * kRounds);
    EXPECT_EQ(outcome->versions_published, outcome->committed);
    EXPECT_EQ(outcome->begun, outcome->committed + outcome->conflicts);
    // Concurrent DIVIDE BY readers on pinned snapshots never blocked and
    // never saw a torn result.
    EXPECT_GT(outcome->reader_iterations, 0u);
  }
  // Bit-identical across thread counts.
  EXPECT_EQ(serial.final_table, parallel.final_table);
  EXPECT_EQ(serial.divide_result, parallel.divide_result);
}

// ---------------------------------------------------------------------------
// TxnFaultSites: deterministic injection at the commit sites, swept at 1, 2,
// and 8 workers. A fault at either site must roll the transaction back
// cleanly (typed error, nothing published, session reusable) and a disarmed
// retry must succeed.
// ---------------------------------------------------------------------------

TEST(TxnFaultSitesTest, CommitSitesUnwindCleanlyAtEveryWorkerCount) {
  for (const char* site : {"txn.validate", "txn.publish"}) {
    const std::string expected = std::string("injected fault at ") + site;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(std::string(site) + " at threads=" + std::to_string(threads));
      ScopedExecThreads scoped_threads(threads);

      FaultInjector injector;
      ScopedDisarm disarm(&injector);
      SessionOptions options;
      options.fault_injector = &injector;
      auto db = MakeDb();
      Session session(db, options);

      ASSERT_TRUE(session.Execute("BEGIN").ok());
      ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (99)").ok());
      injector.Arm(site, 1);
      Result<QueryResult> commit = session.Execute("COMMIT");
      ASSERT_FALSE(commit.ok());
      EXPECT_EQ(commit.status().message(), expected);
      EXPECT_FALSE(session.in_transaction());  // rolled back, session usable
      EXPECT_EQ(session.Execute("SELECT a FROM t").value().rows,
                Relation::Parse("a", "1; 2; 3"));  // nothing published

      // Disarmed retry of the whole transaction converges.
      injector.Disarm();
      ASSERT_TRUE(session.Execute("BEGIN").ok());
      ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (99)").ok());
      ASSERT_TRUE(session.Execute("COMMIT").ok());
      EXPECT_EQ(session.Execute("SELECT a FROM t").value().rows,
                Relation::Parse("a", "1; 2; 3; 99"));
    }
  }
}

// ---------------------------------------------------------------------------
// TxnStats: the Database::Stats() aggregate.
// ---------------------------------------------------------------------------

TEST(TxnStatsTest, StatsAggregatesEverySubsystem) {
  auto db = MakeDb();
  Session session(db);

  ASSERT_TRUE(session.Execute("SELECT a FROM t").ok());
  ASSERT_TRUE(session.Execute("SELECT a FROM t").ok());  // plan-cache hit

  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (4)").ok());
  ASSERT_TRUE(session.Execute("COMMIT").ok());
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("ROLLBACK").ok());

  DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.snapshot_version, db->version());
  EXPECT_GE(stats.plan_cache.hits, 1u);
  EXPECT_GE(stats.plan_cache.compiles, 1u);
  EXPECT_EQ(stats.transactions.begun, 2u);
  EXPECT_EQ(stats.transactions.committed, 1u);
  EXPECT_EQ(stats.transactions.conflicts, 0u);
  EXPECT_EQ(stats.transactions.rolled_back, 1u);
}

// ---------------------------------------------------------------------------
// TxnOrderLimit: ORDER BY / LIMIT statement shaping (the satellite riding
// the same statement layer: parse → post-pass sort/truncate, cursor-side
// cut on the streaming path).
// ---------------------------------------------------------------------------

TEST(TxnOrderLimitTest, OrderByWithLimitShapesTheResult) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t", Relation::Parse("a, b", "1,10; 2,20; 3,30; 4,40")).ok());

  Result<QueryResult> top = session.Execute("SELECT a, b FROM t ORDER BY b DESC LIMIT 2");
  ASSERT_TRUE(top.ok()) << top.error();
  ASSERT_EQ(top.value().rows.size(), 2u);
  // ApplyOrderLimit keeps the sorted order inside the canonical relation:
  // the kept SET is {(4,40), (3,30)}.
  EXPECT_EQ(top.value().rows, Relation::Parse("a, b", "3,30; 4,40"));

  Result<QueryResult> asc = session.Execute("SELECT a FROM t ORDER BY a ASC LIMIT 1");
  ASSERT_TRUE(asc.ok()) << asc.error();
  EXPECT_EQ(asc.value().rows, Relation::Parse("a", "1"));

  // LIMIT 0 and over-large LIMIT.
  EXPECT_EQ(session.Execute("SELECT a FROM t LIMIT 0").value().rows.size(), 0u);
  EXPECT_EQ(session.Execute("SELECT a FROM t LIMIT 99").value().rows.size(), 4u);

  // LIMIT without ORDER BY truncates the canonical (sorted, duplicate-free)
  // result deterministically.
  EXPECT_EQ(session.Execute("SELECT a FROM t LIMIT 2").value().rows,
            Relation::Parse("a", "1; 2"));
}

TEST(TxnOrderLimitTest, CursorsApplyTheLimitCut) {
  ScopedBatchRows batches(1);  // many small batches: the cut spans pulls
  Session session;
  ASSERT_TRUE(session.CreateTable("t", Relation::Parse("a", "1; 2; 3; 4; 5")).ok());

  Result<ResultCursor> opened = session.Query("SELECT a FROM t LIMIT 3");
  ASSERT_TRUE(opened.ok()) << opened.error();
  Relation drained = std::move(opened).value().Drain();
  EXPECT_EQ(drained.size(), 3u);

  // ORDER BY through the cursor API materializes first: the sort picks
  // WHICH rows survive the LIMIT (the top 2 by a DESC), and the result
  // then streams in the engine's canonical set order like every relation.
  opened = session.Query("SELECT a FROM t ORDER BY a DESC LIMIT 2");
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();
  EXPECT_EQ(cursor.Drain(), Relation::Parse("a", "4; 5"));
  EXPECT_TRUE(cursor.status().ok());

  // LIMIT 0 closes without ever opening the plan.
  opened = session.Query("SELECT a FROM t LIMIT 0");
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_EQ(std::move(opened).value().Drain().size(), 0u);
}

TEST(TxnOrderLimitTest, OrderLimitErrorsAndParams) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t", Relation::Parse("a", "1; 2; 3")).ok());

  Result<QueryResult> bad = session.Execute("SELECT a FROM t ORDER BY nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("is not in the result"), std::string::npos);

  EXPECT_FALSE(session.Execute("SELECT a FROM t LIMIT -1").ok());
  EXPECT_FALSE(session.Execute("SELECT a FROM t LIMIT x").ok());

  // Prepared statements carry the shaping through every binding.
  Result<PreparedStatement> prepared =
      session.Prepare("SELECT a FROM t WHERE a >= ? ORDER BY a DESC LIMIT 2");
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  Result<QueryResult> bound = prepared.value().Execute({V(1)});
  ASSERT_TRUE(bound.ok()) << bound.error();
  EXPECT_EQ(bound.value().rows, Relation::Parse("a", "2; 3"));
  bound = prepared.value().Execute({V(3)});
  ASSERT_TRUE(bound.ok()) << bound.error();
  EXPECT_EQ(bound.value().rows, Relation::Parse("a", "3"));
}

TEST(TxnOrderLimitTest, OrderLimitInsideATransactionSeesTheOverlay) {
  Session session(MakeDb());
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (10)").ok());
  Result<QueryResult> top = session.Execute("SELECT a FROM t ORDER BY a DESC LIMIT 1");
  ASSERT_TRUE(top.ok()) << top.error();
  EXPECT_EQ(top.value().rows, Relation::Parse("a", "10"));
  ASSERT_TRUE(session.Execute("ROLLBACK").ok());
  top = session.Execute("SELECT a FROM t ORDER BY a DESC LIMIT 1");
  ASSERT_TRUE(top.ok()) << top.error();
  EXPECT_EQ(top.value().rows, Relation::Parse("a", "3"));
}

}  // namespace
}  // namespace quotient
