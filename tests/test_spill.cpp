// Spill-to-disk and admission-control tests (docs/robustness.md): the
// SpilledU32Store unit contract, a differential corpus with spilling forced
// in every blocking build (results must be bit-identical to the in-memory
// path at threads 1 and 8), fault injection at the four spill.* sites,
// cancellation mid-spill, QUOTIENT_FAULT spec validation, and the
// database-wide admission controller's queue/timeout/rejection behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "algebra/generator.hpp"
#include "api/database.hpp"
#include "api/session.hpp"
#include "exec/batch.hpp"
#include "exec/exec_great_divide.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "exec/spill.hpp"
#include "util/status.hpp"

namespace quotient {
namespace {

constexpr const char* kDivideSql =
    "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";

/// Spill options that force a flush on (almost) every append: any
/// outstanding charge beyond one byte crosses the watermark, so every
/// blocking build that stores id columns goes through the spill file.
SessionOptions ForcedSpillOptions() {
  SessionOptions options;
  options.spill_watermark_bytes = 1;
  return options;
}

/// The same division over r1t, a twin of r1 with B first: A is no key
/// prefix there, so it keeps the candidate-matrix path and its spillable
/// probe stores (r1 is clustered on A and divides run by run).
constexpr const char* kDivideTwinSql =
    "SELECT a FROM r1t AS x DIVIDE BY r2 AS y ON x.b = y.b";

Session MakeDivisionSession(SessionOptions options, size_t groups,
                            size_t divisor_size) {
  DataGen gen(7);
  Relation divisor = gen.Divisor(divisor_size, /*domain=*/64);
  Relation dividend = gen.DividendWithHits(groups, groups / 8 + 1, divisor,
                                           /*domain=*/64, /*density=*/0.5);
  Session session(options);
  EXPECT_TRUE(session.CreateTable("r1t", dividend.Reorder({"b", "a"})).ok());
  EXPECT_TRUE(session.CreateTable("r1", std::move(dividend)).ok());
  EXPECT_TRUE(session.CreateTable("r2", std::move(divisor)).ok());
  return session;
}

struct ScopedDisarm {
  explicit ScopedDisarm(FaultInjector* injector) : injector_(injector) {}
  ~ScopedDisarm() { injector_->Disarm(); }
  FaultInjector* injector_;
};

// ---------------------------------------------------------------------------
// SpillTest: the store contract and end-to-end spilled execution.
// ---------------------------------------------------------------------------

TEST(SpillTest, StoreRoundTripsRowsAcrossPartitions) {
  QueryContext ctx;
  ctx.EnableSpill(/*watermark_bytes=*/256, /*dir=*/"");
  ScopedQueryContext scope(&ctx);

  SpilledU32Store store(/*stride=*/2);
  for (uint32_t i = 0; i < 10000; ++i) {
    uint32_t row[2] = {i, i * 3 + 1};
    store.Append(row, 1);
  }
  ASSERT_EQ(store.rows(), 10000u);
  // The watermark is far below 10000 rows * 16 bytes: the store must have
  // flushed runs to the spill file.
  EXPECT_GT(ctx.spill_partitions(), 0u);
  EXPECT_GT(ctx.spill_bytes_written(), 0u);

  // Every row reads back exactly, in order and via random access.
  for (uint32_t i = 0; i < 10000; ++i) {
    const uint32_t* row = store.Row(i);
    ASSERT_EQ(row[0], i);
    ASSERT_EQ(row[1], i * 3 + 1);
  }
  const uint32_t* last = store.Row(9999);
  EXPECT_EQ(last[0], 9999u);
  const uint32_t* first = store.Row(0);  // backward seek re-reads a cold page
  EXPECT_EQ(first[0], 0u);

  // Spilled bytes were released: the outstanding account holds only the
  // in-memory suffix (possibly zero), never the full 160000 bytes.
  EXPECT_LT(ctx.outstanding_bytes(), 10000u * 2 * 8);
}

TEST(SpillTest, StoreWithoutContextStaysInMemory) {
  SpilledU32Store store(/*stride=*/1);
  for (uint32_t i = 0; i < 1000; ++i) {
    uint32_t id = i * 7;
    store.Append(&id, 1);
  }
  for (uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(store.At(i), i * 7);
}

TEST(SpillTest, ForcedSpillDivisionMatchesInMemoryResult) {
  ScopedMorselRows morsels(32);
  ScopedBatchRows batches(32);

  DataGen gen(7);
  Relation divisor = gen.Divisor(48, /*domain=*/64);
  Relation dividend =
      gen.DividendWithHits(2000, 251, divisor, /*domain=*/64, /*density=*/0.5);

  // Both paths: r1 is clustered on A, its twin r1t (B first) is not.
  for (const char* sql : {kDivideSql, kDivideTwinSql}) {
    SCOPED_TRACE(sql);
    Relation expected;
    {
      ScopedExecThreads threads(1);
      Session plain;
      ASSERT_TRUE(plain.CreateTable("r1", dividend).ok());
      ASSERT_TRUE(plain.CreateTable("r1t", dividend.Reorder({"b", "a"})).ok());
      ASSERT_TRUE(plain.CreateTable("r2", divisor).ok());
      Result<QueryResult> baseline = plain.Execute(sql);
      ASSERT_TRUE(baseline.ok()) << baseline.error();
      expected = baseline.value().rows;
      // (Unless the CI spill-forced job armed QUOTIENT_SPILL_WATERMARK, in
      // which case even the "plain" baseline spills — still bit-identical.)
      if (std::getenv("QUOTIENT_SPILL_WATERMARK") == nullptr) {
        EXPECT_EQ(baseline.value().profile.spill_partitions, 0u);
      }
    }

    for (size_t threads : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ScopedExecThreads scoped_threads(threads);
      Session spilled(ForcedSpillOptions());
      ASSERT_TRUE(spilled.CreateTable("r1", dividend).ok());
      ASSERT_TRUE(spilled.CreateTable("r1t", dividend.Reorder({"b", "a"})).ok());
      ASSERT_TRUE(spilled.CreateTable("r2", divisor).ok());
      Result<QueryResult> result = spilled.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.error();
      EXPECT_EQ(result.value().rows, expected);
      EXPECT_NE(result.value().profile.explain.find(sql == kDivideSql ? "path=clustered"
                                                                        : "path=matrix"),
                std::string::npos)
          << result.value().profile.explain;
      EXPECT_GT(result.value().profile.spill_partitions, 0u)
          << "watermark=1 never spilled: the forced-spill path was not taken";
      EXPECT_GT(result.value().profile.spill_bytes_written, 0u);
    }
  }
}

TEST(SpillTest, ExplainAnalyzeReportsSpillCounters) {
  // Small morsels keep the clustered dividend drain chunked; the twin's
  // serial probe stores spill.
  ScopedMorselRows morsels(128);
  ScopedBatchRows batches(128);
  Session session =
      MakeDivisionSession(ForcedSpillOptions(), /*groups=*/512, /*divisor=*/16);
  for (const char* sql : {kDivideSql, kDivideTwinSql}) {
    SCOPED_TRACE(sql);
    Result<QueryResult> analyzed = session.Execute(std::string("EXPLAIN ANALYZE ") + sql);
    ASSERT_TRUE(analyzed.ok()) << analyzed.error();
    bool found = false;
    bool path = false;
    for (const Tuple& row : analyzed.value().rows.tuples()) {
      for (const Value& value : row) {
        if (value.type() != ValueType::kString) continue;
        found = found || value.as_str().find("spill=") != std::string::npos;
        path = path || value.as_str().find(sql == kDivideSql ? "path=clustered"
                                                             : "path=matrix") !=
                           std::string::npos;
      }
    }
    EXPECT_TRUE(found) << "EXPLAIN ANALYZE output lacks spill counters";
    EXPECT_TRUE(path) << "EXPLAIN ANALYZE output does not name the division path";
  }
}

TEST(SpillTest, CancelMidSpillDeliversCancelledAndPoolSurvives) {
  ScopedExecThreads threads(8);
  ScopedMorselRows morsels(64);
  ScopedBatchRows batches(64);
  Session session = MakeDivisionSession(ForcedSpillOptions(), /*groups=*/4000,
                                        /*divisor=*/48);

  // Spin Cancel() from another thread: with watermark=1 every append path
  // is a spill path, so the trip lands inside the spill loops' polls.
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    while (!done.load(std::memory_order_relaxed)) session.Cancel();
  });
  Result<QueryResult> cancelled = session.Execute(kDivideSql);
  done.store(true);
  canceller.join();

  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // The pool and the session survive: the same statement, uncancelled and
  // still spill-forced, runs to completion.
  Result<QueryResult> again = session.Execute(kDivideSql);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_GT(again.value().rows.size(), 0u);
}

// ---------------------------------------------------------------------------
// SpillDifferentialTest: the session corpus with spilling forced everywhere.
// ---------------------------------------------------------------------------

/// Runs `query` with spilling forced at threads {1, 8} and asserts results
/// (and error status) identical to an unspilled single-threaded baseline.
void ExpectSpilledMatchesInMemory(const Catalog& catalog, const std::string& query) {
  // Small morsels keep the 8-thread run-sink drains chunked, so spilled
  // serial builds run beside chunked divisions.
  ScopedMorselRows morsels(128);
  ScopedBatchRows batches(128);
  auto make_session = [&](SessionOptions options) {
    Session session(options);
    for (const std::string& name : catalog.Names()) {
      EXPECT_TRUE(session.CreateTable(name, catalog.Get(name)).ok());
    }
    return session;
  };
  Result<QueryResult> baseline = [&] {
    ScopedExecThreads threads(1);
    Session plain = make_session({});
    return plain.Execute(query);
  }();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ScopedExecThreads scoped_threads(threads);
    Session spilled = make_session(ForcedSpillOptions());
    Result<QueryResult> result = spilled.Execute(query);
    ASSERT_EQ(result.ok(), baseline.ok())
        << query << "\nbaseline: " << (baseline.ok() ? "ok" : baseline.error())
        << "\nspilled: " << (result.ok() ? "ok" : result.error());
    if (baseline.ok() && result.ok()) {
      EXPECT_EQ(result.value().rows, baseline.value().rows)
          << query << "\nthreads " << threads << " with spill forced";
    }
  }
}

TEST(SpillDifferentialTest, CorpusBitIdenticalWithSpillForced) {
  DataGen gen(17);
  Relation divisor = gen.Divisor(32, /*domain=*/64);
  Relation dividend =
      gen.DividendWithHits(800, 101, divisor, /*domain=*/64, /*density=*/0.5);
  Catalog catalog;
  catalog.Put("r1", std::move(dividend));
  catalog.Put("r2", std::move(divisor));
  const char* queries[] = {
      // Small divide: every DivisionIterator build (codec sinks + row_b).
      "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b",
      // Selection pushed across the division (law rewrites still fire).
      "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b WHERE a > 100",
      // Hash join build (JoinBuildSink).
      "SELECT x.a, y.b FROM r1 AS x, r2 AS y WHERE x.b = y.b",
      // Semi/anti joins (CodecAppendSink builds).
      "SELECT DISTINCT a FROM r1 WHERE b IN (SELECT b FROM r2)",
      "SELECT DISTINCT a FROM r1 WHERE b NOT IN (SELECT b FROM r2)",
      // Grouped aggregation (AggregateSink growth-delta charges).
      "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a HAVING COUNT(b) >= 2",
      "SELECT COUNT(*) AS n, MIN(a) AS lo, MAX(a) AS hi FROM r1",
      // Distinct projection.
      "SELECT DISTINCT b FROM r1",
      // Errors must agree too.
      "SELECT nosuchcol FROM r1",
  };
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    ExpectSpilledMatchesInMemory(catalog, query);
  }
}

TEST(SpillDifferentialTest, GreatDivideBitIdenticalWithSpillForced) {
  // ÷* runs through its own encoded build (Encoded::row_b and the
  // ProbeAppendSink); cover it at the exec layer, where a governed context
  // with a tiny watermark forces every flush.
  // The B-first twin keeps the candidate-matrix path and its probe stores.
  DataGen gen(23);
  Relation clustered = gen.Dividend(200, /*domain=*/24, /*density=*/0.4);
  Relation divisor = gen.GreatDivisor(6, /*domain=*/24, /*density=*/0.3);
  for (const Relation& dividend : {clustered, clustered.Reorder({"b", "a"})}) {
    Relation reference = ExecGreatDivide(dividend, divisor);
    ASSERT_EQ(reference, GreatDivideSCD(dividend, divisor));
    for (size_t threads : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ScopedExecThreads scoped_threads(threads);
      QueryContext ctx;
      ctx.EnableSpill(/*watermark_bytes=*/1, /*dir=*/"");
      ScopedQueryContext scope(&ctx);
      EXPECT_EQ(ExecGreatDivide(dividend, divisor), reference);
      EXPECT_GT(ctx.spill_partitions(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// SpillFaultTest: the four spill.* sites and QUOTIENT_FAULT validation.
// ---------------------------------------------------------------------------

TEST(SpillFaultTest, SpillSitesUnwindIdenticallyAcrossThreadCounts) {
  ScopedMorselRows morsels(32);
  ScopedBatchRows batches(32);

  DataGen gen(11);
  Relation divisor = gen.Divisor(48, /*domain=*/64);
  Relation dividend =
      gen.DividendWithHits(512, 65, divisor, /*domain=*/64, /*density=*/0.5);

  const std::vector<std::string> spill_sites = {"spill.open", "spill.write",
                                                "spill.disk_full", "spill.read"};
  for (const std::string& site : spill_sites) {
    const std::string expected = "injected fault at " + site;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(site + " at threads=" + std::to_string(threads));
      ScopedExecThreads scoped_threads(threads);

      FaultInjector injector;
      ScopedDisarm disarm(&injector);
      SessionOptions options = ForcedSpillOptions();
      options.fault_injector = &injector;
      Session session(options);
      ASSERT_TRUE(session.CreateTable("r1", dividend).ok());
      ASSERT_TRUE(session.CreateTable("r2", divisor).ok());

      injector.Arm(site, 1);
      Result<QueryResult> result = session.Execute(kDivideSql);
      ASSERT_FALSE(result.ok()) << site << " never consulted with spill forced";
      EXPECT_EQ(result.status().message(), expected);

      // No leaked store, file, or pool state: disarmed, the same
      // spill-forced statement runs to completion.
      injector.Disarm();
      Result<QueryResult> again = session.Execute(kDivideSql);
      ASSERT_TRUE(again.ok()) << again.error();
      EXPECT_GT(again.value().rows.size(), 0u);
    }
  }
}

TEST(SpillFaultTest, ArmFromSpecValidatesSiteAndNth) {
  FaultInjector injector;
  ScopedDisarm disarm(&injector);

  // Valid specs arm (with and without an explicit nth).
  EXPECT_TRUE(FaultInjector::ArmFromSpec(&injector, "spill.write:2"));
  EXPECT_FALSE(injector.Hit("spill.write"));
  EXPECT_TRUE(injector.Hit("spill.write"));
  injector.Disarm();
  EXPECT_TRUE(FaultInjector::ArmFromSpec(&injector, "spill.open"));
  EXPECT_TRUE(injector.Hit("spill.open"));
  injector.Disarm();

  // Malformed specs are refused — and, crucially, do NOT arm (a silently
  // dropped spec would make a fault test pass vacuously).
  const char* bad[] = {
      "",                    // empty site
      ":3",                  // empty site with an nth
      "nosuch.site",         // unknown site
      "nosuch.site:1",       // unknown site with an nth
      "spill.write:",        // empty nth
      "spill.write:zero",    // non-numeric nth
      "spill.write:3junk",   // trailing garbage
      "spill.write:0",       // nth must be >= 1
      "spill.write:-2",      // negative
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(std::string("spec='") + spec + "'");
    EXPECT_FALSE(FaultInjector::ArmFromSpec(&injector, spec));
    EXPECT_FALSE(injector.Hit("spill.write"));
    EXPECT_FALSE(injector.Hit("spill.open"));
  }
}

TEST(SpillFaultTest, AllSpillSitesAreRegistered) {
  const std::vector<std::string>& sites = FaultInjector::KnownSites();
  for (const char* site : {"spill.open", "spill.write", "spill.disk_full", "spill.read"}) {
    bool found = false;
    for (const std::string& known : sites) found = found || known == site;
    EXPECT_TRUE(found) << site << " missing from FaultInjector::KnownSites()";
  }
}

// ---------------------------------------------------------------------------
// SpillAdmissionTest: the database-wide admission controller.
// ---------------------------------------------------------------------------

/// A database admitting exactly one `budget`-sized statement at a time.
std::shared_ptr<Database> MakeAdmittingDatabase(size_t budget, size_t max_queue = 16) {
  DatabaseOptions options;
  options.admission_memory_bytes = budget;
  options.admission_max_queue = max_queue;
  auto database = std::make_shared<Database>(options);
  EXPECT_TRUE(database->CreateTable("t", Relation::Parse("a", "1; 2; 3")).ok());
  return database;
}

SessionOptions BudgetedOptions(size_t bytes) {
  SessionOptions options;
  options.memory_budget_bytes = bytes;
  return options;
}

TEST(SpillAdmissionTest, StatementsWithoutBudgetsBypassAdmission) {
  auto database = MakeAdmittingDatabase(1 << 20);
  Session session(database);  // no memory budget: invisible to admission
  ASSERT_TRUE(session.Execute("SELECT a FROM t").ok());
  EXPECT_EQ(database->admission_stats().admitted, 0u);
}

TEST(SpillAdmissionTest, OversizedGrantRejectedImmediately) {
  auto database = MakeAdmittingDatabase(1024);
  Session session(database, BudgetedOptions(4096));
  Result<QueryResult> result = session.Execute("SELECT a FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("exceeds the database admission budget"),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(database->admission_stats().rejected, 1u);
}

TEST(SpillAdmissionTest, QueuedStatementRunsOnceTheGrantReleases) {
  auto database = MakeAdmittingDatabase(1 << 20);
  Session holder(database, BudgetedOptions(1 << 20));

  // An open cursor holds its governor — and with it the whole admission
  // budget — until Close().
  Result<ResultCursor> opened = holder.Query("SELECT a FROM t");
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();
  EXPECT_EQ(database->admission_stats().in_use_bytes, size_t{1} << 20);

  std::atomic<bool> finished{false};
  Result<QueryResult> queued_result = Result<QueryResult>::Error("never ran");
  std::thread waiter([&] {
    Session queued(database, BudgetedOptions(1 << 20));
    queued_result = queued.Execute("SELECT a FROM t");
    finished.store(true);
  });

  // The waiter cannot be admitted while the cursor holds the grant.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(finished.load());
  EXPECT_GE(database->admission_stats().queued, 1u);

  cursor.Close();  // releases the grant; the waiter proceeds
  waiter.join();
  ASSERT_TRUE(queued_result.ok()) << queued_result.error();
  EXPECT_EQ(queued_result.value().rows.size(), 3u);
  EXPECT_EQ(database->admission_stats().in_use_bytes, 0u);
}

TEST(SpillAdmissionTest, QueuedStatementTimesOutAtItsDeadline) {
  auto database = MakeAdmittingDatabase(1 << 20);
  Session holder(database, BudgetedOptions(1 << 20));
  Result<ResultCursor> opened = holder.Query("SELECT a FROM t");
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();

  SessionOptions options = BudgetedOptions(1 << 20);
  options.deadline = std::chrono::milliseconds(30);
  Session queued(database, options);
  Result<QueryResult> result = queued.Execute("SELECT a FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("queued, timed out"), std::string::npos)
      << result.status().message();
  EXPECT_GE(database->admission_stats().timed_out, 1u);

  // The abandoned ticket does not wedge the queue: once the holder closes,
  // a fresh statement is admitted immediately.
  cursor.Close();
  Result<QueryResult> fresh = queued.Execute("SELECT a FROM t");
  ASSERT_TRUE(fresh.ok()) << fresh.error();
}

TEST(SpillAdmissionTest, FullQueueRejectsInsteadOfWaiting) {
  auto database = MakeAdmittingDatabase(1 << 20, /*max_queue=*/0);
  Session holder(database, BudgetedOptions(1 << 20));
  Result<ResultCursor> opened = holder.Query("SELECT a FROM t");
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();

  Session rejected(database, BudgetedOptions(1 << 20));
  Result<QueryResult> result = rejected.Execute("SELECT a FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("admission queue full"), std::string::npos)
      << result.status().message();
}

TEST(SpillAdmissionTest, CancelReachesAStatementWaitingInTheQueue) {
  auto database = MakeAdmittingDatabase(1 << 20);
  Session holder(database, BudgetedOptions(1 << 20));
  Result<ResultCursor> opened = holder.Query("SELECT a FROM t");
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();

  Session queued(database, BudgetedOptions(1 << 20));
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      queued.Cancel();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  Result<QueryResult> result = queued.Execute("SELECT a FROM t");
  done.store(true);
  canceller.join();

  // The statement registered with the cancel registry BEFORE queuing for
  // admission, so Cancel() unwound it while it waited.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(database->admission_stats().in_use_bytes, size_t{1} << 20)
      << "the cancelled waiter must not have taken a grant";
}

TEST(SpillAdmissionTest, AdmissionComposesWithForcedSpill) {
  // The intended degradation story end to end: a database-wide budget, a
  // per-statement budget, and a spill watermark below it — the statement
  // queues politely, spills instead of tripping, and still answers exactly.
  // Small morsels keep the clustered dividend drain chunked at the
  // default threads.
  ScopedMorselRows morsels(128);
  ScopedBatchRows batches(128);
  DataGen gen(29);
  Relation divisor = gen.Divisor(32, /*domain=*/64);
  Relation dividend =
      gen.DividendWithHits(800, 101, divisor, /*domain=*/64, /*density=*/0.5);

  Relation expected;
  {
    Session plain;
    ASSERT_TRUE(plain.CreateTable("r1", dividend).ok());
    ASSERT_TRUE(plain.CreateTable("r2", divisor).ok());
    Result<QueryResult> baseline = plain.Execute(kDivideSql);
    ASSERT_TRUE(baseline.ok()) << baseline.error();
    expected = baseline.value().rows;
  }

  DatabaseOptions db_options;
  db_options.admission_memory_bytes = 64 << 20;
  auto database = std::make_shared<Database>(db_options);
  SessionOptions options;
  options.memory_budget_bytes = 32 << 20;
  options.spill_watermark_bytes = 4096;
  Session session(database, options);
  ASSERT_TRUE(session.CreateTable("r1", dividend).ok());
  ASSERT_TRUE(session.CreateTable("r2", divisor).ok());
  Result<QueryResult> result = session.Execute(kDivideSql);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().rows, expected);
  EXPECT_GT(result.value().profile.spill_partitions, 0u);
  EXPECT_EQ(database->admission_stats().admitted, 1u);
  EXPECT_EQ(database->admission_stats().in_use_bytes, 0u);
}

}  // namespace
}  // namespace quotient
