// Query lifecycle governor tests (docs/robustness.md): cross-thread
// cancellation, deadlines, memory budgets, scoped-knob unwinding, and the
// deterministic fault-injection sweep over every registered site.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algebra/generator.hpp"
#include "api/session.hpp"
#include "exec/batch.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "opt/cost.hpp"
#include "opt/planner.hpp"
#include "plan/logical.hpp"
#include "util/status.hpp"

namespace quotient {
namespace {

constexpr const char* kDivideSql =
    "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";

/// A session loaded with a division workload big enough that its execution
/// spans many morsel batches (so polls actually interleave with work).
Session MakeDivisionSession(SessionOptions options, size_t groups,
                            size_t divisor_size) {
  DataGen gen(7);
  Relation divisor = gen.Divisor(divisor_size, /*domain=*/64);
  Relation dividend = gen.DividendWithHits(groups, groups / 8 + 1, divisor,
                                           /*domain=*/64, /*density=*/0.5);
  Session session(options);
  EXPECT_TRUE(session.CreateTable("r1", std::move(dividend)).ok());
  EXPECT_TRUE(session.CreateTable("r2", std::move(divisor)).ok());
  return session;
}

/// Disarms an injector on scope exit, so a failing assertion can't leak an
/// armed site into later tests.
struct ScopedDisarm {
  explicit ScopedDisarm(FaultInjector* injector) : injector_(injector) {}
  ~ScopedDisarm() { injector_->Disarm(); }
  FaultInjector* injector_;
};

// ---------------------------------------------------------------------------
// GovernorTest: cancellation, deadlines, budgets, reporting, guards.
// ---------------------------------------------------------------------------

TEST(GovernorTest, CancelFromAnotherThreadDeliversCancelledAndPoolSurvives) {
  ScopedExecThreads threads(8);
  ScopedMorselRows morsels(64);
  ScopedBatchRows batches(64);
  Session session = MakeDivisionSession({}, /*groups=*/4000, /*divisor=*/48);

  // Spin Cancel() from another thread: the statement's context registers
  // before execution starts, so some Cancel() call lands while the 8-thread
  // drain is in flight and the next batch-granularity poll unwinds it.
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    while (!done.load(std::memory_order_relaxed)) session.Cancel();
  });
  Result<QueryResult> cancelled = session.Execute(kDivideSql);
  done.store(true);
  canceller.join();

  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // The pool stopped admitting the cancelled region's morsels but stayed
  // reusable: the same statement, uncancelled, runs to completion.
  Result<QueryResult> again = session.Execute(kDivideSql);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_GT(again.value().rows.size(), 0u);
}

TEST(GovernorTest, CancelUnwindsAnOpenCursorToTerminalState) {
  ScopedBatchRows batches(1);
  Session session = MakeDivisionSession({}, /*groups=*/64, /*divisor=*/8);

  Result<ResultCursor> opened = session.Query(kDivideSql);
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();

  Tuple row;
  ASSERT_TRUE(cursor.Next(&row));  // stream is live
  session.Cancel();

  // The next pull observes the trip: end-of-stream, typed status, and the
  // cursor is terminally closed (further pulls stay at end-of-stream).
  EXPECT_FALSE(cursor.Next(&row));
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(cursor.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(cursor.Next(&row));
  EXPECT_EQ(cursor.NextBatch(), nullptr);
  EXPECT_TRUE(cursor.Profile().cancelled);

  // Cancel() only targets in-flight statements: a new one is unaffected.
  Result<QueryResult> fresh = session.Execute(kDivideSql);
  ASSERT_TRUE(fresh.ok()) << fresh.error();
}

TEST(GovernorTest, DeadlineTripsAsDeadlineExceeded) {
  ScopedBatchRows batches(16);
  SessionOptions options;
  options.deadline = std::chrono::milliseconds(1);
  Session session =
      MakeDivisionSession(options, /*groups=*/20000, /*divisor=*/48);

  Result<QueryResult> result = session.Execute(kDivideSql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernorTest, MemoryBudgetTripsAsResourceExhausted) {
  SessionOptions options;
  options.memory_budget_bytes = 4096;  // far below the build-state footprint
  Session session =
      MakeDivisionSession(options, /*groups=*/4000, /*divisor=*/48);

  Result<QueryResult> result = session.Execute(kDivideSql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, ProfileAndExplainAnalyzeReportGovernorAccounting) {
  // Small morsels keep the ~10k-row clustered dividend drain chunked, so
  // the run sink's per-chunk charges are part of the account.
  ScopedMorselRows morsels(128);
  ScopedBatchRows batches(128);
  Session session = MakeDivisionSession({}, /*groups=*/512, /*divisor=*/16);

  Result<QueryResult> result = session.Execute(kDivideSql);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_GT(result.value().profile.rows_charged_bytes, 0u);
  EXPECT_FALSE(result.value().profile.cancelled);
  EXPECT_TRUE(result.value().profile.fault_site.empty());

  Result<QueryResult> analyzed =
      session.Execute(std::string("EXPLAIN ANALYZE ") + kDivideSql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.error();
  bool found = false;
  for (const Tuple& row : analyzed.value().rows.tuples()) {
    for (const Value& value : row) {
      if (value.type() == ValueType::kString &&
          value.as_str().find("governor: charged=") != std::string::npos) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "EXPLAIN ANALYZE output lacks a governor line";
}

// A join build whose cost estimate is tiny but whose input is not: `k = 0`
// on a column with ~50k distinct values is estimated at rows/distinct ≈ 2
// rows, yet the value 0 covers 50k rows. The build must still drain as a
// governed pipeline — its fault site fires and its materialized rows are
// charged to the statement — whatever the estimate says.
TEST(GovernorTest, MisEstimatedJoinBuildIsPolledAndCharged) {
  constexpr int64_t kSkewRows = 50000;
  std::vector<Tuple> skew_rows;
  for (int64_t i = 0; i < kSkewRows; ++i) skew_rows.push_back({V(0), V(i)});
  for (int64_t i = 1; i <= kSkewRows; ++i) skew_rows.push_back({V(i), V(-i)});
  Catalog catalog;
  catalog.Put("skew", Relation(Schema::Parse("k, v"), std::move(skew_rows)));
  catalog.Put("probe", Relation::Parse("w", "0; 7; 49999; 123456"));
  const ExprPtr hot = Expr::ColCmp("k", CmpOp::kEq, V(0));
  ASSERT_LE(EstimatePlan(LogicalOp::Select(LogicalOp::Scan(catalog, "skew"), hot), catalog)
                .cardinality,
            64.0)
      << "the build side must look tiny to the cost model";

  const std::string sql =
      "SELECT p.w, s.k FROM probe AS p, skew AS s WHERE s.k = 0 AND p.w = s.v";
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    FaultInjector injector;
    ScopedDisarm disarm(&injector);
    SessionOptions options;
    options.fault_injector = &injector;
    Session session(options);
    ASSERT_TRUE(session.CreateTable("skew", catalog.Get("skew")).ok());
    ASSERT_TRUE(session.CreateTable("probe", catalog.Get("probe")).ok());

    injector.Arm("sink.join_build", 1);
    Result<QueryResult> faulted = session.Execute(sql);
    ASSERT_FALSE(faulted.ok()) << "the build drain never reached its fault site";
    EXPECT_EQ(faulted.status().message(), "injected fault at sink.join_build");

    injector.Disarm();
    Result<QueryResult> result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(result.value().rows, Relation::FromRows("w:int, k:int", {{V(0), V(0)},
                                                                        {V(7), V(0)},
                                                                        {V(49999), V(0)}}));
    EXPECT_NE(result.value().profile.explain.find("EquiJoin"), std::string::npos)
        << result.value().profile.explain;
    // The build materializes one (v, k) row per hot key: 2 columns plus the
    // sink's 2-word row overhead, 8 bytes each.
    EXPECT_GE(result.value().profile.rows_charged_bytes, size_t{kSkewRows} * (2 + 2) * 8);
  }
}

// Hash-division's seen-bitmap matrix is one row of |divisor| bits per
// quotient candidate. With a multi-column A the candidates are interned as
// the fill loop runs, so the matrix must be charged as its rows are added,
// not from the (still empty) candidate count before the loop.
/// A composite-key division of kCandidates candidates, one dividend row
/// each, by an 8192-row divisor: 1024 bitmap bytes per candidate on the
/// matrix path. `b_first` puts B ahead of A, so A is no key prefix and the
/// dividend is not clustered on it.
constexpr int64_t kCandidates = 2000;
constexpr int64_t kDivisorSize = 8192;

void MakeCompositeKeyDivision(Session* session, bool b_first) {
  std::vector<Tuple> dividend_rows;
  for (int64_t i = 0; i < kCandidates; ++i) {
    if (b_first) {
      dividend_rows.push_back({V(i % kDivisorSize), V(i), V(i % 7)});
    } else {
      dividend_rows.push_back({V(i), V(i % 7), V(i % kDivisorSize)});
    }
  }
  std::vector<Tuple> divisor_rows;
  for (int64_t b = 0; b < kDivisorSize; ++b) divisor_rows.push_back({V(b)});
  Relation dividend(Schema::Parse(b_first ? "b, a1, a2" : "a1, a2, b"),
                    std::move(dividend_rows));
  ASSERT_TRUE(session->CreateTable("r1", std::move(dividend)).ok());
  ASSERT_TRUE(session->CreateTable("r2", Relation(Schema::Parse("b"), std::move(divisor_rows)))
                  .ok());
}

constexpr const char* kCompositeKeySql =
    "SELECT a1, a2 FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";

TEST(GovernorTest, CompositeKeyDivisionChargesBitmapMatrix) {
  const std::string sql = kCompositeKeySql;

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    Session session;
    MakeCompositeKeyDivision(&session, /*b_first=*/true);
    Result<QueryResult> result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(result.value().rows.empty());
    EXPECT_NE(result.value().profile.explain.find("HashDivision"), std::string::npos)
        << result.value().profile.explain;
    EXPECT_NE(result.value().profile.explain.find("path=matrix"), std::string::npos)
        << result.value().profile.explain;
    EXPECT_GE(result.value().profile.rows_charged_bytes,
              size_t{kCandidates} * (kDivisorSize / 8));

    SessionOptions budgeted;
    budgeted.memory_budget_bytes = size_t{1} << 20;  // half the matrix
    Session limited(budgeted);
    MakeCompositeKeyDivision(&limited, /*b_first=*/true);
    Result<QueryResult> tripped = limited.Execute(sql);
    ASSERT_FALSE(tripped.ok());
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(GovernorTest, ClusteredCompositeKeyDivisionChargesOneRun) {
  // The same division with A leading runs run by run: one 1 KB bitmap for
  // the open run instead of the 2 MB matrix, so the budget that trips the
  // matrix path holds.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    SessionOptions budgeted;
    budgeted.memory_budget_bytes = size_t{1} << 20;
    Session limited(budgeted);
    MakeCompositeKeyDivision(&limited, /*b_first=*/false);
    Result<QueryResult> result = limited.Execute(kCompositeKeySql);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(result.value().rows.empty());
    EXPECT_NE(result.value().profile.explain.find("path=clustered"), std::string::npos)
        << result.value().profile.explain;
    EXPECT_GE(result.value().profile.rows_charged_bytes, size_t{kDivisorSize / 8});
    EXPECT_LT(result.value().profile.rows_charged_bytes,
              size_t{kCandidates} * (kDivisorSize / 8) / 4);
  }
}

// π, ∪, ∩ and − number every distinct key they see, and that state lives
// until the statement ends, so it is charged like grouping's: 8 bytes per
// key column of every key numbered. t(a, b) has 200k distinct (b, a) keys
// (3.2 MB charged by ∪) and 200k distinct b values (1.6 MB charged by π)
// over 5,120 distinct a values. A π that keeps a key of its input numbers
// nothing and charges nothing.
constexpr int64_t kDedupRows = 200000;

Relation DedupTable(int64_t salt) {
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < kDedupRows; ++i) rows.push_back({V(i % 5120), V(i + salt)});
  return Relation(Schema::Parse("a, b"), std::move(rows));
}

TEST(GovernorTest, DedupKeySetsAreCharged) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    // An unbudgeted session creates t and builds its encoding, so the
    // budgeted statements below are charged for their own state only.
    Session owner;
    ASSERT_TRUE(owner.CreateTable("t", DedupTable(0)).ok());
    // π(b) drops a, which is no key of t: it numbers every b.
    Result<QueryResult> distinct = owner.Execute("SELECT DISTINCT b FROM t");
    ASSERT_TRUE(distinct.ok()) << distinct.error();
    EXPECT_EQ(distinct.value().rows.size(), size_t{kDedupRows});
    EXPECT_GE(distinct.value().profile.rows_charged_bytes, size_t{kDedupRows} * 8);
    EXPECT_NE(distinct.value().profile.explain.find("dedup=ids"), std::string::npos)
        << distinct.value().profile.explain;

    SessionOptions budgeted;
    budgeted.memory_budget_bytes = 64 << 10;
    Session limited(owner.database(), budgeted);
    for (const char* sql :
         {"SELECT DISTINCT b FROM t", "SELECT a, COUNT(b) AS n FROM t GROUP BY a"}) {
      SCOPED_TRACE(sql);
      Result<QueryResult> tripped = limited.Execute(sql);
      ASSERT_FALSE(tripped.ok());
      EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
    }
    // π(b, a) keeps t's key, every column of the set: it passes rows
    // through and fits the same budget.
    Result<QueryResult> kept = limited.Execute("SELECT DISTINCT b, a FROM t");
    ASSERT_TRUE(kept.ok()) << kept.error();
    EXPECT_EQ(kept.value().rows.size(), size_t{kDedupRows});
    EXPECT_EQ(kept.value().profile.rows_charged_bytes, 0u);
    EXPECT_NE(kept.value().profile.explain.find("dedup=pass"), std::string::npos)
        << kept.value().profile.explain;

    // ∪, ∩ and − of t and a table overlapping it in half its keys.
    Catalog catalog;
    catalog.Put("t", DedupTable(0));
    catalog.Put("u", DedupTable(kDedupRows / 2));
    catalog.Encoding("t");  // built outside the governed statements
    catalog.Encoding("u");
    PlanPtr t = LogicalOp::Scan(catalog, "t");
    PlanPtr u = LogicalOp::Scan(catalog, "u");
    for (const PlanPtr& plan :
         {LogicalOp::Union(t, u), LogicalOp::Intersect(t, u), LogicalOp::Difference(t, u)}) {
      SCOPED_TRACE(plan->ToString());
      QueryContext unlimited;
      ExecutePlan(plan, catalog, {}, nullptr, &unlimited);
      EXPECT_GE(unlimited.charged_bytes(), size_t{kDedupRows} * 2 * 8);
      QueryContext limited_ctx(std::chrono::steady_clock::time_point{}, 64 << 10, nullptr);
      EXPECT_THROW(ExecutePlan(plan, catalog, {}, nullptr, &limited_ctx), QueryAbort);
      EXPECT_EQ(limited_ctx.TripStatus().code(), StatusCode::kResourceExhausted);
    }
  }
}

TEST(GovernorTest, ScopedKnobGuardsRestoreOnUnwind) {
  const size_t threads0 = GetExecThreads();
  const size_t morsel0 = GetMorselRows();
  const size_t batch0 = GetBatchRows();
  try {
    ScopedExecThreads threads(threads0 + 3);
    ScopedMorselRows morsels(morsel0 + 7);
    ScopedBatchRows batches(batch0 + 11);
    EXPECT_EQ(GetExecThreads(), threads0 + 3);
    EXPECT_EQ(GetMorselRows(), morsel0 + 7);
    EXPECT_EQ(GetBatchRows(), batch0 + 11);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(GetExecThreads(), threads0);
  EXPECT_EQ(GetMorselRows(), morsel0);
  EXPECT_EQ(GetBatchRows(), batch0);
}

TEST(GovernorTest, LoadCsvFileFailureNamesPathAndReason) {
  Session session;
  const std::string path = "/nonexistent-quotient-dir/missing.csv";
  Status status = session.LoadCsvFile("t", path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("No such file"), std::string::npos)
      << status.message();
}

// ---------------------------------------------------------------------------
// FaultInjectionTest: deterministic injection at every registered site.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, NthHitSemantics) {
  FaultInjector injector;
  injector.Arm("pipeline.drain", 3);
  EXPECT_FALSE(injector.Hit("pipeline.drain"));
  EXPECT_FALSE(injector.Hit("pipeline.drain"));
  EXPECT_TRUE(injector.Hit("pipeline.drain"));   // the armed nth hit
  EXPECT_FALSE(injector.Hit("pipeline.drain"));  // fires once, not forever
  EXPECT_FALSE(injector.Hit("pipeline.merge"));  // other sites unaffected

  injector.Arm("pipeline.drain", 1);  // re-arming resets the hit counter
  EXPECT_TRUE(injector.Hit("pipeline.drain"));

  injector.Arm("pipeline.drain", 1);
  injector.Disarm();
  EXPECT_FALSE(injector.Hit("pipeline.drain"));
}

// Sweep every registered site at 1, 2, and 8 workers: an injected fault must
// unwind to the exact deterministic message (never a crash, hang, or partial
// result), and after disarming, the same session and pool must run the same
// statements to completion — proof that no trip point leaks pool or session
// state. Sites off this workload's path simply never fire (the statement
// succeeds), which the assertions below allow.
TEST(FaultInjectionTest, SweepAllSitesUnwindsCleanAcrossThreadCounts) {
  ScopedMorselRows morsels(32);
  ScopedBatchRows batches(32);

  DataGen gen(11);
  Relation divisor = gen.Divisor(48, /*domain=*/64);
  Relation dividend = gen.DividendWithHits(512, 65, divisor, /*domain=*/64,
                                           /*density=*/0.5);
  // Sites guaranteed on this statement's path at EVERY thread count; the
  // sweep additionally asserts these fire with statuses identical across
  // thread counts (determinism is what makes fault reproductions portable).
  const std::vector<std::string> always_fires = {
      "divide.bitmap_fill", "sink.codec_append", "sink.probe_append",
      "cursor.pull", "catalog.encoding"};

  for (const std::string& site : FaultInjector::KnownSites()) {
    const std::string expected = "injected fault at " + site;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(site + " at threads=" + std::to_string(threads));
      ScopedExecThreads scoped_threads(threads);

      FaultInjector injector;
      ScopedDisarm disarm(&injector);
      SessionOptions options;
      options.fault_injector = &injector;
      Session session(options);
      ASSERT_TRUE(session.CreateTable("r1", dividend).ok());
      ASSERT_TRUE(session.CreateTable("r2", divisor).ok());

      injector.Arm(site, 1);
      Result<QueryResult> result = session.Execute(kDivideSql);
      if (!result.ok()) {
        EXPECT_EQ(result.status().message(), expected);
      }
      bool fired = !result.ok();

      // The cursor path must unwind just as cleanly.
      injector.Arm(site, 1);
      Result<ResultCursor> opened = session.Query(kDivideSql);
      if (opened.ok()) {
        ResultCursor cursor = std::move(opened).value();
        Relation drained = cursor.Drain();
        if (!cursor.status().ok()) {
          EXPECT_EQ(cursor.status().message(), expected);
          fired = true;
        }
      } else {
        EXPECT_EQ(opened.status().message(), expected);
        fired = true;
      }

      bool must_fire = false;
      for (const std::string& required : always_fires) {
        must_fire = must_fire || required == site;
      }
      if (must_fire) EXPECT_TRUE(fired) << "armed site never consulted";

      // No leaked pool or session state: disarmed, everything succeeds.
      injector.Disarm();
      Result<QueryResult> again = session.Execute(kDivideSql);
      ASSERT_TRUE(again.ok()) << again.error();
      EXPECT_GT(again.value().rows.size(), 0u);
    }
  }
}

TEST(FaultInjectionTest, CursorPullFaultDrainsPreFailureRows) {
  ScopedBatchRows batches(1);  // one row per pull, so the 3rd pull = 3rd row
  FaultInjector injector;
  ScopedDisarm disarm(&injector);
  SessionOptions options;
  options.fault_injector = &injector;
  Session session(options);
  ASSERT_TRUE(
      session.CreateTable("t", Relation::Parse("a", "1; 2; 3; 4; 5")).ok());

  injector.Arm("cursor.pull", 3);
  Result<ResultCursor> opened = session.Query("SELECT a FROM t");
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();
  Relation partial = cursor.Drain();
  EXPECT_EQ(partial.size(), 2u);  // rows produced before the failing pull
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(cursor.status().message(), "injected fault at cursor.pull");
  EXPECT_EQ(cursor.Profile().fault_site, "cursor.pull");

  injector.Disarm();
  Result<ResultCursor> retry = session.Query("SELECT a FROM t");
  ASSERT_TRUE(retry.ok()) << retry.error();
  ResultCursor cursor2 = std::move(retry).value();
  EXPECT_EQ(cursor2.Drain().size(), 5u);
  EXPECT_TRUE(cursor2.status().ok()) << cursor2.status().message();
}

TEST(FaultInjectionTest, SnapshotPublishFaultLeavesPreviousCatalogLive) {
  // DDL runs outside a governed statement, so the publish site is consulted
  // through the process-global injector.
  FaultInjector* global = FaultInjector::Global();
  ScopedDisarm disarm(global);

  Session session;
  ASSERT_TRUE(session.CreateTable("t", Relation::Parse("a", "1; 2")).ok());

  global->Arm("snapshot.publish", 1);
  Status ddl = session.CreateTable("u", Relation::Parse("a", "3"));
  global->Disarm();
  ASSERT_FALSE(ddl.ok());
  EXPECT_EQ(ddl.message(), "injected fault at snapshot.publish");

  // Publication is atomic: the failed DDL left the previous snapshot live —
  // 't' still answers, 'u' was never published.
  Result<QueryResult> t = session.Execute("SELECT a FROM t");
  ASSERT_TRUE(t.ok()) << t.error();
  EXPECT_EQ(t.value().rows.size(), 2u);
  EXPECT_FALSE(session.Execute("SELECT a FROM u").ok());

  // And the same DDL succeeds once disarmed.
  ASSERT_TRUE(session.CreateTable("u", Relation::Parse("a", "3")).ok());
  EXPECT_TRUE(session.Execute("SELECT a FROM u").ok());
}

TEST(FaultInjectionTest, AggregateSinkSiteFiresOnGroupByStatements) {
  ScopedMorselRows morsels(32);
  ScopedBatchRows batches(32);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    FaultInjector injector;
    ScopedDisarm disarm(&injector);
    SessionOptions options;
    options.fault_injector = &injector;
    Session session = [&] {
      DataGen gen(13);
      Relation rows = gen.Dividend(256, /*domain=*/64, /*density=*/0.5);
      Session s(options);
      EXPECT_TRUE(s.CreateTable("r", std::move(rows)).ok());
      return s;
    }();

    injector.Arm("sink.aggregate", 1);
    Result<QueryResult> result =
        session.Execute("SELECT a, COUNT(*) FROM r GROUP BY a");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), "injected fault at sink.aggregate");

    injector.Disarm();
    Result<QueryResult> again =
        session.Execute("SELECT a, COUNT(*) FROM r GROUP BY a");
    ASSERT_TRUE(again.ok()) << again.error();
  }
}

}  // namespace
}  // namespace quotient
