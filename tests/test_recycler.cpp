// Cross-query artifact recycler (exec/recycler.hpp, docs/recycler.md):
// recycling on/off differential (bit-identical at 1 and 8 threads), DDL
// invalidation, build-once under concurrent sessions, LRU eviction under a
// byte budget, EXPLAIN ANALYZE surfacing, the recycler.* fault sites
// proving a faulted publish never poisons the cache, admission on the
// second sighting of a fragment's version-free shape, and the probation
// segment that keeps never-hit artifacts from flushing reused ones.
//
// A fragment is published only once its shape has been seen before, so
// every test that expects a warm hit first runs a "sighting" execution,
// which builds privately.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebra/generator.hpp"
#include "api/database.hpp"
#include "api/session.hpp"
#include "exec/batch.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "opt/fingerprint.hpp"
#include "opt/planner.hpp"

namespace quotient {
namespace {

constexpr const char* kDivideSql =
    "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";
/// The same division over r1t, r1 with B first: A is no key prefix there,
/// so it keeps the candidate-matrix path, whose dividend probe state is
/// recycled too (r1 is clustered on A and leaves no probe state). r2t is
/// a copy of r2, so the twin never adopts kDivideSql's divisor build.
constexpr const char* kDivideTwinSql =
    "SELECT a FROM r1t AS x DIVIDE BY r2t AS y ON x.b = y.b";

/// The statement corpus the differential sweeps: the operator families the
/// planner attaches RecycleSpecs to that SQL can reach — division, grouping,
/// and the semi join an IN subquery lowers to. (Comma joins stay a Select
/// over Product and carry no build state; hash-join recycling is covered at
/// the plan level by JoinBuildSidesRecycleAcrossPlanExecutions below.)
const std::vector<const char*> kCorpus = {
    kDivideSql,
    kDivideTwinSql,
    "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a",
    "SELECT DISTINCT a FROM r1 WHERE b IN (SELECT b FROM r2)",
};

std::shared_ptr<Database> MakeDatabase(size_t recycler_bytes) {
  DatabaseOptions options;
  options.recycler_memory_bytes = recycler_bytes;
  auto db = std::make_shared<Database>(options);
  DataGen gen(23);
  Relation divisor = gen.Divisor(24, /*domain=*/48);
  Relation dividend =
      gen.DividendWithHits(160, 17, divisor, /*domain=*/48, /*density=*/0.4);
  Relation lookup = gen.RandomRelation(Schema::Parse("b:int, c:int"), 96, 48);
  EXPECT_TRUE(db->CreateTable("r1t", dividend.Reorder({"b", "a"})).ok());
  EXPECT_TRUE(db->CreateTable("r1", std::move(dividend)).ok());
  EXPECT_TRUE(db->CreateTable("r2t", divisor).ok());
  EXPECT_TRUE(db->CreateTable("r2", std::move(divisor)).ok());
  EXPECT_TRUE(db->CreateTable("r3", std::move(lookup)).ok());
  return db;
}

TEST(RecyclerTest, OnOffDifferentialBitIdenticalAcrossThreadCounts) {
  ScopedMorselRows morsels(16);
  ScopedBatchRows batches(16);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    std::shared_ptr<Database> off = MakeDatabase(0);
    std::shared_ptr<Database> on = MakeDatabase(64ull << 20);
    ASSERT_EQ(off->recycler(), nullptr);
    ASSERT_NE(on->recycler(), nullptr);
    Session plain(off);
    Session recycled(on);
    for (const char* sql : kCorpus) {
      SCOPED_TRACE(sql);
      Result<QueryResult> baseline = plain.Execute(sql);
      ASSERT_TRUE(baseline.ok()) << baseline.error();
      EXPECT_EQ(baseline.value().profile.recycler_hits, 0u);
      EXPECT_EQ(baseline.value().profile.recycler_misses, 0u);
      Result<QueryResult> sighting = recycled.Execute(sql);
      ASSERT_TRUE(sighting.ok()) << sighting.error();
      Result<QueryResult> cold = recycled.Execute(sql);
      ASSERT_TRUE(cold.ok()) << cold.error();
      Result<QueryResult> warm = recycled.Execute(sql);
      ASSERT_TRUE(warm.ok()) << warm.error();
      // Bit-identical: same rows in the same order, sighting, cold, warm,
      // and with recycling disabled.
      EXPECT_TRUE(sighting.value().rows.tuples() == baseline.value().rows.tuples());
      EXPECT_TRUE(cold.value().rows.tuples() == baseline.value().rows.tuples());
      EXPECT_GT(sighting.value().profile.recycler_misses, 0u);
      EXPECT_EQ(sighting.value().profile.recycler_hits, 0u);
      EXPECT_TRUE(warm.value().rows.tuples() == baseline.value().rows.tuples());
      EXPECT_GT(cold.value().profile.recycler_misses, 0u);
      EXPECT_GT(warm.value().profile.recycler_hits, 0u);
      EXPECT_EQ(warm.value().profile.recycler_misses, 0u);
    }
    EXPECT_GT(on->recycler_stats().published, 0u);
    EXPECT_GT(on->recycler_stats().deferred, 0u);
    EXPECT_EQ(off->recycler_stats().published, 0u);
  }
}

TEST(RecyclerTest, JoinBuildSidesRecycleAcrossPlanExecutions) {
  // SQL never reaches kThetaJoin/kNaturalJoin directly (comma joins lower to
  // Select over Product), so exercise the hash-join build-side recycling at
  // the plan level: the same catalog + recycler across ExecutePlan calls.
  Catalog catalog;
  DataGen gen(23);
  catalog.Put("r1", gen.DividendWithHits(160, 17, gen.Divisor(24, 48), 48, 0.4));
  catalog.Put("r3", gen.RandomRelation(Schema::Parse("b:int, c:int"), 96, 48));
  PlannerOptions off;
  PlannerOptions on;
  on.recycler = std::make_shared<ArtifactRecycler>(64ull << 20);
  const std::vector<PlanPtr> plans = {
      // Equi theta join -> EquiJoinIterator ("join.equi" build key).
      LogicalOp::ThetaJoin(LogicalOp::Scan(catalog, "r1"),
                           LogicalOp::Rename(LogicalOp::Scan(catalog, "r3"),
                                             {{"b", "b2"}, {"c", "c2"}}),
                           Expr::ColEqCol("b", "b2")),
      // Natural join on the shared attribute -> EquiJoinIterator on the
      // common names ("join.natural" build key).
      LogicalOp::NaturalJoin(LogicalOp::Scan(catalog, "r1"),
                             LogicalOp::Scan(catalog, "r3")),
  };
  // Plan-level executions carry no QueryContext, so the per-query profile
  // counters stay zero; assert through the recycler's own stats deltas.
  for (const PlanPtr& plan : plans) {
    Relation sighting = ExecutePlan(plan, catalog, on);  // built privately
    RecyclerStats before = on.recycler->stats();
    EXPECT_GT(before.deferred, 0u);
    Relation baseline = ExecutePlan(plan, catalog, off);
    Relation cold = ExecutePlan(plan, catalog, on);
    RecyclerStats after_cold = on.recycler->stats();
    Relation warm = ExecutePlan(plan, catalog, on);
    RecyclerStats after_warm = on.recycler->stats();
    EXPECT_GT(after_cold.misses, before.misses);
    EXPECT_GT(after_warm.hits, after_cold.hits);
    EXPECT_EQ(after_warm.misses, after_cold.misses);  // warm run missed nothing
    EXPECT_TRUE(sighting.tuples() == baseline.tuples());
    EXPECT_TRUE(cold.tuples() == baseline.tuples());
    EXPECT_TRUE(warm.tuples() == baseline.tuples());
  }
  EXPECT_EQ(on.recycler->stats().published, plans.size());
}

TEST(RecyclerTest, DdlInvalidatesCachedArtifacts) {
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  Session session(db);
  ASSERT_TRUE(session.Execute(kDivideSql).ok());  // sighting
  ASSERT_TRUE(session.Execute(kDivideSql).ok());  // publishes
  Result<QueryResult> warm = session.Execute(kDivideSql);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm.value().profile.recycler_hits, 0u);

  // Growing the divisor changes the quotient; the old artifacts must not
  // serve the new statement (their keys carry the old data version, and
  // the DDL reclaims their memory eagerly).
  size_t invalidated_before = db->recycler_stats().invalidated;
  ASSERT_TRUE(db->InsertRows("r2", {{Value::Int(47)}}).ok());
  EXPECT_GT(db->recycler_stats().invalidated, invalidated_before);

  Result<QueryResult> after = session.Execute(kDivideSql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().profile.recycler_hits, 0u);  // cold again
  EXPECT_GT(after.value().profile.recycler_misses, 0u);
  // And the fresh artifacts match a recycling-free execution exactly.
  std::shared_ptr<Database> off = MakeDatabase(0);
  ASSERT_TRUE(off->InsertRows("r2", {{Value::Int(47)}}).ok());
  Session plain(off);
  Result<QueryResult> baseline = plain.Execute(kDivideSql);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(after.value().rows.tuples() == baseline.value().rows.tuples());
}

TEST(RecyclerTest, ConcurrentSessionsBuildOnce) {
  // Eight sessions race the same grouping statement; the aggregation
  // artifact must be built exactly once (one miss), with every other
  // session adopting it (seven hits) — the promise/shared_future discipline
  // under real concurrency. One serial execution first sights the shape,
  // so the raced build is the publishing one.
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  const char* sql = "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a";
  ASSERT_TRUE(Session(db).Execute(sql).ok());
  const RecyclerStats sighted = db->recycler_stats();
  ASSERT_EQ(sighted.deferred, 1u);
  ASSERT_EQ(sighted.published, 0u);
  constexpr size_t kSessions = 8;
  std::vector<Relation> results(kSessions);
  std::vector<Status> statuses(kSessions, Status::Ok());
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        Session session(db);
        Result<QueryResult> result = session.Execute(sql);
        if (!result.ok()) {
          statuses[i] = result.status();
          return;
        }
        results[i] = std::move(result.value().rows);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].message();
    EXPECT_TRUE(results[i].tuples() == results[0].tuples());
  }
  RecyclerStats stats = db->recycler_stats();
  EXPECT_EQ(stats.misses - sighted.misses, 1u);
  EXPECT_EQ(stats.hits - sighted.hits, kSessions - 1);
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.deferred, 1u);
}

TEST(RecyclerTest, EvictionKeepsResidentBytesUnderBudget) {
  // A budget big enough for a few grouping artifacts but not for all eight
  // tables' worth: the LRU must evict, the byte account must stay under
  // budget, and every query must stay correct while it happens.
  DatabaseOptions options;
  options.recycler_memory_bytes = 48 * 1024;
  auto db = std::make_shared<Database>(options);
  DataGen gen(31);
  Schema schema = Schema::Parse("a:int, b:int");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db->CreateTable("t" + std::to_string(i),
                                gen.RandomRelation(schema, 400, 200))
                    .ok());
  }
  Session session(db);
  for (int i = 0; i < 8; ++i) {  // sight every table's statement once
    ASSERT_TRUE(
        session.Execute("SELECT a, COUNT(b) AS n FROM t" + std::to_string(i) + " GROUP BY a")
            .ok());
  }
  EXPECT_EQ(db->recycler_stats().bytes, 0u);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) {
      std::string sql =
          "SELECT a, COUNT(b) AS n FROM t" + std::to_string(i) + " GROUP BY a";
      Result<QueryResult> result = session.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.error();
      RecyclerStats stats = db->recycler_stats();
      EXPECT_LE(stats.bytes, options.recycler_memory_bytes);
    }
  }
  RecyclerStats stats = db->recycler_stats();
  EXPECT_GT(stats.published, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 8u);
  // Spot-check correctness against a recycling-free run after the churn.
  DatabaseOptions off_options;
  off_options.recycler_memory_bytes = 0;
  auto off = std::make_shared<Database>(off_options);
  DataGen gen2(31);
  ASSERT_TRUE(off->CreateTable("t0", gen2.RandomRelation(schema, 400, 200)).ok());
  Session plain(off);
  Result<QueryResult> expect = plain.Execute("SELECT a, COUNT(b) AS n FROM t0 GROUP BY a");
  Result<QueryResult> got = session.Execute("SELECT a, COUNT(b) AS n FROM t0 GROUP BY a");
  ASSERT_TRUE(expect.ok() && got.ok());
  EXPECT_TRUE(got.value().rows.tuples() == expect.value().rows.tuples());
}

TEST(RecyclerTest, ExplainAnalyzeSurfacesRecyclerCounters) {
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  Session session(db);
  ASSERT_TRUE(session.Execute(kDivideSql).ok());
  Result<QueryResult> analyzed =
      session.Execute(std::string("EXPLAIN ANALYZE ") + kDivideSql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.error();
  std::string text;
  for (const Tuple& t : analyzed.value().rows.tuples()) text += t[1].ToString() + "\n";
  EXPECT_NE(text.find("recycler="), std::string::npos) << text;
  EXPECT_NE(text.find("hits"), std::string::npos) << text;
}

struct ScopedDisarm {
  explicit ScopedDisarm(FaultInjector* injector) : injector_(injector) {}
  ~ScopedDisarm() { injector_->Disarm(); }
  FaultInjector* injector_;
};

// A fault at either recycler site must unwind with the deterministic
// message, leave the cache unpoisoned (the next execution succeeds, builds
// fresh, and publishes), and behave identically at 1, 2, and 8 workers.
TEST(RecyclerFaultTest, FaultedPublishNeverPoisonsTheCache) {
  ScopedMorselRows morsels(16);
  ScopedBatchRows batches(16);
  for (const char* site : {"recycler.lookup", "recycler.publish"}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(std::string(site) + " at threads=" + std::to_string(threads));
      ScopedExecThreads scoped_threads(threads);
      std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
      FaultInjector injector;
      ScopedDisarm disarm(&injector);
      SessionOptions options;
      options.fault_injector = &injector;
      Session session(db, options);
      ASSERT_TRUE(session.Execute(kDivideSql).ok());  // sighting, kept private
      ASSERT_EQ(db->recycler_stats().entries, 0u);

      injector.Arm(site, 1);
      Result<QueryResult> faulted = session.Execute(kDivideSql);
      ASSERT_FALSE(faulted.ok());
      EXPECT_EQ(faulted.status().message(), std::string("injected fault at ") + site);
      // Nothing half-built may be visible.
      EXPECT_EQ(db->recycler_stats().entries, 0u);
      EXPECT_EQ(db->recycler_stats().published, 0u);

      // Disarmed, the same statement rebuilds and publishes...
      injector.Disarm();
      Result<QueryResult> rebuilt = session.Execute(kDivideSql);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.error();
      EXPECT_GT(db->recycler_stats().published, 0u);
      // ...and the published artifacts serve the next execution.
      Result<QueryResult> warm = session.Execute(kDivideSql);
      ASSERT_TRUE(warm.ok());
      EXPECT_GT(warm.value().profile.recycler_hits, 0u);
      EXPECT_TRUE(warm.value().rows.tuples() == rebuilt.value().rows.tuples());
    }
  }
}


// ---- admission on the second sighting of a version-free shape ----

/// Every miss of a serial run is exactly one of published, deferred or
/// rejected (only waiters of a concurrent build escape the identity).
void ExpectMissesAccounted(const RecyclerStats& stats) {
  EXPECT_EQ(stats.deferred + stats.published + stats.rejected, stats.misses);
}

TEST(RecyclerAdmissionTest, DistinctLiteralsNeverPublish) {
  // Every fragment of these statements carries its own literal, so no shape
  // recurs: each build stays private and nothing becomes resident.
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  Session session(db);
  constexpr int kStatements = 40;
  size_t lookups = 0;
  for (int k = 0; k < kStatements; ++k) {
    Result<QueryResult> result = session.Execute(
        "SELECT a, COUNT(b) AS n FROM r1 WHERE b < " + std::to_string(k) + " GROUP BY a");
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(result.value().profile.recycler_hits, 0u);
    lookups += result.value().profile.recycler_hits + result.value().profile.recycler_misses;
  }
  RecyclerStats stats = db->recycler_stats();
  // hits + misses still count every lookup exactly once.
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  EXPECT_EQ(stats.misses, static_cast<size_t>(kStatements));
  EXPECT_EQ(stats.deferred, static_cast<size_t>(kStatements));
  EXPECT_EQ(stats.published, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.entries, 0u);
  ExpectMissesAccounted(stats);
}

TEST(RecyclerAdmissionTest, SecondSightingPublishesThirdAdopts) {
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  Session session(db);
  const char* sql = "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a";

  Result<QueryResult> first = session.Execute(sql);
  ASSERT_TRUE(first.ok()) << first.error();
  RecyclerStats stats = db->recycler_stats();
  EXPECT_EQ(first.value().profile.recycler_misses, 1u);
  EXPECT_EQ(stats.deferred, 1u);
  EXPECT_EQ(stats.published, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  ExpectMissesAccounted(stats);

  Result<QueryResult> second = session.Execute(sql);
  ASSERT_TRUE(second.ok()) << second.error();
  stats = db->recycler_stats();
  EXPECT_EQ(second.value().profile.recycler_misses, 1u);
  EXPECT_EQ(second.value().profile.recycler_hits, 0u);
  EXPECT_EQ(stats.deferred, 1u);
  EXPECT_EQ(stats.published, 1u);
  EXPECT_GT(stats.bytes, 0u);
  ExpectMissesAccounted(stats);

  Result<QueryResult> third = session.Execute(sql);
  ASSERT_TRUE(third.ok()) << third.error();
  stats = db->recycler_stats();
  EXPECT_EQ(third.value().profile.recycler_hits, 1u);
  EXPECT_EQ(third.value().profile.recycler_misses, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.published, 1u);
  ExpectMissesAccounted(stats);

  EXPECT_TRUE(second.value().rows.tuples() == first.value().rows.tuples());
  EXPECT_TRUE(third.value().rows.tuples() == first.value().rows.tuples());
}

TEST(RecyclerAdmissionTest, CommitKeepsAdmissionOfARecurringShape) {
  // The doorkeeper counts version-free shapes: after a commit to every
  // scanned table, a text that already recurs publishes on its first read
  // under the new data versions, without a fresh sighting.
  const std::vector<const char*> texts = {kDivideSql,
                                          "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a"};
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  Session session(db);
  for (const char* sql : texts) {
    ASSERT_TRUE(session.Execute(sql).ok());  // sighting
    ASSERT_TRUE(session.Execute(sql).ok());  // publishes
  }
  const RecyclerStats before = db->recycler_stats();
  ASSERT_GT(before.published, 0u);

  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO r1 VALUES (9001, 1)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO r2 VALUES (47)").ok());
  ASSERT_TRUE(session.Execute("COMMIT").ok());

  std::shared_ptr<Database> off = MakeDatabase(0);
  ASSERT_TRUE(off->InsertRows("r1", {{Value::Int(9001), Value::Int(1)}}).ok());
  ASSERT_TRUE(off->InsertRows("r2", {{Value::Int(47)}}).ok());
  Session plain(off);
  for (const char* sql : texts) {
    SCOPED_TRACE(sql);
    Result<QueryResult> after = session.Execute(sql);
    ASSERT_TRUE(after.ok()) << after.error();
    EXPECT_EQ(after.value().profile.recycler_hits, 0u);  // old versions are unaddressable
    Result<QueryResult> warm = session.Execute(sql);
    ASSERT_TRUE(warm.ok()) << warm.error();
    EXPECT_GT(warm.value().profile.recycler_hits, 0u);
    EXPECT_EQ(warm.value().profile.recycler_misses, 0u);
    Result<QueryResult> baseline = plain.Execute(sql);
    ASSERT_TRUE(baseline.ok()) << baseline.error();
    EXPECT_TRUE(after.value().rows.tuples() == baseline.value().rows.tuples());
    EXPECT_TRUE(warm.value().rows.tuples() == baseline.value().rows.tuples());
  }
  RecyclerStats stats = db->recycler_stats();
  EXPECT_EQ(stats.published, 2 * before.published);  // every artifact again
  EXPECT_EQ(stats.deferred, before.deferred);          // no fresh sighting
  ExpectMissesAccounted(stats);
}

TEST(RecyclerAdmissionTest, OneOffShapesBeyondTheResetCountStayPrivate) {
  // More distinct one-off shapes than every shard's doorkeeper holds before
  // it clears: none is ever published, a shape seen twice still is, the
  // clears never drop a resident entry, and they do forget sightings.
  ArtifactRecycler recycler(64ull << 20);
  auto build = [] {
    auto artifact = std::make_shared<GroupingArtifact>();
    artifact->rows.push_back(Tuple{Value::Int(1)});
    return artifact;
  };
  auto get = [&](const std::string& key) {
    return recycler.GetOrBuild(key, FingerprintHash(key), {"t"}, build);
  };
  ASSERT_NE(get("recurring"), nullptr);  // sighting
  ASSERT_NE(get("recurring"), nullptr);  // publishes
  ASSERT_EQ(recycler.stats().published, 1u);
  const size_t resident = recycler.stats().bytes;
  ASSERT_NE(get("forgotten"), nullptr);  // sighted once, before the clears

  const size_t one_offs =
      2 * ArtifactRecycler::kShards * ArtifactRecycler::kDoorkeeperResetCount;
  for (size_t i = 0; i < one_offs; ++i) ASSERT_NE(get("one-off|" + std::to_string(i)), nullptr);
  RecyclerStats stats = recycler.stats();
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.deferred, one_offs + 2);
  EXPECT_EQ(stats.bytes, resident);
  EXPECT_EQ(stats.entries, 1u);
  ExpectMissesAccounted(stats);

  // The resident entry survived every clear...
  get("recurring");
  EXPECT_EQ(recycler.stats().hits, stats.hits + 1);
  // ...a sighting from before them is forgotten, so its shape's next build
  // is a first sighting again...
  get("forgotten");
  EXPECT_EQ(recycler.stats().deferred, stats.deferred + 1);
  EXPECT_EQ(recycler.stats().published, 1u);
  // ...and a shape sighted after them is admitted on its second sighting.
  get("late");
  get("late");
  EXPECT_EQ(recycler.stats().published, 2u);
}

TEST(RecyclerAdmissionTest, ClearKeepsSightings) {
  // The cold-start reset drops artifacts, not sightings: the next build of
  // a shape seen before publishes again.
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  Session session(db);
  const char* sql = "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a";
  ASSERT_TRUE(session.Execute(sql).ok());
  ASSERT_TRUE(session.Execute(sql).ok());
  ASSERT_EQ(db->recycler_stats().published, 1u);
  db->ClearRecycler();
  EXPECT_EQ(db->recycler_stats().bytes, 0u);
  ASSERT_TRUE(session.Execute(sql).ok());
  EXPECT_EQ(db->recycler_stats().published, 2u);
  EXPECT_EQ(db->recycler_stats().deferred, 1u);
}

TEST(RecyclerAdmissionTest, BitIdenticalToRecyclerOffAcrossThreadCounts) {
  // Recurring texts interleaved with one-offs: every execution, private,
  // publishing or adopting, returns the recycler-off rows in the same order.
  ScopedMorselRows morsels(16);
  ScopedBatchRows batches(16);
  std::vector<std::string> texts(kCorpus.begin(), kCorpus.end());
  for (int k = 0; k < 3; ++k) {
    for (const char* dividend : {"r1", "r1t"}) {
      texts.push_back(std::string("SELECT a FROM ") + dividend +
                      " AS x DIVIDE BY (SELECT b FROM r2 WHERE b > " + std::to_string(4 * k) +
                      ") AS y ON x.b = y.b");
    }
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    std::shared_ptr<Database> off = MakeDatabase(0);
    std::shared_ptr<Database> on = MakeDatabase(64ull << 20);
    Session plain(off);
    Session recycled(on);
    for (int pass = 0; pass < 3; ++pass) {
      for (const std::string& sql : texts) {
        SCOPED_TRACE(sql + " pass " + std::to_string(pass));
        Result<QueryResult> baseline = plain.Execute(sql);
        Result<QueryResult> got = recycled.Execute(sql);
        ASSERT_TRUE(baseline.ok()) << baseline.error();
        ASSERT_TRUE(got.ok()) << got.error();
        EXPECT_TRUE(got.value().rows.tuples() == baseline.value().rows.tuples());
      }
    }
    RecyclerStats stats = on->recycler_stats();
    EXPECT_GT(stats.deferred, 0u);
    EXPECT_GT(stats.published, 0u);
    EXPECT_GT(stats.hits, 0u);
    ExpectMissesAccounted(stats);
  }
}

// ---------------------------------------------------------------------------
// RecyclerProbation: published artifacts enter a probation segment, a first
// hit promotes them, and never-hit ones are evicted first and hold at most
// a quarter of the budget.
// ---------------------------------------------------------------------------

/// An artifact of a fixed accounted size.
struct SizedArtifact : RecycledArtifact {
  explicit SizedArtifact(size_t bytes) : bytes(bytes) {}
  size_t bytes;
  size_t ApproxBytes() const override { return bytes; }
  bool SpilledToDisk() const override { return false; }
  void DetachBuildCharges() override {}
};

TEST(RecyclerProbation, NeverHitFloodCannotEvictAHitEntry) {
  constexpr size_t kBudget = 100000;
  ArtifactRecycler recycler(kBudget);
  size_t builds = 0;
  auto get = [&](const std::string& key, size_t bytes) {
    return recycler.GetOrBuild(key, FingerprintHash(key), {"t"}, [&] {
      ++builds;
      return std::make_shared<SizedArtifact>(bytes);
    });
  };
  get("hot", 20000);  // sighting
  get("hot", 20000);  // publishes onto probation
  EXPECT_EQ(recycler.stats().probation_bytes, 20000u);
  get("hot", 20000);  // first hit: promoted
  EXPECT_EQ(recycler.stats().probation_bytes, 0u);
  ASSERT_EQ(builds, 2u);

  // A hundred artifacts, each published and never hit again: ten times the
  // budget passes through the cache.
  for (int i = 0; i < 100; ++i) {
    const std::string key = "flood|" + std::to_string(i);
    get(key, 10000);
    get(key, 10000);
    RecyclerStats stats = recycler.stats();
    EXPECT_LE(stats.probation_bytes, kBudget / ArtifactRecycler::kProbationShare) << key;
    EXPECT_LE(stats.bytes, kBudget) << key;
  }
  RecyclerStats stats = recycler.stats();
  EXPECT_EQ(stats.published, 101u);
  EXPECT_GE(stats.evictions, 98u);
  EXPECT_EQ(stats.bytes, 20000 + stats.probation_bytes);
  const size_t before = builds;
  get("hot", 20000);
  EXPECT_EQ(builds, before) << "the hit entry was evicted by never-hit ones";
}

TEST(RecyclerProbation, ArtifactLargerThanTheShareStillPublishes) {
  // One artifact above the probation share displaces every never-hit entry
  // but is itself admitted, and its first hit promotes it.
  constexpr size_t kBudget = 100000;
  ArtifactRecycler recycler(kBudget);
  auto get = [&](const std::string& key, size_t bytes) {
    return recycler.GetOrBuild(key, FingerprintHash(key), {"t"},
                               [&] { return std::make_shared<SizedArtifact>(bytes); });
  };
  for (const char* key : {"a", "b"}) {
    get(key, 10000);
    get(key, 10000);
  }
  ASSERT_EQ(recycler.stats().probation_bytes, 20000u);
  get("big", 60000);
  get("big", 60000);
  RecyclerStats stats = recycler.stats();
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(stats.probation_bytes, 60000u);
  EXPECT_EQ(stats.entries, 1u);
  get("big", 60000);
  EXPECT_EQ(recycler.stats().probation_bytes, 0u);
  EXPECT_EQ(recycler.stats().bytes, 60000u);
}

TEST(RecyclerProbation, ShareHoldsAfterEveryPublishUnderSessionChurn) {
  // Eight sessions each publish a stream of one-off fragments (every text
  // runs twice: a sighting, then the publishing build) between repeats of
  // one shared hot statement. After every statement the never-hit bytes
  // are within a quarter of the budget, and the hot artifact stays hit.
  constexpr size_t kBudget = 256 * 1024;
  std::shared_ptr<Database> db = MakeDatabase(kBudget);
  const char* hot = "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a";
  ASSERT_TRUE(Session(db).Execute(hot).ok());
  ASSERT_TRUE(Session(db).Execute(hot).ok());
  constexpr size_t kSessions = 8;
  constexpr int kOneOffs = 12;
  std::atomic<size_t> over_share{0};
  std::atomic<size_t> max_probation{0};
  std::atomic<size_t> failures{0};
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        Session session(db);
        auto run = [&](const std::string& sql) {
          if (!session.Execute(sql).ok()) failures.fetch_add(1);
          size_t probation = db->recycler_stats().probation_bytes;
          if (probation > kBudget / ArtifactRecycler::kProbationShare) over_share.fetch_add(1);
          size_t seen = max_probation.load();
          while (probation > seen && !max_probation.compare_exchange_weak(seen, probation)) {
          }
        };
        for (int k = 0; k < kOneOffs; ++k) {
          const std::string lit = std::to_string(1000 * (i + 1) + static_cast<size_t>(k));
          const std::string group =
              "SELECT a, COUNT(b) AS n FROM r1 WHERE a < " + lit + " GROUP BY a";
          const std::string divide = "SELECT a FROM r1 AS x DIVIDE BY (SELECT b FROM r2 "
                                     "WHERE b < " + lit + ") AS y ON x.b = y.b";
          for (const std::string& sql : {group, group, divide, divide}) run(sql);
          run(hot);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(over_share.load(), 0u);
  RecyclerStats stats = db->recycler_stats();
  EXPECT_GT(stats.evictions, 0u) << "the churn never filled the probation share";
  EXPECT_GT(max_probation.load(), kBudget / ArtifactRecycler::kProbationShare / 2);
  EXPECT_LE(stats.bytes, kBudget);
  ExpectMissesAccounted(stats);
  const RecyclerStats before = db->recycler_stats();
  Result<QueryResult> last = Session(db).Execute(hot);
  ASSERT_TRUE(last.ok()) << last.error();
  EXPECT_GT(last.value().profile.recycler_hits, 0u);
  EXPECT_EQ(db->recycler_stats().misses, before.misses);
}

TEST(RecyclerProbation, BitIdenticalToRecyclerOffAcrossThreadCounts) {
  // A budget small enough that probation evicts on most publishes: every
  // execution still returns the recycler-off rows in the same order.
  constexpr size_t kBudget = 256 * 1024;
  ScopedMorselRows morsels(16);
  ScopedBatchRows batches(16);
  std::vector<std::string> texts(kCorpus.begin(), kCorpus.end());
  for (int k = 0; k < 6; ++k) {
    const std::string lit = std::to_string(4 * k);
    // Both division paths; the matrix path's probe artifacts (r1t) are the
    // never-reused publications that fill the probation share.
    for (const char* dividend : {"r1", "r1t"}) {
      texts.push_back(std::string("SELECT a FROM ") + dividend +
                      " AS x DIVIDE BY (SELECT b FROM r2 WHERE b > " + lit +
                      ") AS y ON x.b = y.b");
    }
    texts.push_back("SELECT a, COUNT(b) AS n FROM r1 WHERE b > " + lit + " GROUP BY a");
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    std::shared_ptr<Database> off = MakeDatabase(0);
    std::shared_ptr<Database> on = MakeDatabase(kBudget);
    Session plain(off);
    Session recycled(on);
    // Each text runs three times in a row (private, publishing, adopting),
    // and two passes let later publishes evict what earlier ones promoted.
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& sql : texts) {
        SCOPED_TRACE(sql + " pass " + std::to_string(pass));
        Result<QueryResult> baseline = plain.Execute(sql);
        ASSERT_TRUE(baseline.ok()) << baseline.error();
        for (int run = 0; run < 3; ++run) {
          Result<QueryResult> got = recycled.Execute(sql);
          ASSERT_TRUE(got.ok()) << got.error();
          EXPECT_TRUE(got.value().rows.tuples() == baseline.value().rows.tuples()) << run;
        }
        EXPECT_LE(on->recycler_stats().probation_bytes,
                  kBudget / ArtifactRecycler::kProbationShare);
      }
    }
    RecyclerStats stats = on->recycler_stats();
    EXPECT_GT(stats.published, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);
    ExpectMissesAccounted(stats);
  }
}

}  // namespace
}  // namespace quotient
