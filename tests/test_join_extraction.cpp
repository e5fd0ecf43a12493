// Join extraction: comma joins (σθ over ×) compile to pushed-down
// selections plus a hash equi-join. Every case runs through a Session at
// threads {1, 4} with the artifact recycler on and off, and must match both
// the oracle interpreter (sql::ExecuteQueryOracle via ExecuteSql) and the
// reference algebra over the lowered plan (plan::Evaluate) bit for bit.
// Plan shapes are asserted through the operator profile, which carries row
// counts and no timings.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "exec/pipeline.hpp"
#include "exec/scheduler.hpp"
#include "opt/cost.hpp"
#include "opt/planner.hpp"
#include "plan/evaluate.hpp"
#include "sql/interp.hpp"

namespace quotient {
namespace {

constexpr const char* kRule = "join-extraction";

/// supplies(s#, p#) over 40 suppliers x 12 parts, parts(p#, color) and
/// shades(color, tone) — small enough for the oracle's full products, big
/// enough that a cross product and a hash join differ in work.
Catalog MakeCatalog() {
  std::mt19937_64 rng(7);
  std::bernoulli_distribution pick(0.35);
  std::vector<Tuple> supplies;
  for (int64_t s = 1; s <= 40; ++s) {
    for (int64_t p = 1; p <= 12; ++p) {
      if (s % 8 == 0 || pick(rng)) supplies.push_back({Value::Int(s), Value::Int(p)});
    }
  }
  static const char* kColors[] = {"blue", "red", "green"};
  std::vector<Tuple> parts;
  for (int64_t p = 1; p <= 12; ++p) parts.push_back({Value::Int(p), Value::Str(kColors[p % 3])});
  Catalog catalog;
  catalog.Put("supplies", Relation(Schema::Parse("s#:int, p#:int"), std::move(supplies)));
  catalog.Put("parts", Relation(Schema::Parse("p#:int, color:string"), std::move(parts)));
  catalog.Put("shades", Relation::FromRows("color:string, tone:int",
                                           {{Value::Str("blue"), Value::Int(1)},
                                            {Value::Str("blue"), Value::Int(2)},
                                            {Value::Str("red"), Value::Int(3)},
                                            {Value::Str("green"), Value::Int(4)}}));
  return catalog;
}

/// A Session over a fresh Database mirroring `catalog`.
Session MakeSession(const Catalog& catalog, bool recycler) {
  DatabaseOptions options;
  if (!recycler) options.recycler_memory_bytes = 0;
  Session session(std::make_shared<Database>(options));
  for (const std::string& name : catalog.Names()) {
    EXPECT_TRUE(session.CreateTable(name, catalog.Get(name)).ok());
  }
  return session;
}

/// Runs `query` twice (plan-cache miss, then hit) in every configuration
/// and checks both runs against the oracle and against plan::Evaluate of
/// the lowered plan. Returns the compile story of the last run.
CompileInfo ExpectAllAgree(const Catalog& catalog, const std::string& query) {
  Result<Relation> oracle = sql::ExecuteSql(query, catalog);
  EXPECT_TRUE(oracle.ok()) << query << "\n" << (oracle.ok() ? "" : oracle.error());
  CompileInfo info;
  if (!oracle.ok()) return info;
  for (size_t threads : {1u, 4u}) {
    for (bool recycler : {true, false}) {
      ScopedExecThreads scoped_threads(threads);
      Session session = MakeSession(catalog, recycler);
      for (int run = 0; run < 2; ++run) {
        Result<QueryResult> result = session.Execute(query);
        EXPECT_TRUE(result.ok()) << query << "\n" << (result.ok() ? "" : result.error());
        if (!result.ok()) return info;
        const QueryResult& r = result.value();
        EXPECT_TRUE(r.compile.compiled) << query << "\n" << r.compile.fallback_reason;
        EXPECT_EQ(r.compile.cache_hit, run == 1) << query;
        EXPECT_EQ(r.rows, oracle.value())
            << query << "\nthreads " << threads << " recycler " << recycler << " run " << run;
        EXPECT_EQ(r.rows, Evaluate(r.compile.lowered, catalog)) << query;
        info = r.compile;
      }
    }
  }
  return info;
}

size_t CountFires(const CompileInfo& info) {
  size_t fires = 0;
  for (const RewriteStep& step : info.rewrites) fires += step.rule == kRule;
  return fires;
}

/// The operator profile of one execution (EXPLAIN ANALYZE's "operator
/// profile" block): operator names with row counts, no timings.
std::string OperatorProfile(const Catalog& catalog, const std::string& query) {
  Session session = MakeSession(catalog, /*recycler=*/true);
  Result<QueryResult> result = session.Execute(query);
  EXPECT_TRUE(result.ok()) << query;
  return result.ok() ? result.value().profile.explain : "";
}

/// The plan below the SELECT list's projection and renaming.
PlanPtr Body(PlanPtr plan) {
  while (plan->kind() == LogicalOp::Kind::kProject || plan->kind() == LogicalOp::Kind::kRename) {
    plan = plan->child(0);
  }
  return plan;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// The README shape: the filter written as one more conjunct of the join.
constexpr const char* kReadmeShape =
    "SELECT s.s#, p.color FROM supplies AS s, parts AS p "
    "WHERE s.p# = p.p# AND s.s# <= 20";

TEST(JoinExtraction, TwoWayEquiJoin) {
  Catalog catalog = MakeCatalog();
  CompileInfo info =
      ExpectAllAgree(catalog, "SELECT s.s#, p.color FROM supplies AS s, parts AS p "
                              "WHERE s.p# = p.p#");
  EXPECT_EQ(CountFires(info), 1u);
  EXPECT_EQ(Body(info.optimized)->kind(), LogicalOp::Kind::kThetaJoin)
      << info.optimized->ToString();
}

TEST(JoinExtraction, ReadmeShapePlansFilterBelowEquiJoin) {
  Catalog catalog = MakeCatalog();
  CompileInfo info = ExpectAllAgree(catalog, kReadmeShape);
  EXPECT_EQ(CountFires(info), 1u);
  EXPECT_LT(info.optimized_cost, info.lowered_cost);

  std::string profile = OperatorProfile(catalog, kReadmeShape);
  EXPECT_FALSE(Contains(profile, "CrossProduct")) << profile;
  EXPECT_FALSE(Contains(profile, "NestedLoopJoin")) << profile;
  // EquiJoin at depth d. The pushed filter s.s# <= 20 sits on its probe
  // side, σ over ρ(supplies): the planner absorbs it into the scan, so the
  // probe side is Rename (one level down) over a RangeScan (two levels
  // down), and no Filter is left anywhere.
  size_t join = profile.find("EquiJoin");
  ASSERT_NE(join, std::string::npos) << profile;
  size_t join_line = profile.rfind('\n', join) + 1;  // npos + 1 == 0
  size_t join_depth = join - join_line;
  size_t range = profile.find("RangeScan", join);
  ASSERT_NE(range, std::string::npos) << profile;
  size_t range_line = profile.rfind('\n', range) + 1;
  EXPECT_EQ(range - range_line, join_depth + 4) << profile;
  EXPECT_EQ(profile.find("RangeScan", range + 1), std::string::npos) << profile;
  EXPECT_FALSE(Contains(profile, "Filter")) << profile;

  // EXPLAIN ANALYZE renders the same operator profile.
  Session session = MakeSession(catalog, /*recycler=*/true);
  Result<QueryResult> explained =
      session.Execute(std::string("EXPLAIN ANALYZE ") + kReadmeShape);
  ASSERT_TRUE(explained.ok());
  std::string text;
  for (const Tuple& row : explained.value().rows.tuples()) text += row[1].as_str() + "\n";
  EXPECT_TRUE(Contains(text, "join-extraction")) << text;
  EXPECT_TRUE(Contains(text, "EquiJoin")) << text;
  EXPECT_TRUE(Contains(text, "RangeScan")) << text;
  EXPECT_FALSE(Contains(text, "CrossProduct")) << text;
}

TEST(JoinExtraction, DerivedTableFilter) {
  Catalog catalog = MakeCatalog();
  const std::string query =
      "SELECT s.s#, p.color FROM (SELECT s#, p# FROM supplies WHERE s# <= 20) AS s, "
      "parts AS p WHERE s.p# = p.p#";
  CompileInfo info = ExpectAllAgree(catalog, query);
  EXPECT_EQ(CountFires(info), 1u);
  std::string profile = OperatorProfile(catalog, query);
  EXPECT_TRUE(Contains(profile, "EquiJoin")) << profile;
  EXPECT_FALSE(Contains(profile, "CrossProduct")) << profile;
}

TEST(JoinExtraction, ThreeWayFiresOncePerBinaryJoin) {
  Catalog catalog = MakeCatalog();
  const std::string query =
      "SELECT s.s#, h.tone FROM supplies AS s, parts AS p, shades AS h "
      "WHERE s.p# = p.p# AND p.color = h.color AND h.tone >= 2 AND s.s# > 10";
  CompileInfo info = ExpectAllAgree(catalog, query);
  EXPECT_EQ(CountFires(info), 2u);
  std::string profile = OperatorProfile(catalog, query);
  EXPECT_EQ(profile.find("CrossProduct"), std::string::npos) << profile;
  size_t first = profile.find("EquiJoin");
  ASSERT_NE(first, std::string::npos) << profile;
  EXPECT_NE(profile.find("EquiJoin", first + 1), std::string::npos) << profile;
}

TEST(JoinExtraction, ResidualNonEquiConjunctStaysOnTop) {
  Catalog catalog = MakeCatalog();
  const std::string query =
      "SELECT s.s#, p.p# FROM supplies AS s, parts AS p "
      "WHERE s.p# = p.p# AND s.s# < p.p# AND p.color = 'blue'";
  CompileInfo info = ExpectAllAgree(catalog, query);
  EXPECT_EQ(CountFires(info), 1u);
  // σ(s.s# < p.p#) over the extracted join.
  PlanPtr select = Body(info.optimized);
  ASSERT_EQ(select->kind(), LogicalOp::Kind::kSelect) << info.optimized->ToString();
  EXPECT_EQ(select->child(0)->kind(), LogicalOp::Kind::kThetaJoin);
  std::string profile = OperatorProfile(catalog, query);
  EXPECT_TRUE(Contains(profile, "EquiJoin")) << profile;
  EXPECT_FALSE(Contains(profile, "CrossProduct")) << profile;
}

TEST(JoinExtraction, NoEqualityKeepsProductWithPushedFilters) {
  Catalog catalog = MakeCatalog();
  const std::string query =
      "SELECT s.s#, p.p# FROM supplies AS s, parts AS p "
      "WHERE s.s# <= 3 AND p.color = 'red' AND s.p# < p.p#";
  CompileInfo info = ExpectAllAgree(catalog, query);
  EXPECT_EQ(CountFires(info), 1u);
  PlanPtr select = Body(info.optimized);
  ASSERT_EQ(select->kind(), LogicalOp::Kind::kSelect) << info.optimized->ToString();
  PlanPtr product = select->child(0);
  ASSERT_EQ(product->kind(), LogicalOp::Kind::kProduct) << info.optimized->ToString();
  EXPECT_EQ(product->left()->kind(), LogicalOp::Kind::kSelect);
  EXPECT_EQ(product->right()->kind(), LogicalOp::Kind::kSelect);
  EXPECT_TRUE(Contains(OperatorProfile(catalog, query), "CrossProduct"));

  // A non-equi condition alone moves nothing: the rule does not fire.
  CompileInfo untouched = ExpectAllAgree(
      catalog, "SELECT s.s#, p.p# FROM supplies AS s, parts AS p WHERE s.p# < p.p#");
  EXPECT_EQ(CountFires(untouched), 0u);
}

TEST(JoinExtraction, SelfJoin) {
  Catalog catalog = MakeCatalog();
  const std::string query =
      "SELECT s1.s#, s2.s# AS peer FROM supplies AS s1, supplies AS s2 "
      "WHERE s1.p# = s2.p# AND s1.s# < s2.s# AND s2.s# <= 16";
  CompileInfo info = ExpectAllAgree(catalog, query);
  EXPECT_EQ(CountFires(info), 1u);
  std::string profile = OperatorProfile(catalog, query);
  EXPECT_TRUE(Contains(profile, "EquiJoin")) << profile;
  EXPECT_FALSE(Contains(profile, "CrossProduct")) << profile;
}

TEST(JoinExtraction, PreparedParameterInPushedConjunct) {
  Catalog catalog = MakeCatalog();
  const std::string templ =
      "SELECT s.s#, p.color FROM supplies AS s, parts AS p WHERE s.p# = p.p# AND s.s# <= ?";
  for (size_t threads : {1u, 4u}) {
    for (bool recycler : {true, false}) {
      ScopedExecThreads scoped_threads(threads);
      Session session = MakeSession(catalog, recycler);
      Result<PreparedStatement> prepared = session.Prepare(templ);
      ASSERT_TRUE(prepared.ok()) << prepared.error();
      for (int64_t bound : {0, 5, 17, 40}) {
        Result<QueryResult> result = prepared.value().Execute({Value::Int(bound)});
        ASSERT_TRUE(result.ok()) << result.error();
        const QueryResult& r = result.value();
        std::string literal =
            "SELECT s.s#, p.color FROM supplies AS s, parts AS p WHERE s.p# = p.p# AND "
            "s.s# <= " + std::to_string(bound);
        Result<Relation> oracle = sql::ExecuteSql(literal, catalog);
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(r.rows, oracle.value()) << bound;
        EXPECT_EQ(r.rows, Evaluate(BindPlanParameters(r.compile.lowered, {Value::Int(bound)}),
                                   catalog))
            << bound;
        EXPECT_EQ(CountFires(r.compile), 1u);
        // The placeholder moved below the join, onto the supplies side.
        PlanPtr join = Body(r.compile.optimized);
        ASSERT_EQ(join->kind(), LogicalOp::Kind::kThetaJoin) << r.compile.optimized->ToString();
        EXPECT_EQ(join->left()->kind(), LogicalOp::Kind::kSelect);
        EXPECT_EQ(CountPlanParameters(join->left()), 1u);
      }
    }
  }
}

TEST(JoinExtraction, RealEqualityStaysResidual) {
  // Reals hash by bit pattern while predicates compare numerically, so a
  // real = real conjunct is never a hash key: the product stays, filtered.
  Catalog catalog;
  catalog.Put("x", Relation::Parse("a:real", "0.5; 1.5; 2.0"));
  catalog.Put("y", Relation::Parse("b:real, c", "0.5,1; 2.0,2; 3.0,3"));
  CompileInfo info =
      ExpectAllAgree(catalog, "SELECT x.a, y.c FROM x, y WHERE x.a = y.b AND y.c >= 2");
  EXPECT_EQ(CountFires(info), 1u);
  PlanPtr select = Body(info.optimized);
  ASSERT_EQ(select->kind(), LogicalOp::Kind::kSelect) << info.optimized->ToString();
  EXPECT_EQ(select->child(0)->kind(), LogicalOp::Kind::kProduct);
}

// ---------------------------------------------------------------------------
// The planner and the cost model on theta joins the rule can produce or
// leave behind.
// ---------------------------------------------------------------------------

TEST(JoinExtraction, PlannerHashesMixedThetaJoin) {
  Catalog catalog = MakeCatalog();
  PlanPtr s = LogicalOp::Scan(catalog, "supplies");
  PlanPtr p = LogicalOp::Rename(LogicalOp::Scan(catalog, "parts"), {{"p#", "q#"}});
  ExprPtr mixed = Expr::And(Expr::ColEqCol("p#", "q#"),
                            Expr::Compare(CmpOp::kLt, Expr::Column("s#"), Expr::Column("q#")));
  PlanPtr join = LogicalOp::ThetaJoin(s, p, mixed);
  for (size_t threads : {1u, 4u}) {
    ScopedExecThreads scoped_threads(threads);
    ExecProfile profile;
    EXPECT_EQ(ExecutePlan(join, catalog, {}, &profile), Evaluate(join, catalog));
    // The equality hashes; the inequality filters the join's output.
    EXPECT_EQ(profile.explain.rfind("Filter", 0), 0u) << profile.explain;
    EXPECT_TRUE(Contains(profile.explain, "  EquiJoin")) << profile.explain;
    EXPECT_FALSE(Contains(profile.explain, "NestedLoopJoin")) << profile.explain;
  }
  // Without any equality the nested loop remains.
  PlanPtr non_equi = LogicalOp::ThetaJoin(
      s, p, Expr::Compare(CmpOp::kLt, Expr::Column("s#"), Expr::Column("q#")));
  ExecProfile profile;
  EXPECT_EQ(ExecutePlan(non_equi, catalog, {}, &profile), Evaluate(non_equi, catalog));
  EXPECT_EQ(profile.explain.rfind("NestedLoopJoin", 0), 0u) << profile.explain;
}

TEST(JoinExtraction, CostChargesNestedLoopWithoutEquality) {
  Catalog catalog = MakeCatalog();
  PlanPtr s = LogicalOp::Scan(catalog, "supplies");
  PlanPtr p = LogicalOp::Rename(LogicalOp::Scan(catalog, "parts"), {{"p#", "q#"}});
  double pairs = static_cast<double>(catalog.Get("supplies").size() * catalog.Get("parts").size());
  double inputs = EstimatePlan(s, catalog).cost + EstimatePlan(p, catalog).cost;
  Estimate non_equi = EstimatePlan(
      LogicalOp::ThetaJoin(s, p, Expr::Compare(CmpOp::kLt, Expr::Column("s#"),
                                               Expr::Column("q#"))),
      catalog);
  EXPECT_DOUBLE_EQ(non_equi.cost, inputs + pairs);
  Estimate equi = EstimatePlan(LogicalOp::ThetaJoin(s, p, Expr::ColEqCol("p#", "q#")), catalog);
  EXPECT_LT(equi.cost, inputs + pairs / 2);
}

}  // namespace
}  // namespace quotient
