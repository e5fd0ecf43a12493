// Section 4 end to end: the DIVIDE BY syntax (Q1, Q2), its equivalence with
// the double-NOT-EXISTS formulation (Q3), and the plannable path through the
// lowering compiler (sql::LowerSql) + rewrite engine + physical planner.

#include <gtest/gtest.h>

#include "algebra/generator.hpp"
#include "api/session.hpp"
#include "core/engine.hpp"
#include "opt/optimizer.hpp"
#include "opt/planner.hpp"
#include "paper_fixtures.hpp"
#include "plan/evaluate.hpp"
#include "sql/interp.hpp"
#include "sql/lower.hpp"

namespace quotient {
namespace {

class SqlQueriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.Put("supplies", paper::SuppliesTable());
    catalog_.Put("parts", paper::PartsTable());
  }
  Catalog catalog_;
};

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

TEST_F(SqlQueriesTest, Q1GreatDivide) {
  Result<Relation> result = sql::ExecuteSql(kQ1, catalog_);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value(), paper::Q1Answer());
}

TEST_F(SqlQueriesTest, Q2SmallDivideWithDerivedDivisor) {
  Result<Relation> result = sql::ExecuteSql(kQ2, catalog_);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value(), paper::Q2Answer());
}

TEST_F(SqlQueriesTest, Q3DoubleNotExistsEqualsQ1) {
  Result<Relation> q3 = sql::ExecuteSql(kQ3, catalog_);
  ASSERT_TRUE(q3.ok()) << q3.error();
  EXPECT_EQ(q3.value(), paper::Q1Answer());
}

TEST_F(SqlQueriesTest, Q1AndQ3AgreeOnRandomDatabases) {
  // The equivalence must hold for every database, not just the fixture.
  DataGen gen(99);
  for (int round = 0; round < 10; ++round) {
    Catalog catalog;
    std::vector<Tuple> supplies;
    for (int64_t s = 1; s <= 4; ++s) {
      for (int64_t p = 1; p <= 5; ++p) {
        if (gen.Chance(0.5)) supplies.push_back({V(s), V(p)});
      }
    }
    std::vector<Tuple> parts;
    for (int64_t p = 1; p <= 5; ++p) {
      parts.push_back({V(p), gen.Chance(0.5) ? V("blue") : V("red")});
    }
    catalog.Put("supplies", Relation(Schema::Parse("s#, p#"), supplies));
    catalog.Put("parts",
                Relation(Schema::Parse("p#:int, color:string"), parts));
    Result<Relation> q1 = sql::ExecuteSql(kQ1, catalog);
    Result<Relation> q3 = sql::ExecuteSql(kQ3, catalog);
    ASSERT_TRUE(q1.ok()) << q1.error();
    ASSERT_TRUE(q3.ok()) << q3.error();
    EXPECT_EQ(q1.value(), q3.value()) << "round " << round;
  }
}

TEST_F(SqlQueriesTest, Q1PlansToGreatDivideNode) {
  Result<PlanPtr> plan = sql::LowerSql(kQ1, catalog_);
  ASSERT_TRUE(plan.ok()) << plan.error();
  // The plan must contain a first-class GreatDivide operator.
  std::string rendered = plan.value()->ToString();
  EXPECT_NE(rendered.find("GreatDivide"), std::string::npos) << rendered;
  // And it evaluates (reference evaluator + physical engine) to the answer.
  EXPECT_EQ(Evaluate(plan.value(), catalog_), paper::Q1Answer());
  EXPECT_EQ(ExecutePlan(plan.value(), catalog_), paper::Q1Answer());
}

TEST_F(SqlQueriesTest, Q2PlansToSmallDivideNode) {
  Result<PlanPtr> plan = sql::LowerSql(kQ2, catalog_);
  ASSERT_TRUE(plan.ok()) << plan.error();
  std::string rendered = plan.value()->ToString();
  EXPECT_NE(rendered.find("Divide"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("GreatDivide"), std::string::npos)
      << "Q2's ON clause covers all divisor attributes: small divide";
  EXPECT_EQ(Evaluate(plan.value(), catalog_), paper::Q2Answer());
  EXPECT_EQ(ExecutePlan(plan.value(), catalog_), paper::Q2Answer());
}

TEST_F(SqlQueriesTest, Q3IsNotPlannable) {
  // The compiler refuses Q3's doubly nested correlated NOT EXISTS — the
  // paper's observation that detecting division inside NOT EXISTS is hard
  // for an optimizer — and the Session records that refusal as the reason
  // it fell back to the oracle interpreter.
  Result<PlanPtr> plan = sql::LowerSql(kQ3, catalog_);
  ASSERT_FALSE(plan.ok());
  Session session;
  ASSERT_TRUE(session.CreateTable("supplies", paper::SuppliesTable()).ok());
  ASSERT_TRUE(session.CreateTable("parts", paper::PartsTable()).ok());
  Result<QueryResult> result = session.Execute(kQ3);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_FALSE(result.value().compile.compiled);
  EXPECT_EQ(result.value().compile.fallback_reason, plan.error());
  EXPECT_EQ(result.value().rows, paper::Q1Answer());
}

TEST_F(SqlQueriesTest, RewriteEngineOnPlannedQuery) {
  // σcolor='red'(Q1) — Law 15 pushes the C-selection into the divisor.
  Result<PlanPtr> plan = sql::LowerSql(kQ1, catalog_);
  ASSERT_TRUE(plan.ok());
  PlanPtr filtered = LogicalOp::Select(
      plan.value(), Expr::ColCmp("color", CmpOp::kEq, Value::Str("red")));
  RewriteEngine engine = RewriteEngine::Default();
  RewriteContext context{&catalog_, /*allow_runtime_checks=*/false};
  std::vector<RewriteStep> trace;
  PlanPtr rewritten = engine.Rewrite(filtered, context, &trace);
  EXPECT_EQ(Evaluate(rewritten, catalog_), Evaluate(filtered, catalog_));
}

TEST_F(SqlQueriesTest, NonEquiOnClauseRejected) {
  Result<Relation> result = sql::ExecuteSql(
      "SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# < p.p#", catalog_);
  EXPECT_FALSE(result.ok()) << "§4: non-equi ON conditions are disallowed";
  EXPECT_FALSE(sql::LowerSql(
                   "SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# < p.p#", catalog_)
                   .ok());
}

TEST_F(SqlQueriesTest, UnknownTableAndColumnErrors) {
  EXPECT_FALSE(sql::ExecuteSql("SELECT x FROM nosuch", catalog_).ok());
  EXPECT_FALSE(sql::ExecuteSql("SELECT nosuchcol FROM parts", catalog_).ok());
  EXPECT_FALSE(sql::ExecuteSql("SELECT FROM parts", catalog_).ok());
  EXPECT_FALSE(sql::LowerSql("SELECT x FROM nosuch", catalog_).ok());
  EXPECT_FALSE(sql::LowerSql("SELECT nosuchcol FROM parts", catalog_).ok());
  EXPECT_FALSE(sql::LowerSql("SELECT FROM parts", catalog_).ok());
}

TEST_F(SqlQueriesTest, GroupByHavingAggregates) {
  Result<Relation> result = sql::ExecuteSql(
      "SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= 2",
      catalog_);
  ASSERT_TRUE(result.ok()) << result.error();
  Relation expected = Relation::FromRows("color:string, n:int",
                                         {{V("blue"), V(2)}, {V("red"), V(2)}});
  EXPECT_EQ(result.value(), expected);
}

TEST_F(SqlQueriesTest, InSubquery) {
  Result<Relation> result = sql::ExecuteSql(
      "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE color = "
      "'blue')",
      catalog_);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value(), Relation::Parse("s#", "1; 2; 4"));
}

TEST_F(SqlQueriesTest, MultiAttributeDivideOn) {
  // Footnote 5's shape: R1(a, b, c) ÷ R2(b, c) with a two-column ON clause.
  Catalog catalog;
  catalog.Put("r1", Relation::Parse("a, b, c", "1,1,1; 1,2,2; 2,1,1; 3,1,1; 3,2,2"));
  catalog.Put("r2", Relation::Parse("b, c", "1,1; 2,2"));
  Result<Relation> result = sql::ExecuteSql(
      "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b AND r1.c = r2.c", catalog);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value(), Relation::Parse("a", "1; 3"));
  Result<PlanPtr> plan =
      sql::LowerSql("SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b AND r1.c = r2.c", catalog);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_EQ(ExecutePlan(plan.value(), catalog), result.value());
}

// The optimizer runs only the memoized search; over every statement of this
// file that lowers, its chosen plan must cost no more than the greedy
// fixpoint's (RewriteEngine::Default().Rewrite) — the guarantee an argmin
// over {original, fixpoint, searched} once enforced by construction.
TEST_F(SqlQueriesTest, SearchedCostNeverAboveFixpointOnCorpus) {
  const std::string corpus[] = {
      kQ1,
      kQ2,
      kQ3,
      std::string(kQ1) + " WHERE color = 'red'",
      std::string(kQ2) + " WHERE s# > 1",
      "SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= 2",
      "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE color = "
      "'blue')",
      "SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# < p.p#",
  };
  size_t lowered = 0;
  for (const std::string& query : corpus) {
    Result<PlanPtr> plan = sql::LowerSql(query, catalog_);
    if (!plan.ok()) continue;
    ++lowered;
    StatsCache stats;
    OptimizationReport report = Optimizer(catalog_, {}, &stats).Optimize(plan.value());
    PlanPtr fixpoint = RewriteEngine::Default().Rewrite(plan.value(), RewriteContext{&catalog_});
    EXPECT_LE(report.chosen_cost, EstimateCost(fixpoint, catalog_, stats)) << query;
    EXPECT_EQ(ExecutePlan(report.chosen, catalog_), Evaluate(plan.value(), catalog_)) << query;
  }
  EXPECT_EQ(lowered, 6u) << "Q3 and the non-equi ON clause are the only refusals";
}

}  // namespace
}  // namespace quotient
