// Plan-level rewrite rules: each law's rule must fire on its pattern,
// respect its preconditions, and preserve the query result (checked against
// the reference evaluator). Also exercises the engine driver and the
// cost-guarded optimizer.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "opt/optimizer.hpp"
#include "paper_fixtures.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.Put("r1", paper::Fig4Dividend());
    catalog_.Put("r2", paper::Fig4Divisor());
    catalog_.Put("gd_divisor", paper::Fig2Divisor());
  }

  PlanPtr Scan(const std::string& name) { return LogicalOp::Scan(catalog_, name); }

  /// Applies `rule` once at the root and checks result preservation.
  PlanPtr ApplyAndCheck(const RulePtr& rule, const PlanPtr& plan, bool runtime_checks = false) {
    RewriteContext context{&catalog_, runtime_checks};
    PlanPtr rewritten = rule->Apply(plan, context);
    EXPECT_NE(rewritten, nullptr) << rule->name() << " did not fire";
    if (rewritten != nullptr) {
      EXPECT_EQ(Evaluate(rewritten, catalog_), Evaluate(plan, catalog_))
          << rule->name() << " changed the result";
    }
    return rewritten;
  }

  Catalog catalog_;
};

TEST_F(RewriteTest, Law1FiresOnUnionDivisor) {
  PlanPtr plan = LogicalOp::Divide(
      Scan("r1"), LogicalOp::Union(LogicalOp::Values(paper::Fig4DivisorPrime()),
                                   LogicalOp::Values(paper::Fig4DivisorPrimePrime())));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw1DivisorUnionRule(), plan);
  EXPECT_NE(rewritten->ToString().find("SemiJoin"), std::string::npos);
}

TEST_F(RewriteTest, Law2NeedsDisjointnessEvidence) {
  catalog_.Put("left", Relation::Parse("a, b", "1,1; 1,3; 1,4"));
  catalog_.Put("right", Relation::Parse("a, b", "2,1; 2,3; 2,4"));
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Union(Scan("left"), Scan("right")), Scan("r2"));
  RewriteContext no_evidence{&catalog_, false};
  EXPECT_EQ(MakeLaw2DividendUnionRule()->Apply(plan, no_evidence), nullptr)
      << "without catalog metadata or runtime checks the rule must not fire";
  // Declaring disjointness (or allowing a runtime check) lets it fire.
  catalog_.DeclareDisjoint("left", "right", {"a"});
  ApplyAndCheck(MakeLaw2DividendUnionRule(), plan);
}

TEST_F(RewriteTest, Law2RuntimeCheckPath) {
  catalog_.Put("left", Relation::Parse("a, b", "1,1; 1,3; 1,4"));
  catalog_.Put("right", Relation::Parse("a, b", "2,1; 2,3; 2,4"));
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Union(Scan("left"), Scan("right")), Scan("r2"));
  ApplyAndCheck(MakeLaw2DividendUnionRule(), plan, /*runtime_checks=*/true);
}

TEST_F(RewriteTest, Law3PushesQuotientSelection) {
  PlanPtr plan = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                   Expr::ColCmp("a", CmpOp::kGe, V(3)));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw3SelectionPushdownRule(), plan);
  // Root must now be the division, with the selection inside.
  EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kDivide);
}

TEST_F(RewriteTest, Law4GuardedByErratumNonEmptiness) {
  PlanPtr plan = LogicalOp::Divide(
      Scan("r1"), LogicalOp::Select(Scan("r2"), Expr::ColCmp("b", CmpOp::kLe, V(3))));
  ApplyAndCheck(MakeLaw4ReplicateSelectionRule(), plan, /*runtime_checks=*/true);

  // With a never-true divisor selection the rule must refuse (erratum).
  PlanPtr empty_divisor = LogicalOp::Divide(
      Scan("r1"), LogicalOp::Select(Scan("r2"), Expr::ColCmp("b", CmpOp::kGt, V(100))));
  RewriteContext context{&catalog_, true};
  EXPECT_EQ(MakeLaw4ReplicateSelectionRule()->Apply(empty_divisor, context), nullptr);
}

TEST_F(RewriteTest, Example1RuleFiresOnBSelection) {
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Select(Scan("r1"), Expr::ColCmp("b", CmpOp::kLt, V(3))), Scan("r2"));
  PlanPtr rewritten = ApplyAndCheck(MakeExample1DividendSelectionRule(), plan);
  EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kDifference);
}

TEST_F(RewriteTest, Law5NeedsNonEmptyDivisor) {
  catalog_.Put("other", Relation::Parse("a, b", "2,1; 2,3; 2,4; 9,9"));
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Intersect(Scan("r1"), Scan("other")), Scan("r2"));
  ApplyAndCheck(MakeLaw5IntersectRule(), plan, /*runtime_checks=*/true);

  catalog_.Put("empty", Relation(Schema::Parse("b")));
  PlanPtr with_empty =
      LogicalOp::Divide(LogicalOp::Intersect(Scan("r1"), Scan("other")), Scan("empty"));
  RewriteContext context{&catalog_, true};
  EXPECT_EQ(MakeLaw5IntersectRule()->Apply(with_empty, context), nullptr)
      << "erratum guard: Law 5 needs r2 != empty";
}

TEST_F(RewriteTest, Law6MatchesNestedSelections) {
  PlanPtr base = Scan("r1");
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Difference(LogicalOp::Select(base, Expr::ColCmp("a", CmpOp::kLe, V(3))),
                            LogicalOp::Select(base, Expr::ColCmp("a", CmpOp::kLe, V(2)))),
      Scan("r2"));
  ApplyAndCheck(MakeLaw6DifferenceRule(), plan, /*runtime_checks=*/true);
}

TEST_F(RewriteTest, Law7PrunesSubtrahend) {
  catalog_.Put("lo", Relation::Parse("a, b", "1,1; 1,3; 1,4"));
  catalog_.Put("hi", Relation::Parse("a, b", "7,1; 7,3; 8,1"));
  catalog_.DeclareDisjoint("lo", "hi", {"a"});
  PlanPtr plan = LogicalOp::Difference(LogicalOp::Divide(Scan("lo"), Scan("r2")),
                                       LogicalOp::Divide(Scan("hi"), Scan("r2")));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw7DifferencePruneRule(), plan);
  EXPECT_EQ(rewritten->TreeSize(), 3u);  // just Divide(lo, r2)
}

TEST_F(RewriteTest, Law8PushesDivideIntoProduct) {
  catalog_.Put("star", Relation::Parse("z", "10; 20"));
  PlanPtr plan =
      LogicalOp::Divide(LogicalOp::Product(Scan("star"), Scan("r1")), Scan("r2"));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw8ProductRule(), plan);
  EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kProduct);
}

TEST_F(RewriteTest, Law9EliminatesCoveredFactor) {
  catalog_.Put("star9", Rename(paper::Fig8R1Star(), {}));
  catalog_.Put("ss9", paper::Fig8R1StarStar());
  catalog_.Put("r29", paper::Fig8Divisor());
  catalog_.DeclareForeignKey("r29", {"b2"}, "ss9");
  PlanPtr plan =
      LogicalOp::Divide(LogicalOp::Product(Scan("star9"), Scan("ss9")), Scan("r29"));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw9ProductRule(), plan, /*runtime_checks=*/true);
  EXPECT_EQ(rewritten->ToString().find("Product"), std::string::npos)
      << "the covered factor (and the product) must be gone";
}

TEST_F(RewriteTest, Law10PushesSemiJoinBelowDivide) {
  catalog_.Put("r3", Relation::Parse("a", "2; 9"));
  PlanPtr plan = LogicalOp::SemiJoin(LogicalOp::Divide(Scan("r1"), Scan("r2")), Scan("r3"));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw10SemiJoinRule(), plan);
  EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kDivide);
}

TEST_F(RewriteTest, Law11CompilesDivisionToGuardedSemiJoins) {
  catalog_.Put("r0", paper::Fig10R0());
  for (const char* divisor : {"", "4", "4; 6"}) {
    catalog_.Put("d", Relation::Parse("b", divisor));
    PlanPtr plan = LogicalOp::Divide(
        LogicalOp::GroupBy(Scan("r0"), {"a"}, {{AggFunc::kSum, "x", "b"}}), Scan("d"));
    PlanPtr rewritten = ApplyAndCheck(MakeLaw11GroupedDividendRule(), plan);
    EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kUnion);
  }
}

TEST_F(RewriteTest, Law12CompilesDivisionToGuardedSemiJoin) {
  catalog_.Put("r0", paper::Fig11R0());
  catalog_.Put("d", paper::Fig11Divisor());
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::GroupBy(Scan("r0"), {"b"}, {{AggFunc::kSum, "x", "a"}}), Scan("d"));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw12GroupedDividendRule(), plan,
                                    /*runtime_checks=*/true);
  EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kSemiJoin);

  // Without the FK established the rule must not fire.
  catalog_.Put("bad", Relation::Parse("b", "1; 99"));
  PlanPtr bad_plan = LogicalOp::Divide(
      LogicalOp::GroupBy(Scan("r0"), {"b"}, {{AggFunc::kSum, "x", "a"}}), Scan("bad"));
  RewriteContext context{&catalog_, true};
  EXPECT_EQ(MakeLaw12GroupedDividendRule()->Apply(bad_plan, context), nullptr);
}

TEST_F(RewriteTest, Law13SplitsCDisjointUnion) {
  catalog_.Put("g1", Relation::Parse("b, c", "1,1; 2,1; 4,1"));
  catalog_.Put("g2", Relation::Parse("b, c", "1,2; 3,2"));
  catalog_.DeclareDisjoint("g1", "g2", {"c"});
  PlanPtr plan =
      LogicalOp::GreatDivide(Scan("r1"), LogicalOp::Union(Scan("g1"), Scan("g2")));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw13GreatDivisorUnionRule(), plan);
  EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kUnion);
}

TEST_F(RewriteTest, Laws14And15RouteByPredicateAttributes) {
  PlanPtr gd = LogicalOp::GreatDivide(Scan("r1"), Scan("gd_divisor"));
  PlanPtr select_a = LogicalOp::Select(gd, Expr::ColCmp("a", CmpOp::kGe, V(2)));
  PlanPtr select_c = LogicalOp::Select(gd, Expr::ColCmp("c", CmpOp::kEq, V(2)));
  // Law 14 fires on p(A) but not p(C); Law 15 vice versa.
  RewriteContext context{&catalog_, false};
  EXPECT_NE(MakeLaw14SelectionPushdownRule()->Apply(select_a, context), nullptr);
  EXPECT_EQ(MakeLaw14SelectionPushdownRule()->Apply(select_c, context), nullptr);
  EXPECT_EQ(MakeLaw15DivisorSelectionRule()->Apply(select_a, context), nullptr);
  EXPECT_NE(MakeLaw15DivisorSelectionRule()->Apply(select_c, context), nullptr);
  ApplyAndCheck(MakeLaw14SelectionPushdownRule(), select_a);
  ApplyAndCheck(MakeLaw15DivisorSelectionRule(), select_c);
  // A conjunction over A and C: each law pushes its own conjunct and keeps
  // the other in a σ above the ÷*.
  PlanPtr select_mixed = LogicalOp::Select(
      gd, Expr::And(Expr::ColCmp("a", CmpOp::kGe, V(2)), Expr::ColCmp("c", CmpOp::kEq, V(2))));
  for (const RulePtr& rule : {MakeLaw14SelectionPushdownRule(), MakeLaw15DivisorSelectionRule()}) {
    PlanPtr rewritten = ApplyAndCheck(rule, select_mixed);
    ASSERT_NE(rewritten, nullptr);
    ASSERT_EQ(rewritten->kind(), LogicalOp::Kind::kSelect);
    EXPECT_EQ(rewritten->child(0)->kind(), LogicalOp::Kind::kGreatDivide);
  }
}

TEST_F(RewriteTest, Law16ReplicatesDivisorBSelection) {
  PlanPtr plan = LogicalOp::GreatDivide(
      Scan("r1"),
      LogicalOp::Select(Scan("gd_divisor"), Expr::ColCmp("b", CmpOp::kLe, V(3))));
  ApplyAndCheck(MakeLaw16ReplicateSelectionRule(), plan);
}

TEST_F(RewriteTest, Law17PushesGreatDivideIntoProduct) {
  catalog_.Put("star", Relation::Parse("z", "10; 20"));
  PlanPtr plan = LogicalOp::GreatDivide(LogicalOp::Product(Scan("star"), Scan("r1")),
                                        Scan("gd_divisor"));
  PlanPtr rewritten = ApplyAndCheck(MakeLaw17ProductRule(), plan);
  EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kProduct);
}

TEST_F(RewriteTest, Example4PushesJoinBelowGreatDivide) {
  catalog_.Put("outer", Relation::Parse("a1", "1; 3; 9"));
  catalog_.Put("inner", Rename(paper::Fig1Dividend(), {{"a", "a2"}}));
  PlanPtr plan = LogicalOp::ThetaJoin(
      Scan("outer"), LogicalOp::GreatDivide(Scan("inner"), Scan("gd_divisor")),
      Expr::ColEqCol("a1", "a2"));
  PlanPtr rewritten = ApplyAndCheck(MakeExample4JoinPushRule(), plan);
  EXPECT_EQ(rewritten->kind(), LogicalOp::Kind::kGreatDivide);

  // A condition touching C must block the rule.
  PlanPtr blocked = LogicalOp::ThetaJoin(
      Scan("outer"), LogicalOp::GreatDivide(Scan("inner"), Scan("gd_divisor")),
      Expr::And(Expr::ColEqCol("a1", "a2"), Expr::ColCmp("c", CmpOp::kEq, V(1))));
  RewriteContext context{&catalog_, false};
  EXPECT_EQ(MakeExample4JoinPushRule()->Apply(blocked, context), nullptr);
}

TEST_F(RewriteTest, HealyExpansionEliminatesDivide) {
  PlanPtr plan = LogicalOp::Divide(Scan("r1"), Scan("r2"));
  PlanPtr rewritten = ApplyAndCheck(MakeDivideToHealyExpansionRule(), plan);
  EXPECT_EQ(rewritten->ToString().find("Divide "), std::string::npos);
}

TEST_F(RewriteTest, EngineReachesFixpointAndPreservesResults) {
  // A plan with several rewrite opportunities stacked.
  PlanPtr plan = LogicalOp::Select(
      LogicalOp::Divide(
          LogicalOp::Product(LogicalOp::Values(Relation::Parse("z", "1; 2"), "star"),
                             Scan("r1")),
          Scan("r2")),
      Expr::ColCmp("a", CmpOp::kLe, V(3)));
  RewriteEngine engine = RewriteEngine::Default();
  RewriteContext context{&catalog_, false};
  std::vector<RewriteStep> trace;
  PlanPtr rewritten = engine.Rewrite(plan, context, &trace);
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(Evaluate(rewritten, catalog_), Evaluate(plan, catalog_));
  // Fixpoint: a second pass changes nothing.
  EXPECT_EQ(engine.RewriteOnce(rewritten, context), nullptr);
}

TEST_F(RewriteTest, EngineRespectsStepBudget) {
  PlanPtr plan = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                   Expr::ColCmp("a", CmpOp::kGe, V(2)));
  RewriteEngine engine = RewriteEngine::Default();
  RewriteContext context{&catalog_, false};
  std::vector<RewriteStep> trace;
  bool exhausted = false;
  PlanPtr rewritten = engine.Rewrite(plan, context, &trace, /*max_steps=*/0, &exhausted);
  // No law applied, and the truncation is surfaced: the flag is set and the
  // trace carries the marker instead of silently reading as "converged".
  EXPECT_EQ(rewritten->ToString(), plan->ToString());
  EXPECT_TRUE(exhausted);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].rule, kRewriteBudgetExhausted);
}

TEST_F(RewriteTest, ConvergedRewriteDoesNotReportExhaustion) {
  PlanPtr plan = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                   Expr::ColCmp("a", CmpOp::kGe, V(2)));
  RewriteEngine engine = RewriteEngine::Default();
  RewriteContext context{&catalog_, false};
  std::vector<RewriteStep> trace;
  bool exhausted = false;
  engine.Rewrite(plan, context, &trace, /*max_steps=*/64, &exhausted);
  EXPECT_FALSE(exhausted);
  for (const RewriteStep& step : trace) EXPECT_NE(step.rule, kRewriteBudgetExhausted);
}

TEST_F(RewriteTest, OptimizerKeepsCheaperPlanAndRuns) {
  Optimizer optimizer(catalog_);
  PlanPtr plan = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                   Expr::ColCmp("a", CmpOp::kGe, V(3)));
  OptimizationReport report;
  Relation result = optimizer.Run(plan, nullptr, &report);
  EXPECT_EQ(result, Evaluate(plan, catalog_));
  EXPECT_FALSE(report.steps.empty());
  EXPECT_LE(report.chosen_cost, report.original_cost * 1.05);
  EXPECT_FALSE(report.Explain().empty());
}

TEST_F(RewriteTest, RewritesComposeDeepInTree) {
  // The rule must also fire on non-root nodes via the engine's traversal.
  PlanPtr inner = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                    Expr::ColCmp("a", CmpOp::kGe, V(2)));
  PlanPtr plan = LogicalOp::Union(inner, inner);
  RewriteEngine engine = RewriteEngine::Default();
  RewriteContext context{&catalog_, false};
  PlanPtr rewritten = engine.Rewrite(plan, context);
  EXPECT_EQ(Evaluate(rewritten, catalog_), Evaluate(plan, catalog_));
  // Both branches' selections must have been pushed below their divisions.
  ASSERT_EQ(rewritten->kind(), LogicalOp::Kind::kUnion);
  EXPECT_EQ(rewritten->left()->kind(), LogicalOp::Kind::kDivide);
  EXPECT_EQ(rewritten->right()->kind(), LogicalOp::Kind::kDivide);
}

}  // namespace
}  // namespace quotient
