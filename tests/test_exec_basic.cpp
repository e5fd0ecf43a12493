// The Volcano engine: every physical operator against the reference
// algebra, plus planner lowering, re-open behavior, row accounting, and
// common-subexpression materialization.

#include <gtest/gtest.h>

#include "algebra/generator.hpp"
#include "algebra/ops.hpp"
#include "core/engine.hpp"
#include "exec/exec_agg.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_join.hpp"
#include "opt/planner.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

IterPtr ScanOf(const Relation& r) {
  return std::make_unique<RelationScan>(std::make_shared<const Relation>(r));
}

const Relation kR = Relation::Parse("a, b", "1,1; 1,2; 2,1; 3,5");
const Relation kS = Relation::Parse("a, b", "1,2; 2,1; 9,9");

TEST(ExecBasicTest, ScanProducesAllTuplesInOrder) {
  RelationScan scan(std::make_shared<const Relation>(kR));
  EXPECT_EQ(ExecuteToRelation(scan), kR);
  EXPECT_EQ(scan.rows_produced(), kR.size());
}

TEST(ExecBasicTest, FilterMatchesReference) {
  ExprPtr p = Expr::ColCmp("b", CmpOp::kLe, V(2));
  FilterIterator it(ScanOf(kR), p);
  EXPECT_EQ(ExecuteToRelation(it), Select(kR, p));
}

TEST(ExecBasicTest, ProjectDeduplicates) {
  ProjectIterator it(ScanOf(kR), {"a"});
  EXPECT_EQ(ExecuteToRelation(it), Project(kR, {"a"}));
}

TEST(ExecBasicTest, SetOperators) {
  {
    UnionIterator it(ScanOf(kR), ScanOf(kS));
    EXPECT_EQ(ExecuteToRelation(it), Union(kR, kS));
  }
  {
    IntersectIterator it(ScanOf(kR), ScanOf(kS));
    EXPECT_EQ(ExecuteToRelation(it), Intersect(kR, kS));
  }
  {
    DifferenceIterator it(ScanOf(kR), ScanOf(kS));
    EXPECT_EQ(ExecuteToRelation(it), Difference(kR, kS));
  }
}

TEST(ExecBasicTest, SetOperatorsReorderRightSide) {
  Relation swapped = kS.Reorder({"b", "a"});
  UnionIterator it(ScanOf(kR), ScanOf(swapped));
  EXPECT_EQ(ExecuteToRelation(it), Union(kR, kS));
}

TEST(ExecBasicTest, CrossProductAndRename) {
  Relation t = Relation::Parse("z", "7; 8");
  CrossProductIterator it(ScanOf(kR), ScanOf(t));
  EXPECT_EQ(ExecuteToRelation(it), Product(kR, t));
  RenameIterator rename(ScanOf(t), {{"z", "w"}});
  EXPECT_EQ(ExecuteToRelation(rename).schema().Names(), (std::vector<std::string>{"w"}));
}

TEST(ExecBasicTest, EmptyInputsEverywhere) {
  Relation empty(Schema::Parse("a, b"));
  {
    CrossProductIterator it(ScanOf(kR), ScanOf(Relation(Schema::Parse("z"))));
    EXPECT_TRUE(ExecuteToRelation(it).empty());
  }
  {
    UnionIterator it(ScanOf(empty), ScanOf(empty));
    EXPECT_TRUE(ExecuteToRelation(it).empty());
  }
  {
    auto it = EquiJoinIterator::Natural(ScanOf(empty), ScanOf(kR));
    EXPECT_TRUE(ExecuteToRelation(*it).empty());
  }
  {
    // No common names: the natural join degenerates to a cross product.
    auto it = EquiJoinIterator::Natural(ScanOf(kR), ScanOf(Relation(Schema::Parse("z"))));
    EXPECT_TRUE(ExecuteToRelation(*it).empty());
  }
}

TEST(ExecJoinTest, HashJoinMatchesReference) {
  // Natural joins run as the hash equi-join on the common names, emitting
  // only the right-only columns.
  Relation t = Relation::Parse("b, c", "1,10; 2,20; 9,90");
  auto it = EquiJoinIterator::Natural(ScanOf(kR), ScanOf(t));
  EXPECT_EQ(it->schema().Names(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ExecuteToRelation(*it), NaturalJoin(kR, t));
  // Every right column common: a semi-join shaped natural join.
  auto same = EquiJoinIterator::Natural(ScanOf(kR), ScanOf(kS));
  EXPECT_EQ(ExecuteToRelation(*same), NaturalJoin(kR, kS));
  // No common names: the cross product.
  Relation z = Relation::Parse("z", "7; 8");
  auto cross = EquiJoinIterator::Natural(ScanOf(kR), ScanOf(z));
  EXPECT_EQ(ExecuteToRelation(*cross), NaturalJoin(kR, z));
  EXPECT_EQ(ExecuteToRelation(*cross), Product(kR, z));
}

TEST(ExecJoinTest, NestedLoopThetaJoin) {
  Relation t = Relation::Parse("c", "1; 3");
  ExprPtr theta = Expr::Compare(CmpOp::kLt, Expr::Column("b"), Expr::Column("c"));
  NestedLoopJoinIterator it(ScanOf(kR), ScanOf(t), theta);
  EXPECT_EQ(ExecuteToRelation(it), ThetaJoin(kR, t, theta));
}

TEST(ExecJoinTest, EquiJoinOnExplicitKeys) {
  Relation t = Relation::Parse("x, y", "1,100; 5,500");
  EquiJoinIterator it(ScanOf(kR), ScanOf(t), {"b"}, {"x"}, {"x", "y"});
  ExprPtr theta = Expr::ColEqCol("b", "x");
  EXPECT_EQ(ExecuteToRelation(it), ThetaJoin(kR, t, theta));
}

TEST(ExecJoinTest, SemiAndAntiMatchReference) {
  Relation t = Relation::Parse("b", "1");
  {
    HashSemiJoinIterator it(ScanOf(kR), ScanOf(t), false);
    EXPECT_EQ(ExecuteToRelation(it), SemiJoin(kR, t));
  }
  {
    HashSemiJoinIterator it(ScanOf(kR), ScanOf(t), true);
    EXPECT_EQ(ExecuteToRelation(it), AntiSemiJoin(kR, t));
  }
  // Degenerate guard semantics (no common attributes).
  {
    HashSemiJoinIterator it(ScanOf(kR), ScanOf(Relation::Parse("z", "1")), false);
    EXPECT_EQ(ExecuteToRelation(it), kR);
  }
  {
    HashSemiJoinIterator it(ScanOf(kR), ScanOf(Relation(Schema::Parse("z"))), false);
    EXPECT_TRUE(ExecuteToRelation(it).empty());
  }
}

TEST(ExecAggTest, HashAggregateMatchesReference) {
  Relation r = Relation::Parse("g, x", "1,10; 1,20; 2,5");
  std::vector<AggSpec> aggs = {{AggFunc::kSum, "x", "t"}, {AggFunc::kCount, "x", "n"}};
  HashAggregateIterator it(ScanOf(r), {"g"}, aggs);
  EXPECT_EQ(ExecuteToRelation(it), GroupBy(r, {"g"}, aggs));
}

TEST(ExecTest, IteratorsAreReOpenable) {
  FilterIterator it(ScanOf(kR), Expr::ColCmp("a", CmpOp::kEq, V(1)));
  Relation first = ExecuteToRelation(it);
  Relation second = ExecuteToRelation(it);
  EXPECT_EQ(first, second);
}

TEST(ExecTest, RowAccountingAndExplain) {
  ProjectIterator root(ScanOf(kR), {"a"});
  ExecuteToRelation(root);
  EXPECT_EQ(TotalRowsProduced(root), kR.size() + 3);  // scan rows + distinct a
  EXPECT_EQ(MaxRowsProduced(root), kR.size());
  std::string text = ExplainTree(root);
  EXPECT_NE(text.find("Project"), std::string::npos);
  EXPECT_NE(text.find("Scan"), std::string::npos);
}

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGen gen(8);
    catalog_.Put("r1", gen.Dividend(30, 10, 0.5));
    catalog_.Put("r2", gen.Divisor(4, 10));
    catalog_.Put("gd", gen.GreatDivisor(3, 10, 0.4));
  }

  /// Healy's basic-algebra baseline: `plan` with every ÷ expanded by the
  /// rewrite rule, ready to plan and execute like any other plan.
  PlanPtr HealyExpanded(const PlanPtr& plan) const {
    RewriteEngine expand;
    expand.Add(MakeDivideToHealyExpansionRule());
    PlanPtr expanded = expand.Rewrite(plan, RewriteContext{&catalog_, false});
    EXPECT_EQ(expanded->ToString().find("Divide "), std::string::npos);
    return expanded;
  }

  Catalog catalog_;
};

TEST_F(PlannerTest, LoweringMatchesReferenceEvaluatorOnAllNodeKinds) {
  PlanPtr r1 = LogicalOp::Scan(catalog_, "r1");
  PlanPtr r2 = LogicalOp::Scan(catalog_, "r2");
  std::vector<PlanPtr> plans = {
      LogicalOp::Select(r1, Expr::ColCmp("a", CmpOp::kLt, V(20))),
      LogicalOp::Project(r1, {"b"}),
      LogicalOp::Union(r1, r1),
      LogicalOp::Intersect(r1, r1),
      LogicalOp::Difference(r1, LogicalOp::Select(r1, Expr::ColCmp("b", CmpOp::kLt, V(5)))),
      LogicalOp::Product(LogicalOp::Rename(r2, {{"b", "z"}}), r2),
      LogicalOp::ThetaJoin(LogicalOp::Rename(r1, {{"a", "x"}, {"b", "y"}}), r1,
                           Expr::ColEqCol("y", "b")),
      LogicalOp::ThetaJoin(LogicalOp::Rename(r1, {{"a", "x"}, {"b", "y"}}), r1,
                           Expr::Compare(CmpOp::kLt, Expr::Column("y"), Expr::Column("b"))),
      LogicalOp::NaturalJoin(r1, r2),
      LogicalOp::SemiJoin(r1, r2),
      LogicalOp::AntiJoin(r1, r2),
      LogicalOp::Divide(r1, r2),
      LogicalOp::GreatDivide(r1, LogicalOp::Scan(catalog_, "gd")),
      LogicalOp::GroupBy(r1, {"a"}, {{AggFunc::kCount, "b", "n"}}),
  };
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(ExecutePlan(plans[i], catalog_), Evaluate(plans[i], catalog_))
        << "plan #" << i << ":\n"
        << plans[i]->ToString();
  }
}

TEST_F(PlannerTest, DivisionAndHealyExpansionProduceSameResults) {
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog_, "r1"),
                                   LogicalOp::Scan(catalog_, "r2"));
  Relation expected = Evaluate(plan, catalog_);
  EXPECT_EQ(ExecutePlan(plan, catalog_), expected) << "HashDivision";
  EXPECT_EQ(ExecutePlan(HealyExpanded(plan), catalog_), expected) << "Healy expansion";
}

TEST_F(PlannerTest, HealyExpansionInflatesIntermediateRows) {
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog_, "r1"),
                                   LogicalOp::Scan(catalog_, "r2"));
  ExecProfile first_class, simulated;
  ExecutePlan(plan, catalog_, {}, &first_class);
  ExecutePlan(HealyExpanded(plan), catalog_, {}, &simulated);
  EXPECT_GT(simulated.total_rows, first_class.total_rows)
      << "the basic-algebra simulation must touch more tuples ([25], §6)";
}

TEST_F(PlannerTest, SharedSubplansAreMaterializedOnce) {
  // Build Union(expensive, expensive) sharing the subplan by pointer.
  PlanPtr expensive = LogicalOp::GroupBy(LogicalOp::Scan(catalog_, "r1"), {"a"},
                                         {{AggFunc::kCount, "b", "n"}});
  PlanPtr plan = LogicalOp::Union(expensive, expensive);
  ExecProfile profile;
  Relation result = ExecutePlan(plan, catalog_, {}, &profile);
  EXPECT_EQ(result, Evaluate(plan, catalog_));
  // The shared aggregate is evaluated once during materialization; the
  // executed tree reads both occurrences from cached scans, so no
  // HashAggregate appears in it at all.
  EXPECT_EQ(profile.explain.find("HashAggregate"), std::string::npos) << profile.explain;
  ASSERT_EQ(plan->children().size(), 2u);
}

TEST_F(PlannerTest, GreatDivideWithEmptyCFallsBackToSmallDivide) {
  // A GreatDivide node whose divisor has no extra attributes lowers to a
  // plain division operator.
  PlanPtr plan = LogicalOp::GreatDivide(LogicalOp::Scan(catalog_, "r1"),
                                        LogicalOp::Scan(catalog_, "r2"));
  ExecProfile profile;
  Relation result = ExecutePlan(plan, catalog_, {}, &profile);
  EXPECT_EQ(result, Evaluate(plan, catalog_));
  EXPECT_NE(profile.explain.find("HashDivision"), std::string::npos);
}

}  // namespace
}  // namespace quotient
