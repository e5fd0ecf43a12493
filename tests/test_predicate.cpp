#include "algebra/predicate.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/status.hpp"

namespace quotient {
namespace {

const Schema kSchema = Schema::Parse("a, b:real, s:string");
const Tuple kRow = {V(3), V(2.5), V("hi")};

TEST(PredicateTest, ColumnAndLiteral) {
  EXPECT_EQ(Expr::Column("a")->Eval(kSchema, kRow), V(3));
  EXPECT_EQ(Expr::Literal(V(7))->Eval(kSchema, kRow), V(7));
  EXPECT_THROW(Expr::Column("zzz")->Eval(kSchema, kRow), SchemaError);
}

TEST(PredicateTest, AllComparators) {
  auto check = [](CmpOp op, int lhs, int rhs, bool expected) {
    ExprPtr e = Expr::Compare(op, Expr::Literal(V(lhs)), Expr::Literal(V(rhs)));
    EXPECT_EQ(e->EvalBool(kSchema, kRow), expected)
        << lhs << " " << CmpOpName(op) << " " << rhs;
  };
  check(CmpOp::kEq, 1, 1, true);
  check(CmpOp::kEq, 1, 2, false);
  check(CmpOp::kNe, 1, 2, true);
  check(CmpOp::kLt, 1, 2, true);
  check(CmpOp::kLt, 2, 2, false);
  check(CmpOp::kLe, 2, 2, true);
  check(CmpOp::kGt, 3, 2, true);
  check(CmpOp::kGe, 2, 3, false);
}

TEST(PredicateTest, MixedNumericComparison) {
  // int column vs real literal compares numerically.
  EXPECT_TRUE(Expr::ColCmp("a", CmpOp::kGt, V(2.5))->EvalBool(kSchema, kRow));
  EXPECT_TRUE(Expr::ColCmp("b", CmpOp::kLt, V(3))->EvalBool(kSchema, kRow));
}

TEST(PredicateTest, StringComparison) {
  EXPECT_TRUE(Expr::ColCmp("s", CmpOp::kEq, V("hi"))->EvalBool(kSchema, kRow));
  EXPECT_TRUE(Expr::ColCmp("s", CmpOp::kLt, V("hj"))->EvalBool(kSchema, kRow));
  EXPECT_THROW(Expr::ColCmp("s", CmpOp::kLt, V(3))->EvalBool(kSchema, kRow), SchemaError);
}

TEST(PredicateTest, LogicAndArithmetic) {
  ExprPtr a_is_3 = Expr::ColCmp("a", CmpOp::kEq, V(3));
  ExprPtr a_is_4 = Expr::ColCmp("a", CmpOp::kEq, V(4));
  EXPECT_TRUE(Expr::And(a_is_3, Expr::Not(a_is_4))->EvalBool(kSchema, kRow));
  EXPECT_TRUE(Expr::Or(a_is_4, a_is_3)->EvalBool(kSchema, kRow));
  EXPECT_FALSE(Expr::And(a_is_3, a_is_4)->EvalBool(kSchema, kRow));

  ExprPtr sum = Expr::Arith(Expr::Kind::kAdd, Expr::Column("a"), Expr::Literal(V(4)));
  EXPECT_EQ(sum->Eval(kSchema, kRow), V(7));
  ExprPtr mixed = Expr::Arith(Expr::Kind::kMul, Expr::Column("b"), Expr::Literal(V(2)));
  EXPECT_EQ(mixed->Eval(kSchema, kRow), V(5.0));
  ExprPtr division = Expr::Arith(Expr::Kind::kDiv, Expr::Literal(V(7)), Expr::Literal(V(2)));
  EXPECT_EQ(division->Eval(kSchema, kRow), V(3.5));
  ExprPtr by_zero = Expr::Arith(Expr::Kind::kDiv, Expr::Literal(V(7)), Expr::Literal(V(0)));
  EXPECT_THROW(by_zero->Eval(kSchema, kRow), SchemaError);
}

TEST(PredicateTest, IntegerOverflowThrows) {
  // a = 3: every int64 result that does not fit throws, bound or not; the
  // extremes that do fit are exact.
  const int64_t kMax = INT64_MAX;
  const int64_t kMin = INT64_MIN;
  auto add = [](int64_t literal) {
    return Expr::Arith(Expr::Kind::kAdd, Expr::Column("a"), Expr::Literal(V(literal)));
  };
  auto sub = [](int64_t literal) {
    return Expr::Arith(Expr::Kind::kSub, Expr::Literal(V(literal)), Expr::Column("a"));
  };
  auto mul = [](int64_t literal) {
    return Expr::Arith(Expr::Kind::kMul, Expr::Column("a"), Expr::Literal(V(literal)));
  };
  for (const ExprPtr& e : {add(kMax - 2), sub(kMin + 2), mul(kMax / 2)}) {
    EXPECT_THROW(e->Eval(kSchema, kRow), SchemaError) << e->ToString();
    EXPECT_THROW(BoundExpr(e, kSchema).Eval(kRow), SchemaError) << e->ToString();
  }
  EXPECT_EQ(add(kMax - 3)->Eval(kSchema, kRow), V(kMax));
  EXPECT_EQ(sub(kMin + 3)->Eval(kSchema, kRow), V(kMin));
  EXPECT_EQ(mul(kMax / 3)->Eval(kSchema, kRow), V(kMax / 3 * 3));
}

TEST(PredicateTest, ColumnsAndScope) {
  ExprPtr e = Expr::And(Expr::ColCmp("a", CmpOp::kLt, V(5)),
                        Expr::Compare(CmpOp::kEq, Expr::Column("s"), Expr::Column("s")));
  EXPECT_EQ(e->Columns(), (std::set<std::string>{"a", "s"}));
  EXPECT_TRUE(e->RefersOnlyTo({"a", "s", "b"}));
  EXPECT_FALSE(e->RefersOnlyTo({"a"}));
}

TEST(PredicateTest, StructuralEquality) {
  ExprPtr e1 = Expr::ColCmp("a", CmpOp::kLt, V(5));
  ExprPtr e2 = Expr::ColCmp("a", CmpOp::kLt, V(5));
  ExprPtr e3 = Expr::ColCmp("a", CmpOp::kLe, V(5));
  EXPECT_TRUE(e1->Equals(*e2));
  EXPECT_FALSE(e1->Equals(*e3));
  EXPECT_FALSE(e1->Equals(*Expr::ColCmp("b", CmpOp::kLt, V(5))));
}

TEST(PredicateTest, SplitConjunctsFlattensAndChains) {
  ExprPtr e = Expr::AndAll({Expr::ColCmp("a", CmpOp::kEq, V(1)),
                            Expr::ColCmp("a", CmpOp::kEq, V(2)),
                            Expr::ColCmp("a", CmpOp::kEq, V(3))});
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(e, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);
  // An empty AndAll is TRUE.
  EXPECT_TRUE(Expr::AndAll({})->EvalBool(kSchema, kRow));
}

TEST(PredicateTest, NegateCmpRoundTrip) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe}) {
    EXPECT_EQ(NegateCmp(NegateCmp(op)), op);
  }
}

TEST(PredicateTest, BoundExprMatchesUnbound) {
  ExprPtr e = Expr::And(Expr::ColCmp("a", CmpOp::kGe, V(2)),
                        Expr::ColCmp("b", CmpOp::kLt, V(9.0)));
  BoundExpr bound(e, kSchema);
  EXPECT_EQ(bound.EvalBool(kRow), e->EvalBool(kSchema, kRow));
  EXPECT_EQ(bound.Eval(kRow), e->Eval(kSchema, kRow));
  EXPECT_THROW(BoundExpr(Expr::Column("zzz"), kSchema), SchemaError);
}

TEST(PredicateTest, ToStringRendering) {
  ExprPtr e = Expr::And(Expr::ColCmp("a", CmpOp::kLt, V(5)), Expr::Not(Expr::Column("a")));
  EXPECT_EQ(e->ToString(), "((a < 5) AND (NOT a))");
}

}  // namespace
}  // namespace quotient
