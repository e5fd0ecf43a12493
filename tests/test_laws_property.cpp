// Randomized property tests: every law is swept over many random relation
// instances (seeded, reproducible). Preconditioned laws have their guards
// generated by construction; the sweeps also verify that all division
// definitions agree on every instance they touch.

#include <gtest/gtest.h>

#include "algebra/generator.hpp"
#include "core/laws.hpp"
#include "core/rules.hpp"
#include "core/theorems.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

using namespace laws;

class LawPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  DataGen gen_{GetParam()};

  Relation RandomDividend() {
    return gen_.Dividend(gen_.UniformInt(0, 10), gen_.UniformInt(1, 8), 0.45);
  }
  Relation RandomDivisor() { return gen_.Divisor(gen_.UniformInt(0, 5), 8); }
  Relation RandomGreatDivisor() {
    return gen_.GreatDivisor(gen_.UniformInt(1, 4), 8, 0.35);
  }
};

TEST_P(LawPropertyTest, DefinitionsOfSmallDivideAgree) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomDivisor();
  Relation codd = DivideCodd(r1, r2);
  EXPECT_EQ(codd, DivideHealy(r1, r2));
  EXPECT_EQ(codd, DivideMaier(r1, r2));
  EXPECT_EQ(codd, DivideCounting(r1, r2));
}

TEST_P(LawPropertyTest, DefinitionsOfSmallDivideAgreeOnStringB) {
  // Same agreement sweep with a string-valued B domain: the key-encoded
  // DivideCodd/DivideCounting must match the pure-algebra expansions
  // (Healy), which never touch the codec.
  Relation r1 = StringifyAttribute(RandomDividend(), "b");
  Relation r2 = StringifyAttribute(RandomDivisor(), "b");
  Relation codd = DivideCodd(r1, r2);
  EXPECT_EQ(codd, DivideHealy(r1, r2));
  EXPECT_EQ(codd, DivideCounting(r1, r2));
}

TEST_P(LawPropertyTest, DefinitionsOfSmallDivideAgreeOnMixedTypes) {
  // B carries an int and a real attribute; strict Value equality (Int(2) !=
  // Real(2.0)) must survive the encoding.
  std::vector<Tuple> rows;
  for (int i = 0, n = static_cast<int>(gen_.UniformInt(0, 24)); i < n; ++i) {
    rows.push_back({V(gen_.UniformInt(0, 5)), V(gen_.UniformInt(0, 3)),
                    V(0.5 * static_cast<double>(gen_.UniformInt(0, 4)))});
  }
  Relation r1(Schema::Parse("a, b1, b2:real"), std::move(rows));
  std::vector<Tuple> divisor_rows;
  for (int i = 0, n = static_cast<int>(gen_.UniformInt(0, 4)); i < n; ++i) {
    divisor_rows.push_back(
        {V(gen_.UniformInt(0, 3)), V(0.5 * static_cast<double>(gen_.UniformInt(0, 4)))});
  }
  Relation r2(Schema::Parse("b1, b2:real"), std::move(divisor_rows));
  Relation codd = DivideCodd(r1, r2);
  EXPECT_EQ(codd, DivideHealy(r1, r2));
  EXPECT_EQ(codd, DivideCounting(r1, r2));
}

TEST_P(LawPropertyTest, Theorem1DefinitionsOfGreatDivideAgree) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomGreatDivisor();
  EXPECT_TRUE(theorems::Theorem1Holds(r1, r2));
}

TEST_P(LawPropertyTest, Law1AnyDivisorPartition) {
  Relation r1 = RandomDividend();
  Relation r2p = RandomDivisor();
  Relation r2pp = RandomDivisor();  // independent: may overlap arbitrarily
  EXPECT_EQ(Law1Lhs(r1, r2p, r2pp), Law1Rhs(r1, r2p, r2pp));
}

TEST_P(LawPropertyTest, Law2UnderC2Partition) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomDivisor();
  std::vector<Relation> parts = SplitByAttributeRange(r1, "a", 2);
  ASSERT_TRUE(ConditionC2(parts[0], parts[1], r2));
  EXPECT_EQ(Law2Lhs(parts[0], parts[1], r2), Law2Rhs(parts[0], parts[1], r2));
}

TEST_P(LawPropertyTest, Law2WheneverC1Holds) {
  // Arbitrary (overlapping) partitions: whenever c1 happens to hold, the
  // law must hold; whenever the law fails, c1 must be false.
  Relation r1p = RandomDividend();
  Relation r1pp = RandomDividend();
  Relation r2 = RandomDivisor();
  bool c1 = ConditionC1(r1p, r1pp, r2);
  bool law = Law2Lhs(r1p, r1pp, r2) == Law2Rhs(r1p, r1pp, r2);
  if (c1) EXPECT_TRUE(law);
  if (!law) EXPECT_FALSE(c1);
}

TEST_P(LawPropertyTest, Law3AnyQuotientPredicate) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomDivisor();
  ExprPtr p = Expr::ColCmp("a", CmpOp::kLe, V(gen_.UniformInt(0, 10)));
  EXPECT_EQ(Law3Lhs(r1, r2, p), Law3Rhs(r1, r2, p));
}

TEST_P(LawPropertyTest, Law4AnyDivisorPredicate) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomDivisor();
  ExprPtr p = Expr::ColCmp("b", CmpOp::kLe, V(gen_.UniformInt(0, 8)));
  if (Law4Precondition(r2, p)) {
    EXPECT_EQ(Law4Lhs(r1, r2, p), Law4Rhs(r1, r2, p));
  } else {
    // Erratum boundary: LHS degenerates to πA(r1), RHS to πA(σp(r1)).
    EXPECT_EQ(Law4Lhs(r1, r2, p), Project(r1, {"a"}));
    EXPECT_EQ(Law4Rhs(r1, r2, p), Project(Select(r1, p), {"a"}));
  }
}

TEST_P(LawPropertyTest, Example1AnyDividendBPredicate) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomDivisor();
  ExprPtr p = Expr::ColCmp("b", CmpOp::kGe, V(gen_.UniformInt(0, 8)));
  EXPECT_EQ(Example1Lhs(r1, r2, p), Example1Rhs(r1, r2, p));
}

TEST_P(LawPropertyTest, Law5AnyDividends) {
  Relation r1p = RandomDividend();
  Relation r1pp = RandomDividend();
  Relation r2 = RandomDivisor();
  if (r2.empty()) {
    // Erratum boundary: the law needs r2 ≠ ∅; the containment LHS ⊆ RHS
    // still holds (intersecting first can only lose candidates).
    EXPECT_TRUE(Law5Lhs(r1p, r1pp, r2).SubsetOf(Law5Rhs(r1p, r1pp, r2)));
  } else {
    EXPECT_EQ(Law5Lhs(r1p, r1pp, r2), Law5Rhs(r1p, r1pp, r2));
  }
}

TEST_P(LawPropertyTest, Law6NestedSelections) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomDivisor();
  int64_t lo = gen_.UniformInt(0, 10);
  int64_t hi = lo + gen_.UniformInt(0, 5);
  ExprPtr p_prime = Expr::ColCmp("a", CmpOp::kLe, V(hi));
  ExprPtr p_pp = Expr::ColCmp("a", CmpOp::kLe, V(lo));
  ASSERT_TRUE(Law6Precondition(r1, p_prime, p_pp));
  EXPECT_EQ(Law6Lhs(r1, p_prime, p_pp, r2), Law6Rhs(r1, p_prime, p_pp, r2));
}

TEST_P(LawPropertyTest, Law7DisjointPartition) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomDivisor();
  std::vector<Relation> parts = SplitByAttributeRange(r1, "a", 2);
  EXPECT_EQ(Law7Lhs(parts[0], parts[1], r2), Law7Rhs(parts[0], parts[1], r2));
}

TEST_P(LawPropertyTest, Law8RandomFactors) {
  Relation star = gen_.RandomRelation(Schema::Parse("z1, z2"), 6, 5);
  Relation star_star = RandomDividend();
  Relation r2 = RandomDivisor();
  EXPECT_EQ(Law8Lhs(star, star_star, r2), Law8Rhs(star, star_star, r2));
}

TEST_P(LawPropertyTest, Law9CoveredFactor) {
  // Build r2(b1, b2) with πb2(r2) ⊆ r1** by picking b2 values from r1**.
  Relation star = Rename(RandomDividend(), {{"b", "b1"}});
  std::vector<Tuple> b2_pool;
  for (int64_t v = 0; v < 4; ++v) b2_pool.push_back({V(v)});
  Relation star_star(Schema::Parse("b2"), b2_pool);
  std::vector<Tuple> divisor_rows;
  for (int i = 0, n = static_cast<int>(gen_.UniformInt(1, 6)); i < n; ++i) {
    divisor_rows.push_back({V(gen_.UniformInt(0, 8)), V(gen_.UniformInt(0, 3))});
  }
  Relation r2(Schema::Parse("b1, b2"), divisor_rows);
  ASSERT_TRUE(Law9Precondition(star_star, r2));
  EXPECT_EQ(Law9Lhs(star, star_star, r2), Law9Rhs(star, star_star, r2));
}

TEST_P(LawPropertyTest, Example2CancelFactor) {
  Relation r1 = Rename(RandomDividend(), {{"b", "b1"}});
  Relation r2 = Rename(RandomDivisor(), {{"b", "b1"}});
  Relation s(Schema::Parse("b2"), {{V(100)}, {V(200)}});
  EXPECT_EQ(Example2Lhs(r1, r2, s), Example2Rhs(r1, r2, s));
}

TEST_P(LawPropertyTest, Law10RandomRestrictor) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomDivisor();
  Relation r3 = gen_.RandomRelation(Schema::Parse("a"), 6, 12);
  EXPECT_EQ(Law10Lhs(r1, r2, r3), Law10Rhs(r1, r2, r3));
}

TEST_P(LawPropertyTest, Law11GroupedDividend) {
  Relation r0 = gen_.RandomRelation(Schema::Parse("a, x"), 20, 6);
  Relation r1 = GroupBy(r0, {"a"}, {{AggFunc::kSum, "x", "b"}});
  for (int64_t divisor_size : {0, 1, 2, 3}) {
    Relation r2 = gen_.Divisor(static_cast<size_t>(divisor_size), 40);
    ASSERT_TRUE(Law11Precondition(r1, r2));
    EXPECT_EQ(Law11Lhs(r1, r2), Law11Rhs(r1, r2)) << "divisor size " << divisor_size;
  }
}

TEST_P(LawPropertyTest, Law12GroupedDividend) {
  Relation r0 = gen_.RandomRelation(Schema::Parse("x, b"), 20, 6);
  if (r0.empty()) return;
  Relation r1 = GroupBy(r0, {"b"}, {{AggFunc::kSum, "x", "a"}});
  // Draw the divisor from πB(r1) so the foreign key holds.
  Relation b_values = Project(r1, {"b"});
  std::vector<Tuple> rows;
  for (const Tuple& t : b_values.tuples()) {
    if (gen_.Chance(0.5)) rows.push_back(t);
  }
  if (rows.empty()) rows.push_back(b_values.tuples()[0]);
  Relation r2(Schema::Parse("b"), rows);
  ASSERT_TRUE(Law12Precondition(r1, r2));
  EXPECT_EQ(Law12Lhs(r1, r2), Law12Rhs(r1, r2));
}

TEST_P(LawPropertyTest, Law13CDisjointPartition) {
  Relation r1 = RandomDividend();
  Relation r2 = gen_.GreatDivisor(4, 8, 0.35);
  ExprPtr split = Expr::ColCmp("c", CmpOp::kLt, V(2));
  Relation r2p = Select(r2, split);
  Relation r2pp = Select(r2, Expr::Not(split));
  if (r2p.empty() || r2pp.empty()) return;
  ASSERT_TRUE(Law13Precondition(r1, r2p, r2pp));
  EXPECT_EQ(Law13Lhs(r1, r2p, r2pp), Law13Rhs(r1, r2p, r2pp));
}

TEST_P(LawPropertyTest, Law14QuotientPredicate) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomGreatDivisor();
  ExprPtr p = Expr::ColCmp("a", CmpOp::kGe, V(gen_.UniformInt(0, 10)));
  EXPECT_EQ(Law14Lhs(r1, r2, p), Law14Rhs(r1, r2, p));
}

TEST_P(LawPropertyTest, Law15GroupPredicate) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomGreatDivisor();
  ExprPtr p = Expr::ColCmp("c", CmpOp::kLe, V(gen_.UniformInt(0, 4)));
  EXPECT_EQ(Law15Lhs(r1, r2, p), Law15Rhs(r1, r2, p));
}

TEST_P(LawPropertyTest, Laws14And15SplitAMixedConjunction) {
  // σ(pA ∧ pC ∧ pAC)(r1 ÷* r2) = σ(pAC)(σ(pA)(r1) ÷* σ(pC)(r2)): each law
  // moves the conjuncts over its own attributes, and a conjunct over A and
  // C together stays above the ÷*. The rules must build exactly that.
  Relation r1 = RandomDividend();
  Relation r2 = RandomGreatDivisor();
  ExprPtr pa = Expr::ColCmp("a", CmpOp::kGe, V(gen_.UniformInt(0, 10)));
  ExprPtr pc = Expr::ColCmp("c", CmpOp::kLe, V(gen_.UniformInt(0, 4)));
  ExprPtr pac = Expr::Or(Expr::ColCmp("a", CmpOp::kLt, V(gen_.UniformInt(0, 10))),
                         Expr::ColCmp("c", CmpOp::kGt, V(gen_.UniformInt(0, 4))));
  ExprPtr p = Expr::AndAll({pc, pa, pac});
  Relation lhs = Select(GreatDivide(r1, r2), p);
  EXPECT_EQ(lhs, Select(GreatDivide(Select(r1, pa), Select(r2, pc)), pac));

  Catalog catalog;
  PlanPtr plan = LogicalOp::Select(
      LogicalOp::GreatDivide(LogicalOp::Values(r1, "r1"), LogicalOp::Values(r2, "r2")), p);
  PlanPtr law14 = MakeLaw14SelectionPushdownRule()->Apply(plan, RewriteContext{});
  ASSERT_NE(law14, nullptr);
  ASSERT_EQ(law14->kind(), LogicalOp::Kind::kSelect);  // pC ∧ pAC stay above
  EXPECT_EQ(Evaluate(law14, catalog), lhs);
  PlanPtr both = MakeLaw15DivisorSelectionRule()->Apply(law14, RewriteContext{});
  ASSERT_NE(both, nullptr);
  ASSERT_EQ(both->kind(), LogicalOp::Kind::kSelect);  // pAC stays above
  EXPECT_TRUE(both->predicate()->Equals(*pac)) << both->ToString();
  EXPECT_EQ(Evaluate(both, catalog), lhs);
  EXPECT_EQ(MakeLaw14SelectionPushdownRule()->Apply(both, RewriteContext{}), nullptr);
  EXPECT_EQ(MakeLaw15DivisorSelectionRule()->Apply(both, RewriteContext{}), nullptr);
}

TEST_P(LawPropertyTest, Law16BPredicate) {
  Relation r1 = RandomDividend();
  Relation r2 = RandomGreatDivisor();
  ExprPtr p = Expr::ColCmp("b", CmpOp::kLe, V(gen_.UniformInt(0, 8)));
  EXPECT_EQ(Law16Lhs(r1, r2, p), Law16Rhs(r1, r2, p));
}

TEST_P(LawPropertyTest, Law17RandomFactors) {
  Relation star = gen_.RandomRelation(Schema::Parse("z"), 5, 5);
  Relation star_star = RandomDividend();
  Relation r2 = RandomGreatDivisor();
  EXPECT_EQ(Law17Lhs(star, star_star, r2), Law17Rhs(star, star_star, r2));
}

TEST_P(LawPropertyTest, Example3RandomInstances) {
  // Schemas per Example 3: r1*(a, b1), r1**(b2) with πb2(r2) ⊆ r1**.
  Relation star = Rename(RandomDividend(), {{"b", "b1"}});
  Relation star_star(Schema::Parse("b2"), {{V(0)}, {V(1)}, {V(2)}, {V(3)}, {V(4)}});
  std::vector<Tuple> rows;
  for (int i = 0, n = static_cast<int>(gen_.UniformInt(1, 5)); i < n; ++i) {
    rows.push_back({V(gen_.UniformInt(0, 8)), V(gen_.UniformInt(0, 4))});
  }
  Relation r2(Schema::Parse("b1, b2"), rows);
  EXPECT_EQ(Example3Lhs(star, star_star, r2), Example3Rhs(star, star_star, r2));
}

TEST_P(LawPropertyTest, Example4RandomInstances) {
  Relation star = gen_.RandomRelation(Schema::Parse("a1"), 6, 12);
  Relation star_star = Rename(RandomDividend(), {{"a", "a2"}});
  Relation r2 = RandomGreatDivisor();
  EXPECT_EQ(Example4Lhs(star, star_star, r2), Example4Rhs(star, star_star, r2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LawPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{26}));

TEST(Theorem2, NonCommutativityOnRandomInstances) {
  DataGen gen(123);
  for (int round = 0; round < 30; ++round) {
    Relation r1 = gen.Dividend(5, 6, 0.5);
    Relation r2 = gen.Divisor(3, 6);
    EXPECT_TRUE(theorems::Theorem2CommutedIsInvalid(r1, r2));
  }
}

TEST(Theorem3, SchemasDisagreeWhenIntersectionNonEmpty) {
  // A1 ∩ A2 ∩ A3 = {x} ≠ ∅: association orders give different schemas.
  std::vector<std::string> a1 = {"x", "y"};
  std::vector<std::string> a2 = {"x", "z"};
  std::vector<std::string> a3 = {"x"};
  EXPECT_FALSE(theorems::Theorem3SchemasAgree(a1, a2, a3));
  EXPECT_EQ(theorems::Theorem3LeftSchema(a1, a2, a3), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(theorems::Theorem3RightSchema(a1, a2, a3), (std::vector<std::string>{"y"}));
}

TEST(Theorem3, SchemasAgreeIffA1A3Disjoint) {
  // Exhaustive check over all subsets of a 3-attribute universe.
  const std::vector<std::string> universe = {"u", "v", "w"};
  for (int m1 = 0; m1 < 8; ++m1) {
    for (int m2 = 0; m2 < 8; ++m2) {
      for (int m3 = 0; m3 < 8; ++m3) {
        auto pick = [&](int mask) {
          std::vector<std::string> out;
          for (int i = 0; i < 3; ++i) {
            if (mask & (1 << i)) out.push_back(universe[static_cast<size_t>(i)]);
          }
          return out;
        };
        // Erratum: the exact agreement condition is A1 ∩ A3 = ∅ (see
        // core/theorems.hpp), not the paper's A1 ∩ A2 ∩ A3 = ∅.
        bool a1_a3_disjoint = (m1 & m3) == 0;
        EXPECT_EQ(theorems::Theorem3SchemasAgree(pick(m1), pick(m2), pick(m3)),
                  a1_a3_disjoint)
            << m1 << "," << m2 << "," << m3;
      }
    }
  }
}

}  // namespace
}  // namespace quotient
