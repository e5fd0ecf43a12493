// The physical hash division and hash great divide must agree with the
// reference algebra (Codd's definition, SCD's great divide) on the paper's
// examples and on randomized inputs.

#include <gtest/gtest.h>

#include "algebra/divide.hpp"
#include "algebra/generator.hpp"
#include "algebra/ops.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_divide.hpp"
#include "exec/exec_great_divide.hpp"
#include "paper_fixtures.hpp"

namespace quotient {
namespace {

TEST(HashDivisionTest, Figure1) {
  EXPECT_EQ(ExecDivide(paper::Fig1Dividend(), paper::Fig1Divisor()),
            paper::Fig1Quotient());
}

TEST(HashDivisionTest, Figure4) {
  EXPECT_EQ(ExecDivide(paper::Fig4Dividend(), paper::Fig4Divisor()),
            paper::Fig4Quotient());
}

TEST(HashDivisionTest, EmptyDivisorYieldsAllCandidates) {
  Relation r1 = paper::Fig1Dividend();
  Relation empty(Schema::Parse("b"));
  EXPECT_EQ(ExecDivide(r1, empty), Project(r1, {"a"}));
}

TEST(HashDivisionTest, EmptyDividendYieldsEmptyQuotient) {
  Relation empty(Schema::Parse("a, b"));
  EXPECT_TRUE(ExecDivide(empty, paper::Fig1Divisor()).empty());
}

TEST(HashDivisionTest, DivisorLargerThanEveryGroup) {
  Relation r1 = Relation::Parse("a, b", "1,1; 2,2");
  Relation r2 = Relation::Parse("b", "1; 2; 3");
  EXPECT_TRUE(ExecDivide(r1, r2).empty());
}

TEST(HashDivisionTest, SingleGroupCoversDivisor) {
  Relation r1 = Relation::Parse("a, b", "7,1; 7,2; 7,3");
  Relation r2 = Relation::Parse("b", "1; 3");
  EXPECT_EQ(ExecDivide(r1, r2), Relation::Parse("a", "7"));
}

TEST(HashDivisionTest, MultiAttributeAandB) {
  // A = {a1, a2}, B = {b1, b2}.
  Relation r1 = Relation::Parse("a1, a2, b1, b2",
                                "1,1,10,20; 1,1,11,21;"
                                "1,2,10,20;"
                                "2,1,10,20; 2,1,11,21; 2,1,12,22");
  Relation r2 = Relation::Parse("b1, b2", "10,20; 11,21");
  Relation expected = Relation::Parse("a1, a2", "1,1; 2,1");
  EXPECT_EQ(ExecDivide(r1, r2), expected);
}

TEST(HashDivisionTest, RandomizedAgainstReference) {
  DataGen gen(0xD1Dull);
  for (int round = 0; round < 60; ++round) {
    Relation r1 = gen.Dividend(/*groups=*/gen.UniformInt(0, 12),
                               /*domain=*/gen.UniformInt(1, 10), /*density=*/0.4);
    Relation r2 = gen.Divisor(/*size=*/gen.UniformInt(0, 6), /*domain=*/10);
    EXPECT_EQ(ExecDivide(r1, r2), DivideCodd(r1, r2))
        << "round " << round << "\nr1:\n"
        << r1.ToString() << "r2:\n"
        << r2.ToString();
  }
}

TEST(HashDivisionTest, RandomizedStringBAgainstReference) {
  // String-valued B domain: the key dictionaries intern strings instead of
  // ints; the division must still agree with the reference.
  DataGen gen(0x57Dull);
  for (int round = 0; round < 30; ++round) {
    Relation r1 = StringifyAttribute(
        gen.Dividend(gen.UniformInt(0, 10), gen.UniformInt(1, 9), 0.4), "b");
    Relation r2 = StringifyAttribute(gen.Divisor(gen.UniformInt(0, 6), 9), "b");
    EXPECT_EQ(ExecDivide(r1, r2), DivideCodd(r1, r2)) << "round " << round;
  }
}

TEST(HashDivisionTest, RandomizedMixedTypeBAgainstReference) {
  // B mixes an int, a real, and a string attribute: dictionary equality must
  // respect strict Value equality (Int(2) != Real(2.0)) per column.
  DataGen gen(0x317ull);
  for (int round = 0; round < 30; ++round) {
    std::vector<Tuple> dividend_rows;
    size_t groups = static_cast<size_t>(gen.UniformInt(0, 8));
    for (size_t g = 0; g < groups; ++g) {
      for (int i = 0, n = static_cast<int>(gen.UniformInt(0, 10)); i < n; ++i) {
        dividend_rows.push_back({V(static_cast<int64_t>(g)), V(gen.UniformInt(0, 3)),
                                 V(0.5 * static_cast<double>(gen.UniformInt(0, 3))),
                                 V("s" + std::to_string(gen.UniformInt(0, 3)))});
      }
    }
    Relation r1(Schema::Parse("a, b1, b2:real, b3:string"), std::move(dividend_rows));
    std::vector<Tuple> divisor_rows;
    for (int i = 0, n = static_cast<int>(gen.UniformInt(0, 4)); i < n; ++i) {
      divisor_rows.push_back({V(gen.UniformInt(0, 3)),
                              V(0.5 * static_cast<double>(gen.UniformInt(0, 3))),
                              V("s" + std::to_string(gen.UniformInt(0, 3)))});
    }
    Relation r2(Schema::Parse("b1, b2:real, b3:string"), std::move(divisor_rows));
    EXPECT_EQ(ExecDivide(r1, r2), DivideCodd(r1, r2)) << "round " << round;
  }
}

TEST(HashDivisionTest, WideBKeysExerciseSpillPath) {
  // 17+ B columns over a 10-value domain overflow the 64-bit key layout, so
  // the divisor codec takes the spill (SmallByteKey) representation.
  DataGen gen(0x5B111ull);
  for (int round = 0; round < 3; ++round) {
    constexpr size_t kNumB = 18;
    // 18 B columns, each with hundreds of distinct values (≥9 bits): the
    // packed layout needs far more than 64 bits, guaranteeing a spill.
    Relation r1 = gen.DividendWide(/*groups=*/4, /*num_a=*/1, kNumB,
                                   /*domain=*/300, /*density=*/0.2);
    // Divisor: a sample of the dividend's own B tuples (plus arity check),
    // so quotients are nonempty.
    std::vector<size_t> b_idx;
    for (size_t i = 1; i <= kNumB; ++i) b_idx.push_back(i);
    std::vector<Tuple> divisor_rows;
    for (const Tuple& t : r1.tuples()) {
      if (gen.Chance(0.1)) divisor_rows.push_back(ProjectTuple(t, b_idx));
    }
    std::vector<std::string> b_names;
    for (size_t i = 1; i <= kNumB; ++i) b_names.push_back("b" + std::to_string(i));
    Relation r2(r1.schema().Project(b_names), std::move(divisor_rows));
    EXPECT_EQ(ExecDivide(r1, r2), DivideCodd(r1, r2)) << "round " << round;
  }
}

TEST(HashDivisionTest, WideAKeysExerciseSpillPath) {
  // Many A columns: the candidate (quotient) codec spills instead.
  DataGen gen(0x5A111ull);
  for (int round = 0; round < 3; ++round) {
    Relation r1 = gen.DividendWide(/*groups=*/40, /*num_a=*/18, /*num_b=*/1,
                                   /*domain=*/300, /*density=*/0.05);
    Relation r2 = gen.Divisor(/*size=*/3, /*domain=*/300);
    EXPECT_EQ(ExecDivide(r1, r2), DivideCodd(r1, r2)) << "round " << round;
  }
}

TEST(HashGreatDivideTest, Figure2) {
  EXPECT_EQ(ExecGreatDivide(paper::Fig1Dividend(), paper::Fig2Divisor()),
            paper::Fig2Quotient());
}

TEST(HashGreatDivideTest, EmptyDivisorYieldsEmptyResult) {
  // No divisor rows means no C groups, so the great divide is empty (this
  // regressed once as an out-of-bounds index on the empty count matrix).
  Relation r1 = paper::Fig1Dividend();
  Relation empty(Schema::Parse("b, c"));
  EXPECT_EQ(ExecGreatDivide(r1, empty), GreatDivideSCD(r1, empty));
  EXPECT_TRUE(ExecGreatDivide(r1, empty).empty());
}

TEST(HashGreatDivideTest, RandomizedAgainstReference) {
  DataGen gen(0x6D1Dull);
  for (int round = 0; round < 60; ++round) {
    Relation r1 = gen.Dividend(gen.UniformInt(0, 10), gen.UniformInt(1, 8), 0.45);
    Relation r2 = gen.GreatDivisor(gen.UniformInt(1, 5), 8, 0.3);
    EXPECT_EQ(ExecGreatDivide(r1, r2), GreatDivideSCD(r1, r2))
        << "round " << round;
  }
}

}  // namespace
}  // namespace quotient
