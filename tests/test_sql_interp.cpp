// SQL interpreter semantics beyond the paper's queries: name resolution,
// correlation, derived tables, aggregates, and the DIVIDE BY edge cases.

#include <gtest/gtest.h>

#include <limits>

#include "sql/interp.hpp"

namespace quotient {
namespace {

class SqlInterpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.Put("t", Relation::Parse("a, b", "1,10; 2,20; 3,30"));
    catalog_.Put("u", Relation::Parse("a, c", "1,100; 3,300"));
    catalog_.Put("r1", Relation::Parse("a, b", "1,1; 1,2; 2,1"));
    catalog_.Put("r2", Relation::Parse("b", "1; 2"));
  }

  Relation Run(const std::string& query) {
    Result<Relation> result = sql::ExecuteSql(query, catalog_);
    EXPECT_TRUE(result.ok()) << query << "\n" << result.error();
    return result.ok() ? result.value() : Relation();
  }

  Catalog catalog_;
};

TEST_F(SqlInterpTest, SelectStarStripsQualifiersWhenUnique) {
  Relation r = Run("SELECT * FROM t");
  EXPECT_EQ(r.schema().Names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.size(), 3u);
}

TEST_F(SqlInterpTest, SelectStarKeepsQualifiersOnCollision) {
  Relation r = Run("SELECT * FROM t, u");
  // Both factors expose 'a': those stay qualified, the rest are bare.
  EXPECT_TRUE(r.schema().Contains("t.a"));
  EXPECT_TRUE(r.schema().Contains("u.a"));
  EXPECT_TRUE(r.schema().Contains("b"));
  EXPECT_TRUE(r.schema().Contains("c"));
}

TEST_F(SqlInterpTest, AmbiguousBareColumnIsAnError) {
  Result<Relation> result = sql::ExecuteSql("SELECT a FROM t, u", catalog_);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().find("ambiguous"), std::string::npos);
}

TEST_F(SqlInterpTest, QualifiedColumnsDisambiguate) {
  Relation r = Run("SELECT t.a, u.a AS ua FROM t, u WHERE t.a = u.a");
  EXPECT_EQ(r, Relation::Parse("a, ua", "1,1; 3,3"));
}

TEST_F(SqlInterpTest, WhereWithArithmetic) {
  EXPECT_EQ(Run("SELECT a FROM t WHERE b / 10 = a * 1.0"), Relation::Parse("a", "1; 2; 3"));
  EXPECT_EQ(Run("SELECT a FROM t WHERE b + 5 > 28"), Relation::Parse("a", "3"));
}

TEST_F(SqlInterpTest, SelectExpressionItems) {
  Relation r = Run("SELECT a + 1 AS next FROM t WHERE a = 1");
  EXPECT_EQ(r.schema().Names(), (std::vector<std::string>{"next"}));
  EXPECT_EQ(r.tuples()[0][0], V(2));
}

TEST_F(SqlInterpTest, IntegerOverflowIsAnError) {
  // int64 arithmetic that does not fit is an error, never a wrapped value.
  for (const char* query : {"SELECT a + 9223372036854775807 AS x FROM t",
                            "SELECT a FROM t WHERE a + 9223372036854775807 < 0",
                            "SELECT a FROM t WHERE 0 - b - 9223372036854775807 < 0",
                            "SELECT a FROM t WHERE b * 4611686018427387904 > 0"}) {
    Result<Relation> result = sql::ExecuteSql(query, catalog_);
    ASSERT_FALSE(result.ok()) << query;
    EXPECT_NE(result.error().find("integer overflow"), std::string::npos) << result.error();
  }
  EXPECT_EQ(Run("SELECT a FROM t WHERE a + 9223372036854775804 < 0"), Relation(Schema::Parse("a")));
}

TEST_F(SqlInterpTest, IntegerSumOverflowIsAnError) {
  // Checked once per group on the exact sum: group 2's {max, 1, -1} fits
  // although its prefix max + 1 does not.
  const int64_t max = std::numeric_limits<int64_t>::max();
  catalog_.Put("s", Relation::FromRows("g, k, a", {{V(1), V(1), V(max)},
                                                   {V(1), V(2), V(1)},
                                                   {V(2), V(1), V(max)},
                                                   {V(2), V(2), V(1)},
                                                   {V(2), V(3), V(-1)}}));
  for (const char* query : {"SELECT g, SUM(a) AS n FROM s GROUP BY g",
                            "SELECT g FROM s GROUP BY g HAVING SUM(a) < 0"}) {
    Result<Relation> result = sql::ExecuteSql(query, catalog_);
    ASSERT_FALSE(result.ok()) << query;
    EXPECT_NE(result.error().find("integer overflow in SUM"), std::string::npos)
        << result.error();
  }
  EXPECT_EQ(Run("SELECT g, SUM(a) AS n FROM s WHERE g = 2 GROUP BY g"),
            Relation::FromRows("g, n", {{V(2), V(max)}}));
}

TEST_F(SqlInterpTest, IntegerAvgDividesTheExactSum) {
  // 2^53 + 1 rounds to 2^53 in a double; the exact sum 2^53 + 2 halves to
  // 2^52 + 1, which a double holds exactly.
  const int64_t big = (int64_t{1} << 53) + 1;
  catalog_.Put("w", Relation::FromRows("g, k, a", {{V(1), V(1), V(big)}, {V(1), V(2), V(1)}}));
  EXPECT_EQ(Run("SELECT g, AVG(a) AS m FROM w GROUP BY g"),
            Relation::FromRows("g, m:real", {{V(1), V(4503599627370497.0)}}));
}

TEST_F(SqlInterpTest, CorrelatedExistsSeesOuterRow) {
  EXPECT_EQ(Run("SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a)"),
            Relation::Parse("a", "1; 3"));
  EXPECT_EQ(Run("SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = t.a)"),
            Relation::Parse("a", "2"));
}

TEST_F(SqlInterpTest, DerivedTablesAreQualifiedByAlias) {
  Relation r = Run(
      "SELECT q.a FROM (SELECT a FROM t WHERE b >= 20) AS q WHERE q.a < 3");
  EXPECT_EQ(r, Relation::Parse("a", "2"));
}

TEST_F(SqlInterpTest, GlobalAggregateWithoutGroupBy) {
  Relation r = Run("SELECT COUNT(*) AS n, SUM(b) AS s, MIN(a) AS lo, MAX(a) AS hi, "
                   "AVG(b) AS m FROM t");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.tuples()[0][0], V(3));
  EXPECT_EQ(r.tuples()[0][1], V(60));
  EXPECT_EQ(r.tuples()[0][2], V(1));
  EXPECT_EQ(r.tuples()[0][3], V(3));
  EXPECT_EQ(r.tuples()[0][4], V(20.0));
}

TEST_F(SqlInterpTest, HavingOverCompositeCondition) {
  catalog_.Put("sales", Relation::Parse("region, amount",
                                        "1,10; 1,20; 2,5; 2,5; 3,100"));
  Relation r = Run(
      "SELECT region, SUM(amount) AS total FROM sales GROUP BY region "
      "HAVING SUM(amount) >= 15 AND COUNT(amount) >= 2");
  // region 1: total 30 over 2 rows (passes); region 2: 10 (fails the sum);
  // region 3: 100 but one row (fails the count). Note set semantics merged
  // region 2's duplicate (2,5) rows into one tuple.
  EXPECT_EQ(r, Relation::Parse("region, total", "1,30"));
}

TEST_F(SqlInterpTest, DivideBySmallWhenOnCoversDivisor) {
  EXPECT_EQ(Run("SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b"), Relation::Parse("a", "1"));
}

TEST_F(SqlInterpTest, DivideByWithDifferentColumnNames) {
  catalog_.Put("d", Relation::Parse("x", "1; 2"));
  // Divisor column x is renamed onto dividend column b via the ON clause.
  EXPECT_EQ(Run("SELECT a FROM r1 DIVIDE BY d ON r1.b = d.x"), Relation::Parse("a", "1"));
}

TEST_F(SqlInterpTest, DivideByRejectsNonEquiAndDisjointOn) {
  EXPECT_FALSE(sql::ExecuteSql("SELECT a FROM r1 DIVIDE BY r2 ON r1.b < r2.b", catalog_).ok());
  EXPECT_FALSE(sql::ExecuteSql("SELECT a FROM r1 DIVIDE BY r2 ON 1 = 1", catalog_).ok());
}

TEST_F(SqlInterpTest, DivideByEmptyDivisorGroupSemantics) {
  // Small divide with empty divisor: vacuous truth keeps all candidates.
  catalog_.Put("empty", Relation(Schema::Parse("b")));
  EXPECT_EQ(Run("SELECT a FROM r1 DIVIDE BY empty ON r1.b = empty.b"),
            Relation::Parse("a", "1; 2"));
}

TEST_F(SqlInterpTest, InSubqueryWithWrongArityFails) {
  EXPECT_FALSE(
      sql::ExecuteSql("SELECT a FROM t WHERE a IN (SELECT a, b FROM t)", catalog_).ok());
}

TEST_F(SqlInterpTest, DuplicateRemovalIsSetSemantics) {
  catalog_.Put("dups", Relation::Parse("a, b", "1,1; 1,2"));
  // Projecting to 'a' merges the rows even without DISTINCT (Appendix A
  // set semantics).
  EXPECT_EQ(Run("SELECT a FROM dups"), Relation::Parse("a", "1"));
}

}  // namespace
}  // namespace quotient
