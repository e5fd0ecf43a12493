// SQL front end units: lexer tokens, the §4 grammar, AST shape, and
// round-trip rendering.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "sql/lexer.hpp"
#include "sql/parser.hpp"

namespace quotient {
namespace sql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT s#, 'blue' FROM t WHERE x >= 1.5");
  ASSERT_TRUE(tokens.ok()) << tokens.error();
  const std::vector<Token>& t = tokens.value();
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_EQ(t[1].kind, TokenKind::kIdent);
  EXPECT_EQ(t[1].text, "s#");  // '#' is an identifier character (s#, p#)
  EXPECT_TRUE(t[2].IsSymbol(","));
  EXPECT_EQ(t[3].kind, TokenKind::kString);
  EXPECT_EQ(t[3].text, "blue");
  EXPECT_TRUE(t[4].IsKeyword("FROM"));
  EXPECT_TRUE(t[8].IsSymbol(">="));
  EXPECT_EQ(t[9].text, "1.5");
  EXPECT_EQ(t.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select Distinct FROM");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(tokens.value()[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens.value()[1].IsKeyword("DISTINCT"));
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ; b").ok());  // ';' is not in the dialect
}

TEST(ParserTest, MinimalSelect) {
  auto q = ParseQuery("SELECT a, b FROM t");
  ASSERT_TRUE(q.ok()) << q.error();
  EXPECT_EQ(q.value()->items.size(), 2u);
  EXPECT_EQ(q.value()->from.size(), 1u);
  EXPECT_EQ(q.value()->from[0].table, "t");
  EXPECT_EQ(q.value()->from[0].alias, "t");
}

TEST(ParserTest, AliasesBothForms) {
  auto q = ParseQuery("SELECT x FROM t AS u, v w");
  ASSERT_TRUE(q.ok()) << q.error();
  EXPECT_EQ(q.value()->from[0].alias, "u");
  EXPECT_EQ(q.value()->from[1].table, "v");
  EXPECT_EQ(q.value()->from[1].alias, "w");
}

TEST(ParserTest, DivideByProduction) {
  auto q = ParseQuery(
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#");
  ASSERT_TRUE(q.ok()) << q.error();
  const TableRef& ref = q.value()->from[0];
  ASSERT_NE(ref.divisor, nullptr);
  EXPECT_EQ(ref.divisor->table, "parts");
  EXPECT_EQ(ref.divisor->alias, "p");
  ASSERT_NE(ref.on_condition, nullptr);
  EXPECT_EQ(ref.on_condition->kind, SqlExpr::Kind::kCompare);
}

TEST(ParserTest, DerivedTableDivisor) {
  auto q = ParseQuery(
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
      "AS p ON s.p# = p.p#");
  ASSERT_TRUE(q.ok()) << q.error();
  ASSERT_NE(q.value()->from[0].divisor, nullptr);
  EXPECT_NE(q.value()->from[0].divisor->subquery, nullptr);
}

TEST(ParserTest, NotExistsNesting) {
  auto q = ParseQuery(
      "SELECT DISTINCT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = t.a AND NOT "
      "EXISTS (SELECT * FROM v WHERE v.b = u.b))");
  ASSERT_TRUE(q.ok()) << q.error();
  const SqlExprPtr& where = q.value()->where;
  ASSERT_EQ(where->kind, SqlExpr::Kind::kExists);
  EXPECT_TRUE(where->negated);
  // The inner query's WHERE holds another negated EXISTS.
  const SqlExprPtr& inner = where->subquery->where;
  ASSERT_EQ(inner->kind, SqlExpr::Kind::kAnd);
  EXPECT_EQ(inner->right->kind, SqlExpr::Kind::kExists);
  EXPECT_TRUE(inner->right->negated);
}

TEST(ParserTest, InAndNotIn) {
  auto q = ParseQuery("SELECT a FROM t WHERE a IN (SELECT x FROM u) AND b NOT IN "
                      "(SELECT y FROM v)");
  ASSERT_TRUE(q.ok()) << q.error();
  const SqlExprPtr& where = q.value()->where;
  EXPECT_EQ(where->left->kind, SqlExpr::Kind::kInSubquery);
  EXPECT_FALSE(where->left->negated);
  EXPECT_EQ(where->right->kind, SqlExpr::Kind::kInSubquery);
  EXPECT_TRUE(where->right->negated);
}

TEST(ParserTest, GroupByHavingAggregates) {
  auto q = ParseQuery(
      "SELECT g, COUNT(x) AS n, SUM(x) AS s FROM t GROUP BY g HAVING COUNT(x) >= 2");
  ASSERT_TRUE(q.ok()) << q.error();
  EXPECT_EQ(q.value()->group_by.size(), 1u);
  EXPECT_EQ(q.value()->items[1].expr->kind, SqlExpr::Kind::kAggregate);
  EXPECT_EQ(q.value()->items[1].alias, "n");
  ASSERT_NE(q.value()->having, nullptr);
}

TEST(ParserTest, CountStar) {
  auto q = ParseQuery("SELECT COUNT(*) AS n FROM t GROUP BY g");
  ASSERT_TRUE(q.ok()) << q.error();
  EXPECT_TRUE(q.value()->items[0].expr->count_star);
}

TEST(ParserTest, OperatorPrecedence) {
  auto q = ParseQuery("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(q.ok()) << q.error();
  // AND binds tighter than OR: OR(a=1, AND(b=2, c=3)).
  EXPECT_EQ(q.value()->where->kind, SqlExpr::Kind::kOr);
  EXPECT_EQ(q.value()->where->right->kind, SqlExpr::Kind::kAnd);
}

TEST(ParserTest, ParenthesizedConditions) {
  auto q = ParseQuery("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  ASSERT_TRUE(q.ok()) << q.error();
  EXPECT_EQ(q.value()->where->kind, SqlExpr::Kind::kAnd);
  EXPECT_EQ(q.value()->where->left->kind, SqlExpr::Kind::kOr);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto q = ParseQuery("SELECT a FROM t WHERE a + b * 2 = 7");
  ASSERT_TRUE(q.ok()) << q.error();
  const SqlExprPtr& lhs = q.value()->where->left;
  ASSERT_EQ(lhs->kind, SqlExpr::Kind::kArith);
  EXPECT_EQ(lhs->op, "+");
  EXPECT_EQ(lhs->right->op, "*");
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseQuery("SELECT").ok());
  EXPECT_FALSE(ParseQuery("SELECT a").ok());                       // missing FROM
  EXPECT_FALSE(ParseQuery("SELECT a FROM t WHERE").ok());          // dangling WHERE
  EXPECT_FALSE(ParseQuery("SELECT a FROM t DIVIDE parts").ok());   // missing BY
  EXPECT_FALSE(ParseQuery("SELECT a FROM t DIVIDE BY p").ok());    // missing ON
  EXPECT_FALSE(ParseQuery("SELECT a FROM t extra garbage !").ok());
  EXPECT_FALSE(ParseQuery("").ok());
}

// One level past kMaxNestingDepth is a typed parse error, not a recursion
// deep enough to exhaust the stack; the limit itself still parses.
void ExpectNestingLimit(const std::function<std::string(size_t)>& nest) {
  auto at_limit = ParseQuery(nest(kMaxNestingDepth));
  EXPECT_TRUE(at_limit.ok()) << at_limit.error();
  auto past_limit = ParseQuery(nest(kMaxNestingDepth + 1));
  ASSERT_FALSE(past_limit.ok());
  EXPECT_EQ(past_limit.status().code(), StatusCode::kError);
  EXPECT_NE(past_limit.error().find("nesting deeper than " + std::to_string(kMaxNestingDepth) +
                                    " levels at position"),
            std::string::npos)
      << past_limit.error();
}

TEST(ParserTest, DerivedTablesNestedPastTheLimitAreAParseError) {
  ExpectNestingLimit([](size_t depth) {
    std::string query = "SELECT a FROM t";
    for (size_t i = 0; i < depth; ++i) query = "SELECT a FROM (" + query + ") AS d";
    return query;
  });
}

TEST(ParserTest, ParenthesesNestedPastTheLimitAreAParseError) {
  ExpectNestingLimit([](size_t depth) {
    return "SELECT a FROM t WHERE " + std::string(depth, '(') + "a = 1" +
           std::string(depth, ')');
  });
  ExpectNestingLimit([](size_t depth) {
    return "SELECT a FROM t WHERE a = " + std::string(depth, '(') + "1" + std::string(depth, ')');
  });
  ExpectNestingLimit([](size_t depth) {
    std::string query = "SELECT a FROM t WHERE ";
    for (size_t i = 0; i < depth; ++i) query += "NOT ";
    return query + "a = 1";
  });
}

// Left-deep chains parse in a loop, so only kMaxExpressionDepth bounds them:
// one link past it is a typed parse error that names the position, not a
// tree every later stage would recurse through once per link.
void ExpectChainLimit(const std::string& head, const std::string& link,
                      const std::string& tail) {
  auto chain = [&](size_t links) {
    std::string query = head;
    for (size_t i = 0; i < links; ++i) query += link;
    return query + tail;
  };
  auto at_limit = ParseQuery(chain(kMaxExpressionDepth));
  EXPECT_TRUE(at_limit.ok()) << at_limit.error();
  auto past_limit = ParseQuery(chain(kMaxExpressionDepth + 1));
  ASSERT_FALSE(past_limit.ok());
  EXPECT_EQ(past_limit.status().code(), StatusCode::kError);
  EXPECT_NE(past_limit.error().find("expression deeper than " +
                                    std::to_string(kMaxExpressionDepth) + " levels at position"),
            std::string::npos)
      << past_limit.error().substr(0, 200);
}

TEST(ParserTest, ChainOneLinkPastTheExpressionDepthIsAParseError) {
  ExpectChainLimit("SELECT a FROM t WHERE a = 1", " OR a = 1", "");
  ExpectChainLimit("SELECT a FROM t WHERE a", " + 1", " > 0");
}

TEST(ParserTest, ParenthesizedLevelsCountTowardTheExpressionDepth) {
  // 100 parenthesized levels (within kMaxNestingDepth) around a chain leave
  // room for kMaxExpressionDepth - 100 links inside.
  auto query = [](size_t links) {
    std::string chain = "a";
    for (size_t i = 0; i < links; ++i) chain += " + 1";
    return "SELECT a FROM t WHERE 0 < " + std::string(100, '(') + chain + std::string(100, ')');
  };
  EXPECT_TRUE(ParseQuery(query(kMaxExpressionDepth - 100)).ok());
  EXPECT_FALSE(ParseQuery(query(kMaxExpressionDepth - 99)).ok());
}

TEST(ParserTest, OutOfRangeIntegerLiteralIsAParseError) {
  const std::string where = "SELECT a FROM t WHERE s# = ";
  auto result = ParseQuery(where + "99999999999999999999999");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kError);
  EXPECT_EQ(result.error(),
            "integer literal out of range at position " + std::to_string(where.size()));
  // The LIMIT and INSERT literal paths report the same error.
  auto limit = ParseStatement("SELECT a FROM t LIMIT 99999999999999999999999");
  ASSERT_FALSE(limit.ok());
  EXPECT_EQ(limit.error(), "integer literal out of range at position 22");
  auto insert = ParseStatement("INSERT INTO t VALUES (-99999999999999999999999)");
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.error(), "integer literal out of range at position 23");
  // The int64 extremes themselves are representable.
  auto max = ParseQuery(where + "9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.error();
  EXPECT_EQ(max.value()->where->right->literal, Value::Int(INT64_MAX));
  auto min = ParseStatement("INSERT INTO t VALUES (-9223372036854775808)");
  ASSERT_TRUE(min.ok()) << min.error();
  EXPECT_EQ(min.value()->insert.rows[0][0], Value::Int(INT64_MIN));
}

TEST(ParserTest, ToStringRoundTripParses) {
  const char* queries[] = {
      "SELECT a, b FROM t WHERE a = 1",
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#",
      "SELECT g, COUNT(x) AS n FROM t GROUP BY g HAVING COUNT(x) >= 2",
      "SELECT DISTINCT a FROM t, u WHERE NOT EXISTS (SELECT * FROM v WHERE v.a = t.a)",
  };
  for (const char* query : queries) {
    auto first = ParseQuery(query);
    ASSERT_TRUE(first.ok()) << query << ": " << first.error();
    std::string rendered = first.value()->ToString();
    auto second = ParseQuery(rendered);
    ASSERT_TRUE(second.ok()) << rendered << ": " << second.error();
    EXPECT_EQ(second.value()->ToString(), rendered);
  }
}

}  // namespace
}  // namespace sql
}  // namespace quotient
