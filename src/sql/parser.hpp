#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sql/ast.hpp"
#include "sql/lexer.hpp"
#include "util/status.hpp"

namespace quotient {
namespace sql {

/// The deepest nesting the parser accepts. Every parenthesized expression
/// or condition, aggregate call, NOT, subquery and derived table opens one
/// level; a statement nested deeper is a parse error rather than a
/// recursion that could exhaust the stack.
inline constexpr size_t kMaxNestingDepth = 128;

/// The deepest expression tree the parser accepts, counted in chain links
/// (each AND, OR, +, -, * and /) and parenthesized levels along one path.
/// Chains parse in a loop, so kMaxNestingDepth never sees them, but every
/// later stage recurses once per link. SQLite's SQLITE_MAX_EXPR_DEPTH
/// defaults to the same 1000.
inline constexpr size_t kMaxExpressionDepth = 1000;

/// Parses a SELECT query in the dialect of Section 4:
///
///   SELECT [DISTINCT] items FROM table_ref (',' table_ref)*
///     [WHERE condition] [GROUP BY columns [HAVING condition]]
///
///   table_ref := table_factor [DIVIDE BY table_factor ON condition]
///   table_factor := name [[AS] alias] | '(' query ')' [AS] alias
///
/// Conditions support AND/OR/NOT, the six comparators, (NOT) EXISTS
/// (subquery), expr (NOT) IN (subquery), and arithmetic with the aggregate
/// functions COUNT/SUM/MIN/MAX/AVG. '?' parses as a parameter placeholder
/// (ordinals assigned left to right) for prepared statements
/// (api/session.hpp); bind values with sql::BindParameters.
Result<std::shared_ptr<SqlQuery>> ParseQuery(const std::string& text);

/// Parses an already-tokenized statement (the stream must end with a kEnd
/// token, as Tokenize produces). Lets callers that also need the token
/// stream — e.g. the Session's SQL normalization — lex only once.
Result<std::shared_ptr<SqlQuery>> ParseTokens(std::vector<Token> tokens);

/// Parses one top-level statement: a SELECT (with the statement-level
/// ORDER BY / LIMIT tail), INSERT INTO ... VALUES, DELETE FROM ... [WHERE],
/// or transaction control (BEGIN/COMMIT/ROLLBACK [TRANSACTION|WORK]).
Result<std::shared_ptr<SqlStatement>> ParseStatement(const std::string& text);
Result<std::shared_ptr<SqlStatement>> ParseStatementTokens(std::vector<Token> tokens);

}  // namespace sql
}  // namespace quotient
