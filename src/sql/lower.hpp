#pragma once

#include "plan/logical.hpp"
#include "sql/ast.hpp"
#include "util/status.hpp"

namespace quotient {
namespace sql {

/// Compiles a parsed query into a logical plan whose execution through the
/// rewrite engine + physical planner reproduces the oracle interpreter
/// (sql::ExecuteQueryOracle) bit for bit — schemas, output names, and set
/// semantics included. This is the one SQL compile path: the Session front
/// door and the plannable-§4 tests both go through it.
///
/// Coverage:
///   * FROM with base tables, derived tables, comma joins, and DIVIDE BY
///     ... ON (equality conditions only, per §4),
///   * GROUP BY plain columns with COUNT/SUM/MIN/MAX/AVG and HAVING,
///   * SELECT * (qualifiers stripped exactly like the interpreter),
///   * uncorrelated IN / NOT IN subqueries as semi-/anti-joins,
///   * equality-correlated EXISTS / NOT EXISTS as semi-/anti-joins,
///   * HAVING aggregates that do not appear in the select list.
///
/// Anything it cannot express — correlated subqueries beyond one level of
/// equality correlation (the paper's Q3), computed select items, grouped
/// EXISTS, non-column GROUP BY — returns an error whose message the Session
/// records as the oracle-fallback reason.
Result<PlanPtr> LowerQuery(const SqlQuery& query, const Catalog& catalog);

/// Parse + lower.
Result<PlanPtr> LowerSql(const std::string& text, const Catalog& catalog);

// ---- statement-level DML lowering and result shaping ----

/// Validates an INSERT's literal rows against the table's schema and
/// converts them to tuples (arity and types must match; integer literals
/// coerce into real columns). Errors mention the table and row.
Result<std::vector<Tuple>> LowerInsert(const SqlInsert& insert, const Catalog& catalog);

/// The survivor query of a DELETE: SELECT * FROM t WHERE NOT (pred).
/// Evaluating it yields exactly the rows that remain after the delete
/// (the engine stores relations as immutable sets, so DELETE is "replace
/// the table with its survivors"). Null `where` deletes everything; the
/// caller short-circuits that case instead of calling this.
std::shared_ptr<SqlQuery> DeleteSurvivorQuery(const SqlDelete& del);

/// True when `query` carries a statement-level ORDER BY or LIMIT tail.
inline bool HasOrderLimit(const SqlQuery& query) {
  return !query.order_by.empty() || query.limit >= 0;
}

/// Applies the statement-level ORDER BY / LIMIT tail to a materialized
/// result: stable-sorts by the order keys (each must name a result column),
/// truncates to `limit` rows, and re-canonicalizes into a Relation. With no
/// ORDER BY, LIMIT keeps the first rows in canonical order — deterministic
/// at every thread count. A no-op when the query has neither.
Result<Relation> ApplyOrderLimit(const SqlQuery& query, Relation rows);

}  // namespace sql
}  // namespace quotient
