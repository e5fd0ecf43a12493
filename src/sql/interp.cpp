#include "sql/interp.hpp"

#include <limits>
#include <map>
#include <optional>

#include "algebra/divide.hpp"
#include "algebra/ops.hpp"
#include "sql/parser.hpp"

namespace quotient {
namespace sql {

namespace {

/// One name-resolution frame: a schema with "alias.column" attribute names
/// plus the current tuple.
struct Frame {
  const Schema* schema;
  const Tuple* tuple;
};

/// Innermost-frame-last stack; column lookups search backwards (correlated
/// subqueries see their outer rows).
using Scope = std::vector<Frame>;

struct Resolved {
  size_t frame;
  size_t index;
};

std::optional<Resolved> ResolveColumn(const Scope& scope, const std::string& qualifier,
                                      const std::string& name) {
  for (size_t f = scope.size(); f-- > 0;) {
    const Schema& schema = *scope[f].schema;
    std::optional<size_t> found;
    for (size_t i = 0; i < schema.size(); ++i) {
      const std::string& attr = schema.attribute(i).name;
      bool match;
      if (!qualifier.empty()) {
        match = attr == qualifier + "." + name;
      } else {
        match = attr == name || (attr.size() > name.size() &&
                                 attr.compare(attr.size() - name.size(), name.size(), name) == 0 &&
                                 attr[attr.size() - name.size() - 1] == '.');
      }
      if (match) {
        if (found.has_value()) {
          throw SqlError("ambiguous column reference '" +
                         (qualifier.empty() ? name : qualifier + "." + name) + "'");
        }
        found = i;
      }
    }
    if (found.has_value()) return Resolved{f, *found};
  }
  return std::nullopt;
}

Value EvalScalar(const SqlExpr& expr, const Scope& scope, const Catalog& catalog);
Relation ExecuteQueryScoped(const SqlQuery& query, const Catalog& catalog, const Scope& outer);

bool EvalBool(const SqlExpr& expr, const Scope& scope, const Catalog& catalog) {
  switch (expr.kind) {
    case SqlExpr::Kind::kAnd:
      return EvalBool(*expr.left, scope, catalog) && EvalBool(*expr.right, scope, catalog);
    case SqlExpr::Kind::kOr:
      return EvalBool(*expr.left, scope, catalog) || EvalBool(*expr.right, scope, catalog);
    case SqlExpr::Kind::kNot: return !EvalBool(*expr.left, scope, catalog);
    case SqlExpr::Kind::kCompare: {
      Value l = EvalScalar(*expr.left, scope, catalog);
      Value r = EvalScalar(*expr.right, scope, catalog);
      bool numeric = (l.type() == ValueType::kInt || l.type() == ValueType::kReal) &&
                     (r.type() == ValueType::kInt || r.type() == ValueType::kReal);
      int c;
      if (numeric) {
        double x = l.Numeric(), y = r.Numeric();
        c = x < y ? -1 : (x > y ? 1 : 0);
      } else if (l.type() == r.type()) {
        c = l.Compare(r);
      } else {
        throw SqlError("type mismatch comparing " + l.ToString() + " and " + r.ToString());
      }
      if (expr.op == "=") return c == 0;
      if (expr.op == "<>") return c != 0;
      if (expr.op == "<") return c < 0;
      if (expr.op == "<=") return c <= 0;
      if (expr.op == ">") return c > 0;
      if (expr.op == ">=") return c >= 0;
      throw SqlError("bad comparator " + expr.op);
    }
    case SqlExpr::Kind::kExists: {
      Relation result = ExecuteQueryScoped(*expr.subquery, catalog, scope);
      return expr.negated ? result.empty() : !result.empty();
    }
    case SqlExpr::Kind::kInSubquery: {
      Value needle = EvalScalar(*expr.left, scope, catalog);
      Relation result = ExecuteQueryScoped(*expr.subquery, catalog, scope);
      if (result.schema().size() != 1) {
        throw SqlError("IN subquery must produce exactly one column");
      }
      bool found = false;
      for (const Tuple& t : result.tuples()) {
        if (t[0] == needle) {
          found = true;
          break;
        }
      }
      return expr.negated ? !found : found;
    }
    default: {
      Value v = EvalScalar(expr, scope, catalog);
      if (v.type() == ValueType::kInt) return v.as_int() != 0;
      throw SqlError("expression used as condition is not boolean: " + expr.ToString());
    }
  }
}

Value EvalScalar(const SqlExpr& expr, const Scope& scope, const Catalog& catalog) {
  switch (expr.kind) {
    case SqlExpr::Kind::kColumn: {
      std::optional<Resolved> r = ResolveColumn(scope, expr.qualifier, expr.name);
      if (!r) throw SqlError("unknown column '" + expr.ToString() + "'");
      return (*scope[r->frame].tuple)[r->index];
    }
    case SqlExpr::Kind::kLiteral: return expr.literal;
    case SqlExpr::Kind::kParam:
      throw SqlError("unbound parameter '?' (bind values via a prepared statement)");
    case SqlExpr::Kind::kArith: {
      Value l = EvalScalar(*expr.left, scope, catalog);
      Value r = EvalScalar(*expr.right, scope, catalog);
      bool both_int = l.type() == ValueType::kInt && r.type() == ValueType::kInt;
      double x = l.Numeric(), y = r.Numeric();
      if (both_int && (expr.op == "+" || expr.op == "-" || expr.op == "*")) {
        int64_t i = l.as_int(), j = r.as_int(), k = 0;
        bool overflow = expr.op == "+"   ? __builtin_add_overflow(i, j, &k)
                        : expr.op == "-" ? __builtin_sub_overflow(i, j, &k)
                                         : __builtin_mul_overflow(i, j, &k);
        if (overflow) throw SqlError("integer overflow in arithmetic");
        return Value::Int(k);
      }
      if (expr.op == "+") return Value::Real(x + y);
      if (expr.op == "-") return Value::Real(x - y);
      if (expr.op == "*") return Value::Real(x * y);
      if (expr.op == "/") {
        if (y == 0) throw SqlError("division by zero");
        return Value::Real(x / y);
      }
      throw SqlError("bad arithmetic operator " + expr.op);
    }
    case SqlExpr::Kind::kCompare:
    case SqlExpr::Kind::kAnd:
    case SqlExpr::Kind::kOr:
    case SqlExpr::Kind::kNot:
    case SqlExpr::Kind::kExists:
    case SqlExpr::Kind::kInSubquery:
      return Value::Int(EvalBool(expr, scope, catalog) ? 1 : 0);
    case SqlExpr::Kind::kAggregate:
      throw SqlError("aggregate " + expr.name + " outside GROUP BY context");
  }
  throw SqlError("bad expression");
}

bool ContainsAggregate(const SqlExpr& expr) {
  if (expr.kind == SqlExpr::Kind::kAggregate) return true;
  if (expr.left != nullptr && ContainsAggregate(*expr.left)) return true;
  if (expr.right != nullptr && ContainsAggregate(*expr.right)) return true;
  return false;
}

/// Evaluates an expression in a grouped context: aggregates are computed
/// over `rows`; everything else is evaluated against the group's
/// representative row (valid for group-by columns).
Value EvalGrouped(const SqlExpr& expr, const std::vector<Tuple>& rows, const Schema& schema,
                  const Scope& outer, const Catalog& catalog) {
  if (expr.kind == SqlExpr::Kind::kAggregate) {
    int64_t count = 0;
    double sum = 0;
    bool sum_int = true;
    __int128 sum_i = 0;  // range-checked once, below: no int64 add can wrap it
    std::optional<Value> min_v, max_v;
    for (const Tuple& row : rows) {
      Scope scope = outer;
      scope.push_back({&schema, &row});
      if (expr.count_star) {
        ++count;
        continue;
      }
      Value v = EvalScalar(*expr.left, scope, catalog);
      ++count;
      if (v.type() == ValueType::kInt) {
        sum_i += v.as_int();
        sum += static_cast<double>(v.as_int());
      } else if (v.type() == ValueType::kReal) {
        sum_int = false;
        sum += v.as_real();
      }
      if (!min_v || v < *min_v) min_v = v;
      if (!max_v || v > *max_v) max_v = v;
    }
    if (expr.name == "COUNT") return Value::Int(count);
    if (count == 0) return Value();
    if (expr.name == "SUM") {
      if (!sum_int) return Value::Real(sum);
      if (sum_i < std::numeric_limits<int64_t>::min() ||
          sum_i > std::numeric_limits<int64_t>::max()) {
        throw SqlError("integer overflow in SUM");
      }
      return Value::Int(static_cast<int64_t>(sum_i));
    }
    if (expr.name == "AVG") {
      // Divide the exact integer sum, as AggFinish does: the running double
      // sum rounds once an integer sum passes 2^53.
      return Value::Real((sum_int ? static_cast<double>(sum_i) : sum) /
                         static_cast<double>(count));
    }
    if (expr.name == "MIN") return *min_v;
    if (expr.name == "MAX") return *max_v;
    throw SqlError("bad aggregate " + expr.name);
  }
  if (expr.kind == SqlExpr::Kind::kAnd || expr.kind == SqlExpr::Kind::kOr ||
      expr.kind == SqlExpr::Kind::kNot || expr.kind == SqlExpr::Kind::kCompare ||
      expr.kind == SqlExpr::Kind::kArith) {
    SqlExpr shallow = expr;  // evaluate children in grouped context
    if (ContainsAggregate(expr)) {
      auto eval_child = [&](const SqlExprPtr& child) {
        auto lit = std::make_shared<SqlExpr>();
        lit->kind = SqlExpr::Kind::kLiteral;
        lit->literal = EvalGrouped(*child, rows, schema, outer, catalog);
        return lit;
      };
      if (shallow.left != nullptr) shallow.left = eval_child(expr.left);
      if (shallow.right != nullptr) shallow.right = eval_child(expr.right);
      Scope scope = outer;
      if (!rows.empty()) scope.push_back({&schema, &rows.front()});
      return EvalScalar(shallow, scope, catalog);
    }
  }
  Scope scope = outer;
  if (rows.empty()) throw SqlError("empty group");
  scope.push_back({&schema, &rows.front()});
  return EvalScalar(expr, scope, catalog);
}

ValueType TypeOfValue(const Value& v) { return v.type(); }

/// Infers an output type for a select item by probing (used only when the
/// result is empty; defaults to int).
ValueType InferType(const SqlExpr& expr, const Schema& schema) {
  switch (expr.kind) {
    case SqlExpr::Kind::kColumn: {
      Scope scope;
      Tuple dummy;
      (void)dummy;
      for (size_t i = 0; i < schema.size(); ++i) {
        const std::string& attr = schema.attribute(i).name;
        std::string qualified =
            expr.qualifier.empty() ? expr.name : expr.qualifier + "." + expr.name;
        if (attr == qualified || (attr.size() > expr.name.size() &&
                                  attr.compare(attr.size() - expr.name.size(), expr.name.size(),
                                               expr.name) == 0)) {
          return schema.attribute(i).type;
        }
      }
      return ValueType::kInt;
    }
    case SqlExpr::Kind::kLiteral: return TypeOfValue(expr.literal);
    case SqlExpr::Kind::kAggregate:
      if (expr.name == "COUNT") return ValueType::kInt;
      if (expr.name == "AVG") return ValueType::kReal;
      return expr.left != nullptr ? InferType(*expr.left, schema) : ValueType::kInt;
    case SqlExpr::Kind::kArith: return ValueType::kInt;
    default: return ValueType::kInt;
  }
}

/// Renames every attribute of `r` to "alias.name".
Relation Qualify(const Relation& r, const std::string& alias) {
  std::vector<Attribute> attributes = r.schema().attributes();
  for (Attribute& a : attributes) {
    // Derived tables may already carry qualified names; strip them first.
    size_t dot = a.name.rfind('.');
    std::string bare = dot == std::string::npos ? a.name : a.name.substr(dot + 1);
    a.name = alias + "." + bare;
  }
  return Relation(Schema(std::move(attributes)), r.tuples());
}

Relation EvalTableFactor(const TableRef& ref, const Catalog& catalog, const Scope& outer) {
  if (ref.subquery != nullptr) {
    return Qualify(ExecuteQueryScoped(*ref.subquery, catalog, outer), ref.alias);
  }
  if (!catalog.Has(ref.table)) throw SqlError("unknown table '" + ref.table + "'");
  return Qualify(catalog.Get(ref.table), ref.alias);
}

/// Analyzes the §4 ON clause: it must be a conjunction of equi-comparisons
/// between one dividend column and one divisor column. Returns pairs of
/// qualified (dividend attr, divisor attr).
void CollectOnPairs(const SqlExpr& cond, const Relation& dividend, const Relation& divisor,
                    std::vector<std::pair<std::string, std::string>>* pairs) {
  if (cond.kind == SqlExpr::Kind::kAnd) {
    CollectOnPairs(*cond.left, dividend, divisor, pairs);
    CollectOnPairs(*cond.right, dividend, divisor, pairs);
    return;
  }
  if (cond.kind != SqlExpr::Kind::kCompare || cond.op != "=" ||
      cond.left->kind != SqlExpr::Kind::kColumn || cond.right->kind != SqlExpr::Kind::kColumn) {
    // "We suggest to disallow this case." (§4)
    throw SqlError(
        "DIVIDE BY requires the ON clause to be a conjunction of column equalities; got " +
        cond.ToString());
  }
  auto find_in = [](const Relation& r, const SqlExpr& column) -> std::optional<std::string> {
    Scope scope;
    Tuple dummy(r.schema().size());
    scope.push_back({&r.schema(), &dummy});
    std::optional<Resolved> resolved = ResolveColumn(scope, column.qualifier, column.name);
    if (!resolved) return std::nullopt;
    return r.schema().attribute(resolved->index).name;
  };
  std::optional<std::string> l_div = find_in(dividend, *cond.left);
  std::optional<std::string> r_div = find_in(divisor, *cond.right);
  if (l_div && r_div) {
    pairs->emplace_back(*l_div, *r_div);
    return;
  }
  std::optional<std::string> l_dsr = find_in(divisor, *cond.left);
  std::optional<std::string> r_dvd = find_in(dividend, *cond.right);
  if (l_dsr && r_dvd) {
    pairs->emplace_back(*r_dvd, *l_dsr);
    return;
  }
  throw SqlError("ON clause must relate a dividend column to a divisor column: " +
                 cond.ToString());
}

Relation EvalTableRef(const TableRef& ref, const Catalog& catalog, const Scope& outer) {
  Relation base = EvalTableFactor(ref, catalog, outer);
  if (ref.divisor == nullptr) return base;

  Relation divisor = EvalTableFactor(*ref.divisor, catalog, outer);
  std::vector<std::pair<std::string, std::string>> pairs;
  CollectOnPairs(*ref.on_condition, base, divisor, &pairs);
  if (pairs.empty()) throw SqlError("DIVIDE BY needs at least one ON equality");
  // Rename divisor join attributes to the dividend's names so the division's
  // B attribute sets align; remaining divisor attributes form C (great
  // divide). If C is empty the operation is the small divide — the paper's
  // "small iff all divisor attributes appear in the ON clause".
  std::vector<std::pair<std::string, std::string>> renames;
  for (const auto& [dividend_attr, divisor_attr] : pairs) {
    if (dividend_attr == divisor_attr) continue;
    renames.emplace_back(divisor_attr, dividend_attr);
  }
  Relation aligned = renames.empty() ? divisor : Rename(divisor, renames);
  return GreatDivide(base, aligned);
}

Relation ExecuteQueryScoped(const SqlQuery& query, const Catalog& catalog, const Scope& outer) {
  if (query.from.empty()) throw SqlError("FROM clause is required");
  // FROM: product of table references (aliases must be distinct).
  Relation input = EvalTableRef(query.from[0], catalog, outer);
  for (size_t i = 1; i < query.from.size(); ++i) {
    input = Product(input, EvalTableRef(query.from[i], catalog, outer));
  }

  // WHERE, evaluated tuple-at-a-time with the outer scope visible.
  std::vector<Tuple> filtered;
  for (const Tuple& t : input.tuples()) {
    Scope scope = outer;
    scope.push_back({&input.schema(), &t});
    if (query.where == nullptr || EvalBool(*query.where, scope, catalog)) {
      filtered.push_back(t);
    }
  }
  Relation rows(input.schema(), std::move(filtered));

  bool any_aggregate = query.having != nullptr;
  for (const SelectItem& item : query.items) {
    if (!item.star && ContainsAggregate(*item.expr)) any_aggregate = true;
  }

  // SELECT *: strip qualifiers when unambiguous.
  if (query.items.size() == 1 && query.items[0].star) {
    if (!query.group_by.empty() || any_aggregate) {
      throw SqlError("SELECT * cannot be combined with GROUP BY");
    }
    std::vector<Attribute> attributes = rows.schema().attributes();
    std::map<std::string, int> bare_counts;
    for (const Attribute& a : attributes) {
      size_t dot = a.name.rfind('.');
      bare_counts[dot == std::string::npos ? a.name : a.name.substr(dot + 1)] += 1;
    }
    for (Attribute& a : attributes) {
      size_t dot = a.name.rfind('.');
      std::string bare = dot == std::string::npos ? a.name : a.name.substr(dot + 1);
      if (bare_counts[bare] == 1) a.name = bare;
    }
    return Relation(Schema(std::move(attributes)), rows.tuples());
  }

  // Output schema.
  std::vector<Attribute> out_attrs;
  for (size_t i = 0; i < query.items.size(); ++i) {
    const SelectItem& item = query.items[i];
    if (item.star) throw SqlError("'*' must be the only select item");
    std::string name = item.alias.empty() ? "col" + std::to_string(i + 1) : item.alias;
    out_attrs.push_back({name, InferType(*item.expr, rows.schema())});
  }

  std::vector<Tuple> out_rows;
  if (!query.group_by.empty() || any_aggregate) {
    // Group rows by the GROUP BY column values (empty list = one group).
    std::map<Tuple, std::vector<Tuple>, TupleLess> groups;
    for (const Tuple& t : rows.tuples()) {
      Scope scope = outer;
      scope.push_back({&rows.schema(), &t});
      Tuple key;
      key.reserve(query.group_by.size());
      for (const SqlExprPtr& g : query.group_by) key.push_back(EvalScalar(*g, scope, catalog));
      groups[std::move(key)].push_back(t);
    }
    // Global aggregates over empty input still produce one row (count = 0,
    // sum/min/max/avg NULL) — the SQL semantics, matching algebra::GroupBy.
    if (query.group_by.empty() && groups.empty()) groups[Tuple()] = {};
    for (const auto& [key, group_rows] : groups) {
      if (query.having != nullptr) {
        Value keep = EvalGrouped(*query.having, group_rows, rows.schema(), outer, catalog);
        if (!(keep.type() == ValueType::kInt && keep.as_int() != 0)) continue;
      }
      Tuple out;
      out.reserve(query.items.size());
      for (const SelectItem& item : query.items) {
        out.push_back(EvalGrouped(*item.expr, group_rows, rows.schema(), outer, catalog));
      }
      out_rows.push_back(std::move(out));
    }
  } else {
    for (const Tuple& t : rows.tuples()) {
      Scope scope = outer;
      scope.push_back({&rows.schema(), &t});
      Tuple out;
      out.reserve(query.items.size());
      for (const SelectItem& item : query.items) {
        out.push_back(EvalScalar(*item.expr, scope, catalog));
      }
      out_rows.push_back(std::move(out));
    }
  }
  // Set semantics: duplicates are always removed (DISTINCT is the default
  // in this algebra, as in Appendix A).
  return Relation(Schema(std::move(out_attrs)), std::move(out_rows));
}

}  // namespace

Relation ExecuteQueryOracle(const SqlQuery& query, const Catalog& catalog) {
  return ExecuteQueryScoped(query, catalog, {});
}

Result<Relation> ExecuteSql(const std::string& text, const Catalog& catalog) {
  Result<std::shared_ptr<SqlQuery>> parsed = ParseQuery(text);
  if (!parsed.ok()) return Result<Relation>::Error(parsed.error());
  try {
    return ExecuteQueryOracle(*parsed.value(), catalog);
  } catch (const SqlError& error) {
    return Result<Relation>::Error(error.what());
  } catch (const SchemaError& error) {
    return Result<Relation>::Error(error.what());
  }
}

}  // namespace sql
}  // namespace quotient
