#include "sql/lower.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "algebra/divide.hpp"
#include "sql/interp.hpp"
#include "sql/parser.hpp"

namespace quotient {
namespace sql {

namespace {

/// All lowering rejections are SqlError throws converted to Result at the
/// boundary; the Session uses the message as the oracle-fallback reason.
///
/// The resolution helpers below follow the oracle interpreter's exact
/// naming; keep the suffix-match rule in TryResolve in sync with
/// sql/interp.cpp if it ever changes.
[[noreturn]] void Unsupported(const std::string& what) { throw SqlError(what); }

/// Finds the unique qualified attribute matching a (possibly qualified)
/// column reference; nullopt when absent, SqlError when ambiguous.
std::optional<std::string> TryResolve(const Schema& schema, const SqlExpr& column) {
  std::optional<std::string> found;
  for (size_t i = 0; i < schema.size(); ++i) {
    const std::string& attr = schema.attribute(i).name;
    bool match;
    if (!column.qualifier.empty()) {
      match = attr == column.qualifier + "." + column.name;
    } else {
      match = attr == column.name ||
              (attr.size() > column.name.size() &&
               attr.compare(attr.size() - column.name.size(), column.name.size(),
                            column.name) == 0 &&
               attr[attr.size() - column.name.size() - 1] == '.');
    }
    if (match) {
      if (found) throw SqlError("ambiguous column '" + column.ToString() + "'");
      found = attr;
    }
  }
  return found;
}

std::string ResolveAgainst(const Schema& schema, const SqlExpr& column) {
  std::optional<std::string> found = TryResolve(schema, column);
  if (!found) throw SqlError("unknown column '" + column.ToString() + "'");
  return *found;
}

ValueType TypeOfAttr(const Schema& schema, const std::string& attr) {
  return schema.attribute(schema.IndexOfOrThrow(attr)).type;
}

bool ContainsSubquery(const SqlExpr& expr) {
  if (expr.kind == SqlExpr::Kind::kExists || expr.kind == SqlExpr::Kind::kInSubquery) {
    return true;
  }
  if (expr.left != nullptr && ContainsSubquery(*expr.left)) return true;
  if (expr.right != nullptr && ContainsSubquery(*expr.right)) return true;
  return false;
}

bool ContainsAggregateExpr(const SqlExpr& expr) {
  if (expr.kind == SqlExpr::Kind::kAggregate) return true;
  if (expr.left != nullptr && ContainsAggregateExpr(*expr.left)) return true;
  if (expr.right != nullptr && ContainsAggregateExpr(*expr.right)) return true;
  return false;
}

/// Translates a subquery-free, aggregate-free condition into a predicate
/// Expr over the qualified schema.
ExprPtr TranslateScalar(const SqlExpr& cond, const Schema& schema) {
  switch (cond.kind) {
    case SqlExpr::Kind::kAnd:
      return Expr::And(TranslateScalar(*cond.left, schema),
                       TranslateScalar(*cond.right, schema));
    case SqlExpr::Kind::kOr:
      return Expr::Or(TranslateScalar(*cond.left, schema),
                      TranslateScalar(*cond.right, schema));
    case SqlExpr::Kind::kNot: return Expr::Not(TranslateScalar(*cond.left, schema));
    case SqlExpr::Kind::kCompare: {
      CmpOp op;
      if (cond.op == "=") op = CmpOp::kEq;
      else if (cond.op == "<>") op = CmpOp::kNe;
      else if (cond.op == "<") op = CmpOp::kLt;
      else if (cond.op == "<=") op = CmpOp::kLe;
      else if (cond.op == ">") op = CmpOp::kGt;
      else op = CmpOp::kGe;
      return Expr::Compare(op, TranslateScalar(*cond.left, schema),
                           TranslateScalar(*cond.right, schema));
    }
    case SqlExpr::Kind::kArith: {
      Expr::Kind kind;
      if (cond.op == "+") kind = Expr::Kind::kAdd;
      else if (cond.op == "-") kind = Expr::Kind::kSub;
      else if (cond.op == "*") kind = Expr::Kind::kMul;
      else kind = Expr::Kind::kDiv;
      return Expr::Arith(kind, TranslateScalar(*cond.left, schema),
                         TranslateScalar(*cond.right, schema));
    }
    case SqlExpr::Kind::kColumn: return Expr::Column(ResolveAgainst(schema, cond));
    case SqlExpr::Kind::kLiteral: return Expr::Literal(cond.literal);
    case SqlExpr::Kind::kParam:
      // Prepared-statement placeholder: lowers to a plan-level parameter
      // slot so the statement compiles once and binds values per execution
      // (plan/logical.hpp BindPlanParameters).
      return Expr::Param(cond.param_index);
    case SqlExpr::Kind::kExists:
    case SqlExpr::Kind::kInSubquery:
      Unsupported("subquery nested under OR/NOT/arithmetic in WHERE");
    case SqlExpr::Kind::kAggregate:
      Unsupported("aggregate outside the GROUP BY select list / HAVING");
  }
  Unsupported("bad condition");
}

PlanPtr LowerSelect(const SqlQuery& query, const Catalog& catalog);

PlanPtr QualifyPlan(PlanPtr plan, const std::string& alias) {
  std::vector<std::pair<std::string, std::string>> renames;
  for (const Attribute& a : plan->schema().attributes()) {
    size_t dot = a.name.rfind('.');
    std::string bare = dot == std::string::npos ? a.name : a.name.substr(dot + 1);
    renames.emplace_back(a.name, alias + "." + bare);
  }
  return LogicalOp::Rename(std::move(plan), std::move(renames));
}

PlanPtr LowerTableFactor(const TableRef& ref, const Catalog& catalog) {
  if (ref.subquery != nullptr) {
    return QualifyPlan(LowerSelect(*ref.subquery, catalog), ref.alias);
  }
  if (!catalog.Has(ref.table)) throw SqlError("unknown table '" + ref.table + "'");
  return QualifyPlan(LogicalOp::Scan(catalog, ref.table), ref.alias);
}

/// DIVIDE BY ... ON: a conjunction of dividend-column = divisor-column
/// equalities (§4); divisor join columns are renamed onto the dividend's
/// names, then small divide iff the ON clause covers every divisor column.
void CollectOnPairs(const SqlExpr& cond, const Schema& dividend, const Schema& divisor,
                    std::vector<std::pair<std::string, std::string>>* pairs) {
  if (cond.kind == SqlExpr::Kind::kAnd) {
    CollectOnPairs(*cond.left, dividend, divisor, pairs);
    CollectOnPairs(*cond.right, dividend, divisor, pairs);
    return;
  }
  if (cond.kind != SqlExpr::Kind::kCompare || cond.op != "=" ||
      cond.left->kind != SqlExpr::Kind::kColumn ||
      cond.right->kind != SqlExpr::Kind::kColumn) {
    throw SqlError("DIVIDE BY ON must be a conjunction of column equalities");
  }
  auto l_dvd = TryResolve(dividend, *cond.left);
  auto r_dsr = TryResolve(divisor, *cond.right);
  if (l_dvd && r_dsr) {
    pairs->emplace_back(*l_dvd, *r_dsr);
    return;
  }
  auto l_dsr = TryResolve(divisor, *cond.left);
  auto r_dvd = TryResolve(dividend, *cond.right);
  if (l_dsr && r_dvd) {
    pairs->emplace_back(*r_dvd, *l_dsr);
    return;
  }
  throw SqlError("ON clause must relate a dividend column to a divisor column");
}

PlanPtr LowerTableRef(const TableRef& ref, const Catalog& catalog) {
  PlanPtr base = LowerTableFactor(ref, catalog);
  if (ref.divisor == nullptr) return base;
  PlanPtr divisor = LowerTableFactor(*ref.divisor, catalog);

  std::vector<std::pair<std::string, std::string>> pairs;
  CollectOnPairs(*ref.on_condition, base->schema(), divisor->schema(), &pairs);
  if (pairs.empty()) throw SqlError("DIVIDE BY needs at least one ON equality");
  std::vector<std::pair<std::string, std::string>> renames;
  for (const auto& [dividend_attr, divisor_attr] : pairs) {
    if (dividend_attr != divisor_attr) renames.emplace_back(divisor_attr, dividend_attr);
  }
  if (!renames.empty()) divisor = LogicalOp::Rename(divisor, renames);
  DivisionAttributes attrs =
      DivisionAttributeSets(base->schema(), divisor->schema(), /*allow_c=*/true);
  if (attrs.c.empty()) return LogicalOp::Divide(base, divisor);
  return LogicalOp::GreatDivide(base, divisor);
}

/// One (possibly negated) EXISTS / IN conjunct to be applied as a
/// semi-/anti-join after the plain WHERE conjuncts.
struct SemiConjunct {
  const SqlExpr* expr;
  bool negated;
};

/// expr IN (subquery) → outer ⋉ ρ[outer_attr](subplan); NOT IN → anti-join.
/// The subquery must lower standalone (no correlation).
PlanPtr ApplyInConjunct(PlanPtr outer, const SemiConjunct& conjunct, const Catalog& catalog) {
  const SqlExpr& e = *conjunct.expr;
  if (e.left->kind != SqlExpr::Kind::kColumn) {
    Unsupported("IN over a computed expression is not compilable");
  }
  std::string outer_attr = ResolveAgainst(outer->schema(), *e.left);
  PlanPtr sub = LowerSelect(*e.subquery, catalog);
  if (sub->schema().size() != 1) {
    Unsupported("IN subquery must produce exactly one column");
  }
  const Attribute& sub_attr = sub->schema().attribute(0);
  // The interpreter compares IN values with type-sensitive Value equality;
  // the semi-join reproduces that only when the declared types agree.
  if (sub_attr.type != TypeOfAttr(outer->schema(), outer_attr)) {
    Unsupported("IN subquery column type differs from the probe column");
  }
  if (sub_attr.name != outer_attr) {
    sub = LogicalOp::Rename(sub, {{sub_attr.name, outer_attr}});
  }
  return conjunct.negated ? LogicalOp::AntiJoin(std::move(outer), std::move(sub))
                          : LogicalOp::SemiJoin(std::move(outer), std::move(sub));
}

/// EXISTS (SELECT ... FROM f WHERE plain ∧ inner_col = outer_col ...) →
/// outer ⋉ ρ[outer cols](π[inner cols](σ[plain](f))); NOT EXISTS → anti-join.
PlanPtr ApplyExistsConjunct(PlanPtr outer, const SemiConjunct& conjunct,
                            const Catalog& catalog) {
  const SqlQuery& sub = *conjunct.expr->subquery;
  if (!sub.group_by.empty() || sub.having != nullptr) {
    Unsupported("EXISTS over a grouped subquery is not compilable");
  }
  for (const SelectItem& item : sub.items) {
    if (!item.star && ContainsAggregateExpr(*item.expr)) {
      Unsupported("EXISTS over an aggregating subquery is not compilable");
    }
  }
  if (sub.from.empty()) Unsupported("FROM clause is required");
  PlanPtr inner = LowerTableRef(sub.from[0], catalog);
  for (size_t i = 1; i < sub.from.size(); ++i) {
    inner = LogicalOp::Product(inner, LowerTableRef(sub.from[i], catalog));
  }

  // Split the subquery's WHERE: conjuncts that translate wholly against the
  // inner schema stay inside; inner_col = outer_col equalities become the
  // semi-join's key pairs; anything else is beyond this lowering.
  std::vector<ExprPtr> inner_plain;
  std::vector<std::pair<std::string, std::string>> corr;  // (inner, outer)
  std::vector<SqlExprPtr> conjuncts;
  if (sub.where != nullptr) {
    std::vector<const SqlExpr*> stack = {sub.where.get()};
    while (!stack.empty()) {
      const SqlExpr* c = stack.back();
      stack.pop_back();
      if (c->kind == SqlExpr::Kind::kAnd) {
        stack.push_back(c->right.get());
        stack.push_back(c->left.get());
        continue;
      }
      if (ContainsSubquery(*c)) {
        Unsupported("nested subquery inside EXISTS is not compilable");
      }
      bool inner_only = true;
      try {
        ExprPtr translated = TranslateScalar(*c, inner->schema());
        inner_plain.push_back(std::move(translated));
      } catch (const SqlError&) {
        inner_only = false;
      }
      if (inner_only) continue;
      if (c->kind != SqlExpr::Kind::kCompare || c->op != "=" ||
          c->left->kind != SqlExpr::Kind::kColumn ||
          c->right->kind != SqlExpr::Kind::kColumn) {
        Unsupported("EXISTS correlation must be a conjunction of column equalities");
      }
      // Inner scope wins when a name resolves in both (SQL shadowing); here
      // the conjunct failed to translate, so exactly one side is outer.
      auto li = TryResolve(inner->schema(), *c->left);
      auto ri = TryResolve(inner->schema(), *c->right);
      auto lo = TryResolve(outer->schema(), *c->left);
      auto ro = TryResolve(outer->schema(), *c->right);
      if (li && !ri && ro) {
        corr.emplace_back(*li, *ro);
      } else if (ri && !li && lo) {
        corr.emplace_back(*ri, *lo);
      } else {
        Unsupported("EXISTS correlation reaches beyond the enclosing query");
      }
    }
  }
  if (corr.empty()) Unsupported("uncorrelated EXISTS is not compilable");

  // The interpreter would still resolve the subquery's select items (against
  // inner-then-outer scope); reject what it would reject.
  for (const SelectItem& item : sub.items) {
    if (item.star) continue;
    if (item.expr->kind == SqlExpr::Kind::kLiteral) continue;
    if (item.expr->kind == SqlExpr::Kind::kColumn &&
        (TryResolve(inner->schema(), *item.expr) || TryResolve(outer->schema(), *item.expr))) {
      continue;
    }
    Unsupported("EXISTS subquery select item is not compilable");
  }

  if (!inner_plain.empty()) inner = LogicalOp::Select(inner, Expr::AndAll(inner_plain));
  std::vector<std::string> inner_cols;
  std::vector<std::pair<std::string, std::string>> renames;
  std::set<std::string> seen_inner, seen_outer;
  for (const auto& [inner_attr, outer_attr] : corr) {
    if (!seen_inner.insert(inner_attr).second || !seen_outer.insert(outer_attr).second) {
      Unsupported("EXISTS correlation repeats a column");
    }
    if (TypeOfAttr(inner->schema(), inner_attr) != TypeOfAttr(outer->schema(), outer_attr)) {
      Unsupported("EXISTS correlation column types differ");
    }
    inner_cols.push_back(inner_attr);
    if (inner_attr != outer_attr) renames.emplace_back(inner_attr, outer_attr);
  }
  inner = LogicalOp::Project(inner, inner_cols);
  if (!renames.empty()) inner = LogicalOp::Rename(inner, renames);
  // A renamed correlation column must not collide with a surviving one.
  for (const Attribute& a : inner->schema().attributes()) {
    if (!seen_outer.count(a.name)) Unsupported("EXISTS correlation renames collide");
  }
  return conjunct.negated ? LogicalOp::AntiJoin(std::move(outer), std::move(inner))
                          : LogicalOp::SemiJoin(std::move(outer), std::move(inner));
}

PlanPtr LowerSelect(const SqlQuery& query, const Catalog& catalog) {
  if (query.from.empty()) throw SqlError("FROM clause is required");
  PlanPtr plan = LowerTableRef(query.from[0], catalog);
  for (size_t i = 1; i < query.from.size(); ++i) {
    plan = LogicalOp::Product(plan, LowerTableRef(query.from[i], catalog));
  }

  if (query.where != nullptr) {
    std::vector<ExprPtr> plain;
    std::vector<SemiConjunct> semis;
    std::vector<const SqlExpr*> stack = {query.where.get()};
    while (!stack.empty()) {
      const SqlExpr* c = stack.back();
      stack.pop_back();
      if (c->kind == SqlExpr::Kind::kAnd) {
        stack.push_back(c->right.get());
        stack.push_back(c->left.get());
        continue;
      }
      bool negate = false;
      if (c->kind == SqlExpr::Kind::kNot && c->left != nullptr &&
          (c->left->kind == SqlExpr::Kind::kExists ||
           c->left->kind == SqlExpr::Kind::kInSubquery)) {
        negate = true;
        c = c->left.get();
      }
      if (c->kind == SqlExpr::Kind::kExists || c->kind == SqlExpr::Kind::kInSubquery) {
        semis.push_back({c, c->negated != negate});
        continue;
      }
      plain.push_back(TranslateScalar(*c, plan->schema()));
    }
    if (!plain.empty()) plan = LogicalOp::Select(plan, Expr::AndAll(plain));
    for (const SemiConjunct& conjunct : semis) {
      plan = conjunct.expr->kind == SqlExpr::Kind::kInSubquery
                 ? ApplyInConjunct(std::move(plan), conjunct, catalog)
                 : ApplyExistsConjunct(std::move(plan), conjunct, catalog);
    }
  }

  bool any_aggregate = query.having != nullptr || !query.group_by.empty();
  for (const SelectItem& item : query.items) {
    if (!item.star && ContainsAggregateExpr(*item.expr)) any_aggregate = true;
  }

  // SELECT *: strip qualifiers exactly like the interpreter (bare names when
  // unambiguous, qualified otherwise).
  if (query.items.size() == 1 && query.items[0].star) {
    if (!query.group_by.empty() || any_aggregate) {
      Unsupported("SELECT * cannot be combined with GROUP BY");
    }
    std::map<std::string, int> bare_counts;
    for (const Attribute& a : plan->schema().attributes()) {
      size_t dot = a.name.rfind('.');
      bare_counts[dot == std::string::npos ? a.name : a.name.substr(dot + 1)] += 1;
    }
    std::vector<std::pair<std::string, std::string>> renames;
    for (const Attribute& a : plan->schema().attributes()) {
      size_t dot = a.name.rfind('.');
      std::string bare = dot == std::string::npos ? a.name : a.name.substr(dot + 1);
      if (bare_counts[bare] == 1 && bare != a.name) renames.emplace_back(a.name, bare);
    }
    if (!renames.empty()) plan = LogicalOp::Rename(plan, renames);
    return plan;
  }

  if (any_aggregate) {
    std::vector<std::string> group_names;
    for (const SqlExprPtr& g : query.group_by) {
      if (g->kind != SqlExpr::Kind::kColumn) {
        Unsupported("GROUP BY supports plain columns only");
      }
      group_names.push_back(ResolveAgainst(plan->schema(), *g));
    }
    std::set<std::string> grouped(group_names.begin(), group_names.end());

    auto make_spec = [&](const SqlExpr& agg, size_t index) {
      AggSpec spec;
      if (agg.name == "COUNT") spec.fn = AggFunc::kCount;
      else if (agg.name == "SUM") spec.fn = AggFunc::kSum;
      else if (agg.name == "MIN") spec.fn = AggFunc::kMin;
      else if (agg.name == "MAX") spec.fn = AggFunc::kMax;
      else spec.fn = AggFunc::kAvg;
      if (agg.count_star) {
        spec.fn = AggFunc::kCount;
        spec.arg = plan->schema().attribute(0).name;
      } else {
        if (agg.left->kind != SqlExpr::Kind::kColumn) {
          Unsupported("aggregate arguments must be plain columns");
        }
        spec.arg = ResolveAgainst(plan->schema(), *agg.left);
      }
      spec.out = "agg$" + std::to_string(index);
      return spec;
    };

    std::vector<AggSpec> aggs;
    std::vector<std::pair<std::string, std::string>> final_renames;
    std::vector<std::string> final_columns;
    // ToString-keyed reuse so HAVING can reference select-list aggregates.
    std::map<std::string, std::string> agg_outputs;  // rendered agg -> agg$ name
    for (size_t i = 0; i < query.items.size(); ++i) {
      const SelectItem& item = query.items[i];
      if (item.star) Unsupported("'*' must be the only select item");
      std::string out_name = item.alias.empty() ? "col" + std::to_string(i + 1) : item.alias;
      if (item.expr->kind == SqlExpr::Kind::kColumn) {
        std::string qualified = ResolveAgainst(plan->schema(), *item.expr);
        if (!grouped.count(qualified)) {
          Unsupported("select column '" + qualified + "' is not in the GROUP BY list");
        }
        final_columns.push_back(qualified);
        final_renames.emplace_back(qualified, out_name);
      } else if (item.expr->kind == SqlExpr::Kind::kAggregate) {
        AggSpec spec = make_spec(*item.expr, aggs.size());
        agg_outputs.emplace(item.expr->ToString(), spec.out);
        final_columns.push_back(spec.out);
        final_renames.emplace_back(spec.out, out_name);
        aggs.push_back(std::move(spec));
      } else {
        Unsupported("grouped select items must be columns or aggregates");
      }
    }

    SqlExpr having_rewritten;
    if (query.having != nullptr) {
      // Replace every aggregate in HAVING by its agg$ output column, adding
      // specs for aggregates that are not in the select list.
      struct HavingRewriter {
        std::map<std::string, std::string>& outputs;
        std::vector<AggSpec>& aggs;
        const std::function<AggSpec(const SqlExpr&, size_t)>& make;

        SqlExpr Rewrite(const SqlExpr& e) const {
          if (e.kind == SqlExpr::Kind::kAggregate) {
            std::string key = e.ToString();
            auto it = outputs.find(key);
            if (it == outputs.end()) {
              AggSpec spec = make(e, aggs.size());
              it = outputs.emplace(key, spec.out).first;
              aggs.push_back(std::move(spec));
            }
            SqlExpr column;
            column.kind = SqlExpr::Kind::kColumn;
            column.name = it->second;
            return column;
          }
          SqlExpr out = e;
          if (e.left != nullptr) out.left = std::make_shared<SqlExpr>(Rewrite(*e.left));
          if (e.right != nullptr) out.right = std::make_shared<SqlExpr>(Rewrite(*e.right));
          return out;
        }
      };
      std::function<AggSpec(const SqlExpr&, size_t)> make = make_spec;
      HavingRewriter rewriter{agg_outputs, aggs, make};
      having_rewritten = rewriter.Rewrite(*query.having);
    }

    plan = LogicalOp::GroupBy(plan, group_names, aggs);
    if (query.having != nullptr) {
      plan = LogicalOp::Select(plan, TranslateScalar(having_rewritten, plan->schema()));
    }
    plan = LogicalOp::Project(plan, final_columns);
    plan = LogicalOp::Rename(plan, final_renames);
    return plan;
  }

  // Plain column projection.
  std::vector<std::string> columns;
  std::vector<std::pair<std::string, std::string>> renames;
  for (size_t i = 0; i < query.items.size(); ++i) {
    const SelectItem& item = query.items[i];
    if (item.star) Unsupported("'*' must be the only select item");
    if (item.expr->kind != SqlExpr::Kind::kColumn) {
      Unsupported("computed select items are not compilable");
    }
    std::string qualified = ResolveAgainst(plan->schema(), *item.expr);
    std::string out_name = item.alias.empty() ? "col" + std::to_string(i + 1) : item.alias;
    columns.push_back(qualified);
    renames.emplace_back(qualified, out_name);
  }
  plan = LogicalOp::Project(plan, columns);
  plan = LogicalOp::Rename(plan, renames);
  return plan;
}

}  // namespace

Result<PlanPtr> LowerQuery(const SqlQuery& query, const Catalog& catalog) {
  try {
    return LowerSelect(query, catalog);
  } catch (const SqlError& error) {
    return Result<PlanPtr>::Error(error.what());
  } catch (const SchemaError& error) {
    return Result<PlanPtr>::Error(error.what());
  }
}

Result<PlanPtr> LowerSql(const std::string& text, const Catalog& catalog) {
  Result<std::shared_ptr<SqlQuery>> parsed = ParseQuery(text);
  if (!parsed.ok()) return Result<PlanPtr>::Error(parsed.error());
  return LowerQuery(*parsed.value(), catalog);
}

Result<std::vector<Tuple>> LowerInsert(const SqlInsert& insert, const Catalog& catalog) {
  using R = Result<std::vector<Tuple>>;
  if (!catalog.Has(insert.table)) {
    return R::Error("unknown table '" + insert.table + "' (CreateTable first)");
  }
  const Schema& schema = catalog.Get(insert.table).schema();
  std::vector<Tuple> tuples;
  tuples.reserve(insert.rows.size());
  for (size_t r = 0; r < insert.rows.size(); ++r) {
    const std::vector<Value>& row = insert.rows[r];
    if (row.size() != schema.size()) {
      return R::Error("INSERT row " + std::to_string(r + 1) + " has " +
                      std::to_string(row.size()) + " value(s); table '" + insert.table +
                      "' has " + std::to_string(schema.size()) + " column(s)");
    }
    Tuple tuple;
    tuple.reserve(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      const Attribute& attr = schema.attribute(c);
      Value value = row[c];
      if (attr.type == ValueType::kReal && value.type() == ValueType::kInt) {
        value = Value::Real(static_cast<double>(value.as_int()));
      }
      if (value.type() != attr.type) {
        return R::Error("INSERT row " + std::to_string(r + 1) + ", column '" + attr.name +
                        "': expected " + ValueTypeName(attr.type) + ", got " +
                        ValueTypeName(value.type()));
      }
      tuple.push_back(std::move(value));
    }
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

std::shared_ptr<SqlQuery> DeleteSurvivorQuery(const SqlDelete& del) {
  auto query = std::make_shared<SqlQuery>();
  SelectItem star;
  star.star = true;
  query->items.push_back(std::move(star));
  TableRef ref;
  ref.table = del.table;
  ref.alias = del.table;
  query->from.push_back(std::move(ref));
  if (del.where != nullptr) {
    auto negated = std::make_shared<SqlExpr>();
    negated->kind = SqlExpr::Kind::kNot;
    negated->left = del.where;
    query->where = std::move(negated);
  }
  return query;
}

Result<Relation> ApplyOrderLimit(const SqlQuery& query, Relation rows) {
  if (!HasOrderLimit(query)) return rows;
  // Resolve each ORDER BY key against the result schema (output names:
  // aliases or bare column names).
  std::vector<std::pair<size_t, bool>> keys;  // (column index, descending)
  for (const OrderItem& item : query.order_by) {
    if (item.expr == nullptr || item.expr->kind != SqlExpr::Kind::kColumn) {
      return Result<Relation>::Error("ORDER BY supports result columns only");
    }
    std::optional<size_t> index = rows.schema().IndexOf(item.expr->name);
    if (!index.has_value() && !item.expr->qualifier.empty()) {
      index = rows.schema().IndexOf(item.expr->qualifier + "." + item.expr->name);
    }
    if (!index.has_value()) {
      return Result<Relation>::Error("ORDER BY column '" + item.expr->ToString() +
                                     "' is not in the result");
    }
    keys.emplace_back(*index, item.descending);
  }
  std::vector<Tuple> tuples = rows.tuples();
  if (!keys.empty()) {
    std::stable_sort(tuples.begin(), tuples.end(), [&](const Tuple& a, const Tuple& b) {
      for (const auto& [column, descending] : keys) {
        int cmp = a[column].Compare(b[column]);
        if (cmp != 0) return descending ? cmp > 0 : cmp < 0;
      }
      // Deterministic tie-break: full-tuple canonical order, so LIMIT keeps
      // the same rows at every thread count.
      return CompareTuples(a, b) < 0;
    });
  }
  if (query.limit >= 0 && tuples.size() > static_cast<size_t>(query.limit)) {
    tuples.resize(static_cast<size_t>(query.limit));
  }
  return Relation(rows.schema(), std::move(tuples));
}

}  // namespace sql
}  // namespace quotient
