#include "plan/logical.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/status.hpp"

namespace quotient {

namespace {


void RequirePredicateColumns(const ExprPtr& predicate, const Schema& schema,
                             const char* where) {
  for (const std::string& column : predicate->Columns()) {
    if (!schema.Contains(column)) {
      throw SchemaError(std::string(where) + ": predicate references unknown attribute '" +
                        column + "' (schema " + schema.ToString() + ")");
    }
  }
}

void RequireSameAttributeSet(const Schema& a, const Schema& b, const char* op) {
  if (!a.SameAttributeSet(b)) {
    throw SchemaError(std::string(op) + " requires union-compatible inputs, got " +
                      a.ToString() + " and " + b.ToString());
  }
}

}  // namespace

const char* LogicalOp::KindName(Kind kind) {
  switch (kind) {
    case Kind::kScan: return "Scan";
    case Kind::kValues: return "Values";
    case Kind::kSelect: return "Select";
    case Kind::kProject: return "Project";
    case Kind::kUnion: return "Union";
    case Kind::kIntersect: return "Intersect";
    case Kind::kDifference: return "Difference";
    case Kind::kProduct: return "Product";
    case Kind::kThetaJoin: return "ThetaJoin";
    case Kind::kNaturalJoin: return "NaturalJoin";
    case Kind::kSemiJoin: return "SemiJoin";
    case Kind::kAntiJoin: return "AntiJoin";
    case Kind::kDivide: return "Divide";
    case Kind::kGreatDivide: return "GreatDivide";
    case Kind::kGroupBy: return "GroupBy";
    case Kind::kRename: return "Rename";
  }
  return "?";
}

PlanPtr LogicalOp::Scan(const Catalog& catalog, std::string table) {
  auto op = New();
  op->kind_ = Kind::kScan;
  op->schema_ = catalog.Get(table).schema();
  op->table_ = std::move(table);
  return op;
}

PlanPtr LogicalOp::Values(Relation relation, std::string label) {
  auto op = New();
  op->kind_ = Kind::kValues;
  op->schema_ = relation.schema();
  op->table_ = std::move(label);
  op->values_ = std::make_shared<const Relation>(std::move(relation));
  return op;
}

PlanPtr LogicalOp::Select(PlanPtr child, ExprPtr predicate) {
  RequirePredicateColumns(predicate, child->schema(), "Select");
  auto op = New();
  op->kind_ = Kind::kSelect;
  op->schema_ = child->schema();
  op->children_ = {std::move(child)};
  op->predicate_ = std::move(predicate);
  return op;
}

PlanPtr LogicalOp::Project(PlanPtr child, std::vector<std::string> columns) {
  auto op = New();
  op->kind_ = Kind::kProject;
  op->schema_ = child->schema().Project(columns);
  op->children_ = {std::move(child)};
  op->columns_ = std::move(columns);
  return op;
}

PlanPtr LogicalOp::Union(PlanPtr left, PlanPtr right) {
  RequireSameAttributeSet(left->schema(), right->schema(), "Union");
  auto op = New();
  op->kind_ = Kind::kUnion;
  op->schema_ = left->schema();
  op->children_ = {std::move(left), std::move(right)};
  return op;
}

PlanPtr LogicalOp::Intersect(PlanPtr left, PlanPtr right) {
  RequireSameAttributeSet(left->schema(), right->schema(), "Intersect");
  auto op = New();
  op->kind_ = Kind::kIntersect;
  op->schema_ = left->schema();
  op->children_ = {std::move(left), std::move(right)};
  return op;
}

PlanPtr LogicalOp::Difference(PlanPtr left, PlanPtr right) {
  RequireSameAttributeSet(left->schema(), right->schema(), "Difference");
  auto op = New();
  op->kind_ = Kind::kDifference;
  op->schema_ = left->schema();
  op->children_ = {std::move(left), std::move(right)};
  return op;
}

PlanPtr LogicalOp::Product(PlanPtr left, PlanPtr right) {
  auto op = New();
  op->kind_ = Kind::kProduct;
  op->schema_ = left->schema().Concat(right->schema());
  op->children_ = {std::move(left), std::move(right)};
  return op;
}

PlanPtr LogicalOp::ThetaJoin(PlanPtr left, PlanPtr right, ExprPtr condition) {
  Schema combined = left->schema().Concat(right->schema());
  RequirePredicateColumns(condition, combined, "ThetaJoin");
  auto op = New();
  op->kind_ = Kind::kThetaJoin;
  op->schema_ = std::move(combined);
  op->children_ = {std::move(left), std::move(right)};
  op->predicate_ = std::move(condition);
  return op;
}

PlanPtr LogicalOp::NaturalJoin(PlanPtr left, PlanPtr right) {
  std::vector<std::string> right_only = right->schema().NamesMinus(left->schema());
  auto op = New();
  op->kind_ = Kind::kNaturalJoin;
  op->schema_ = left->schema().Concat(right->schema().Project(right_only));
  op->children_ = {std::move(left), std::move(right)};
  return op;
}

PlanPtr LogicalOp::SemiJoin(PlanPtr left, PlanPtr right) {
  auto op = New();
  op->kind_ = Kind::kSemiJoin;
  op->schema_ = left->schema();
  op->children_ = {std::move(left), std::move(right)};
  return op;
}

PlanPtr LogicalOp::AntiJoin(PlanPtr left, PlanPtr right) {
  auto op = New();
  op->kind_ = Kind::kAntiJoin;
  op->schema_ = left->schema();
  op->children_ = {std::move(left), std::move(right)};
  return op;
}

PlanPtr LogicalOp::Divide(PlanPtr dividend, PlanPtr divisor) {
  DivisionAttributes attrs =
      DivisionAttributeSets(dividend->schema(), divisor->schema(), /*allow_c=*/false);
  auto op = New();
  op->kind_ = Kind::kDivide;
  op->schema_ = dividend->schema().Project(attrs.a);
  op->children_ = {std::move(dividend), std::move(divisor)};
  return op;
}

PlanPtr LogicalOp::GreatDivide(PlanPtr dividend, PlanPtr divisor) {
  DivisionAttributes attrs =
      DivisionAttributeSets(dividend->schema(), divisor->schema(), /*allow_c=*/true);
  auto op = New();
  op->kind_ = Kind::kGreatDivide;
  op->schema_ =
      dividend->schema().Project(attrs.a).Concat(divisor->schema().Project(attrs.c));
  op->children_ = {std::move(dividend), std::move(divisor)};
  return op;
}

PlanPtr LogicalOp::GroupBy(PlanPtr child, std::vector<std::string> group_names,
                           std::vector<AggSpec> aggs) {
  auto op = New();
  op->kind_ = Kind::kGroupBy;
  op->schema_ = GroupByOutputSchema(child->schema(), group_names, aggs);
  op->children_ = {std::move(child)};
  op->group_names_ = std::move(group_names);
  op->aggs_ = std::move(aggs);
  return op;
}

PlanPtr LogicalOp::Rename(PlanPtr child,
                          std::vector<std::pair<std::string, std::string>> renames) {
  std::vector<Attribute> attributes = child->schema().attributes();
  for (const auto& [from, to] : renames) {
    attributes[child->schema().IndexOfOrThrow(from)].name = to;
  }
  auto op = New();
  op->kind_ = Kind::kRename;
  op->schema_ = Schema(std::move(attributes));
  op->children_ = {std::move(child)};
  op->renames_ = std::move(renames);
  return op;
}

DivisionAttributes LogicalOp::division_attributes() const {
  if (kind_ != Kind::kDivide && kind_ != Kind::kGreatDivide) {
    throw SchemaError("division_attributes() on a non-division node");
  }
  return DivisionAttributeSets(left()->schema(), right()->schema(),
                               /*allow_c=*/kind_ == Kind::kGreatDivide);
}

bool LogicalOp::Equals(const LogicalOp& other) const {
  if (kind_ != other.kind_) return false;
  if (children_.size() != other.children_.size()) return false;
  switch (kind_) {
    case Kind::kScan:
      if (table_ != other.table_) return false;
      break;
    case Kind::kValues:
      if (!(*values_ == *other.values_)) return false;
      break;
    case Kind::kSelect:
    case Kind::kThetaJoin:
      if (!predicate_->Equals(*other.predicate_)) return false;
      break;
    case Kind::kProject:
      if (columns_ != other.columns_) return false;
      break;
    case Kind::kRename:
      if (renames_ != other.renames_) return false;
      break;
    case Kind::kGroupBy:
      if (group_names_ != other.group_names_ || aggs_ != other.aggs_) return false;
      break;
    default: break;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

size_t LogicalOp::TreeSize() const {
  size_t n = 1;
  for (const PlanPtr& child : children_) n += child->TreeSize();
  return n;
}

PlanPtr LogicalOp::WithChildren(std::vector<PlanPtr> children) const {
  if (children.size() != children_.size()) {
    throw SchemaError("WithChildren: arity mismatch");
  }
  switch (kind_) {
    case Kind::kScan:
    case Kind::kValues: {
      // Leaves: nothing to rebuild.
      auto op = New();
      *op = *this;
      return op;
    }
    case Kind::kSelect: return Select(children[0], predicate_);
    case Kind::kProject: return Project(children[0], columns_);
    case Kind::kUnion: return Union(children[0], children[1]);
    case Kind::kIntersect: return Intersect(children[0], children[1]);
    case Kind::kDifference: return Difference(children[0], children[1]);
    case Kind::kProduct: return Product(children[0], children[1]);
    case Kind::kThetaJoin: return ThetaJoin(children[0], children[1], predicate_);
    case Kind::kNaturalJoin: return NaturalJoin(children[0], children[1]);
    case Kind::kSemiJoin: return SemiJoin(children[0], children[1]);
    case Kind::kAntiJoin: return AntiJoin(children[0], children[1]);
    case Kind::kDivide: return Divide(children[0], children[1]);
    case Kind::kGreatDivide: return GreatDivide(children[0], children[1]);
    case Kind::kGroupBy: return GroupBy(children[0], group_names_, aggs_);
    case Kind::kRename: return Rename(children[0], renames_);
  }
  throw SchemaError("WithChildren: bad kind");
}

void LogicalOp::Render(std::string* out, int indent) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(KindName(kind_));
  switch (kind_) {
    case Kind::kScan: *out += " " + table_; break;
    case Kind::kValues:
      *out += " " + table_ + " [" + std::to_string(values_->size()) + " tuples]";
      break;
    case Kind::kSelect:
    case Kind::kThetaJoin: *out += " " + predicate_->ToString(); break;
    case Kind::kProject: {
      *out += " [";
      for (size_t i = 0; i < columns_.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += columns_[i];
      }
      *out += "]";
      break;
    }
    case Kind::kRename: {
      *out += " [";
      for (size_t i = 0; i < renames_.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += renames_[i].first + "->" + renames_[i].second;
      }
      *out += "]";
      break;
    }
    case Kind::kGroupBy: {
      *out += " by [";
      for (size_t i = 0; i < group_names_.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += group_names_[i];
      }
      *out += "]";
      break;
    }
    default: break;
  }
  *out += "  -> " + schema_.ToString() + "\n";
  for (const PlanPtr& child : children_) child->Render(out, indent + 1);
}

std::string LogicalOp::ToString() const {
  std::string out;
  Render(&out, 0);
  return out;
}

namespace {

void CountExprParams(const Expr& expr, size_t* count) {
  if (expr.kind() == Expr::Kind::kParam) ++*count;
  if (expr.left() != nullptr) CountExprParams(*expr.left(), count);
  if (expr.right() != nullptr) CountExprParams(*expr.right(), count);
}

}  // namespace

size_t CountPlanParameters(const PlanPtr& plan) {
  size_t count = 0;
  if (plan->predicate() != nullptr) CountExprParams(*plan->predicate(), &count);
  for (const PlanPtr& child : plan->children()) count += CountPlanParameters(child);
  return count;
}

PlanPtr BindPlanParameters(const PlanPtr& plan, const std::vector<Value>& params) {
  std::vector<PlanPtr> children;
  children.reserve(plan->children().size());
  bool changed = false;
  for (const PlanPtr& child : plan->children()) {
    children.push_back(BindPlanParameters(child, params));
    changed = changed || children.back() != child;
  }
  ExprPtr predicate = plan->predicate();
  if (predicate != nullptr) {
    ExprPtr bound = Expr::BindParams(predicate, params);
    changed = changed || bound != predicate;
    predicate = std::move(bound);
  }
  if (!changed) return plan;
  switch (plan->kind()) {
    case LogicalOp::Kind::kSelect: return LogicalOp::Select(children[0], predicate);
    case LogicalOp::Kind::kThetaJoin:
      return LogicalOp::ThetaJoin(children[0], children[1], predicate);
    default: return plan->WithChildren(std::move(children));
  }
}

void CollectScanTables(const PlanPtr& plan, std::set<std::string>* out) {
  if (plan->kind() == LogicalOp::Kind::kScan) out->insert(plan->table());
  for (const PlanPtr& child : plan->children()) CollectScanTables(child, out);
}

EquiJoinSplit SplitEquiJoin(const std::vector<ExprPtr>& conjuncts, const Schema& left,
                            const Schema& right) {
  EquiJoinSplit split;
  for (const ExprPtr& conjunct : conjuncts) {
    if (conjunct->kind() == Expr::Kind::kCompare && conjunct->cmp_op() == CmpOp::kEq &&
        conjunct->left()->kind() == Expr::Kind::kColumn &&
        conjunct->right()->kind() == Expr::Kind::kColumn) {
      std::string lc = conjunct->left()->column_name();
      std::string rc = conjunct->right()->column_name();
      if (!left.Contains(lc)) std::swap(lc, rc);
      std::optional<size_t> li = left.IndexOf(lc);
      std::optional<size_t> ri = right.IndexOf(rc);
      if (li && ri) {
        ValueType type = left.attribute(*li).type;
        if (type == right.attribute(*ri).type &&
            (type == ValueType::kInt || type == ValueType::kString)) {
          split.left_keys.push_back(std::move(lc));
          split.right_keys.push_back(std::move(rc));
          continue;
        }
      }
    }
    split.residual.push_back(conjunct);
  }
  return split;
}

}  // namespace quotient
