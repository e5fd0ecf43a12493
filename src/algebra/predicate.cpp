#include "algebra/predicate.hpp"

#include "util/status.hpp"

namespace quotient {

namespace {

bool IsNumeric(const Value& v) {
  return v.type() == ValueType::kInt || v.type() == ValueType::kReal;
}

bool ApplyCmp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

Value ApplyArith(Expr::Kind kind, const Value& a, const Value& b) {
  if (!IsNumeric(a) || !IsNumeric(b)) {
    throw SchemaError("arithmetic on non-numeric values");
  }
  bool both_int = a.type() == ValueType::kInt && b.type() == ValueType::kInt;
  if (both_int && kind != Expr::Kind::kDiv) {
    int64_t x = a.as_int(), y = b.as_int(), z = 0;
    bool overflow = kind == Expr::Kind::kAdd   ? __builtin_add_overflow(x, y, &z)
                    : kind == Expr::Kind::kSub ? __builtin_sub_overflow(x, y, &z)
                                               : __builtin_mul_overflow(x, y, &z);
    if (overflow) throw SchemaError("integer overflow in arithmetic");
    return Value::Int(z);
  }
  double x = a.Numeric(), y = b.Numeric();
  switch (kind) {
    case Expr::Kind::kAdd: return Value::Real(x + y);
    case Expr::Kind::kSub: return Value::Real(x - y);
    case Expr::Kind::kMul: return Value::Real(x * y);
    case Expr::Kind::kDiv:
      if (y == 0) throw SchemaError("division by zero in predicate");
      return Value::Real(x / y);
    default: break;
  }
  throw SchemaError("bad arithmetic kind");
}

bool ToBool(const Value& v) {
  if (v.type() == ValueType::kInt) return v.as_int() != 0;
  throw SchemaError("expression used as boolean does not evaluate to int 0/1");
}

}  // namespace

int ComparePredicateValues(const Value& a, const Value& b) {
  if (IsNumeric(a) && IsNumeric(b)) {
    double x = a.Numeric();
    double y = b.Numeric();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.type() != b.type()) {
    throw SchemaError("cannot compare " + a.ToString() + " (" + ValueTypeName(a.type()) +
                      ") with " + b.ToString() + " (" + ValueTypeName(b.type()) + ")");
  }
  return a.Compare(b);
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

CmpOp NegateCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLe;
    case CmpOp::kGe: return CmpOp::kLt;
  }
  return CmpOp::kEq;
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumn;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Value value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteral;
  e->value_ = std::move(value);
  return e;
}

ExprPtr Expr::Param(size_t index) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kParam;
  e->param_index_ = index;
  return e;
}

ExprPtr Expr::Compare(CmpOp op, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kCompare;
  e->cmp_ = op;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::And(ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kAnd;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::Or(ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kOr;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kNot;
  e->left_ = std::move(child);
  return e;
}

ExprPtr Expr::Arith(Kind kind, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = kind;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::ColCmp(std::string name, CmpOp op, Value value) {
  return Compare(op, Column(std::move(name)), Literal(std::move(value)));
}

ExprPtr Expr::ColEqCol(std::string left, std::string right) {
  return Compare(CmpOp::kEq, Column(std::move(left)), Column(std::move(right)));
}

ExprPtr Expr::AndAll(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return Literal(Value::Int(1));
  ExprPtr out = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) out = And(out, conjuncts[i]);
  return out;
}

Value Expr::Eval(const Schema& schema, const Tuple& tuple) const {
  switch (kind_) {
    case Kind::kColumn: return tuple[schema.IndexOfOrThrow(name_)];
    case Kind::kLiteral: return value_;
    case Kind::kParam:
      throw SchemaError("unbound query parameter ?" + std::to_string(param_index_ + 1) +
                        " (bind values before evaluating)");
    case Kind::kCompare: {
      int c = ComparePredicateValues(left_->Eval(schema, tuple), right_->Eval(schema, tuple));
      return Value::Int(ApplyCmp(cmp_, c) ? 1 : 0);
    }
    case Kind::kAnd:
      return Value::Int(ToBool(left_->Eval(schema, tuple)) && ToBool(right_->Eval(schema, tuple))
                            ? 1
                            : 0);
    case Kind::kOr:
      return Value::Int(ToBool(left_->Eval(schema, tuple)) || ToBool(right_->Eval(schema, tuple))
                            ? 1
                            : 0);
    case Kind::kNot: return Value::Int(ToBool(left_->Eval(schema, tuple)) ? 0 : 1);
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
    case Kind::kDiv:
      return ApplyArith(kind_, left_->Eval(schema, tuple), right_->Eval(schema, tuple));
  }
  throw SchemaError("bad expression kind");
}

bool Expr::EvalBool(const Schema& schema, const Tuple& tuple) const {
  return ToBool(Eval(schema, tuple));
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  if (kind_ == Kind::kColumn) {
    out->insert(name_);
    return;
  }
  if (left_) left_->CollectColumns(out);
  if (right_) right_->CollectColumns(out);
}

std::set<std::string> Expr::Columns() const {
  std::set<std::string> out;
  CollectColumns(&out);
  return out;
}

bool Expr::RefersOnlyTo(const std::vector<std::string>& names) const {
  for (const std::string& column : Columns()) {
    bool found = false;
    for (const std::string& name : names) {
      if (name == column) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kColumn: return name_ == other.name_;
    case Kind::kLiteral: return value_ == other.value_;
    case Kind::kParam: return param_index_ == other.param_index_;
    case Kind::kCompare:
      if (cmp_ != other.cmp_) return false;
      break;
    default: break;
  }
  if ((left_ == nullptr) != (other.left_ == nullptr)) return false;
  if ((right_ == nullptr) != (other.right_ == nullptr)) return false;
  if (left_ && !left_->Equals(*other.left_)) return false;
  if (right_ && !right_->Equals(*other.right_)) return false;
  return true;
}

ExprPtr Expr::BindParams(const ExprPtr& expr, const std::vector<Value>& params) {
  if (expr->kind_ == Kind::kParam) {
    if (expr->param_index_ >= params.size()) {
      throw SchemaError("parameter ?" + std::to_string(expr->param_index_ + 1) +
                        " has no bound value");
    }
    return Literal(params[expr->param_index_]);
  }
  ExprPtr left = expr->left_ ? BindParams(expr->left_, params) : nullptr;
  ExprPtr right = expr->right_ ? BindParams(expr->right_, params) : nullptr;
  if (left == expr->left_ && right == expr->right_) return expr;  // unchanged subtree
  auto e = std::shared_ptr<Expr>(new Expr(*expr));
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

void Expr::SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == Kind::kAnd) {
    SplitConjuncts(expr->left(), out);
    SplitConjuncts(expr->right(), out);
  } else {
    out->push_back(expr);
  }
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn: return name_;
    case Kind::kLiteral: return value_.ToString();
    case Kind::kParam: return "?" + std::to_string(param_index_ + 1);
    case Kind::kCompare:
      return "(" + left_->ToString() + " " + CmpOpName(cmp_) + " " + right_->ToString() + ")";
    case Kind::kAnd: return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case Kind::kOr: return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
    case Kind::kNot: return "(NOT " + left_->ToString() + ")";
    case Kind::kAdd: return "(" + left_->ToString() + " + " + right_->ToString() + ")";
    case Kind::kSub: return "(" + left_->ToString() + " - " + right_->ToString() + ")";
    case Kind::kMul: return "(" + left_->ToString() + " * " + right_->ToString() + ")";
    case Kind::kDiv: return "(" + left_->ToString() + " / " + right_->ToString() + ")";
  }
  return "?";
}

BoundExpr::BoundExpr(const ExprPtr& expr, const Schema& schema) { Build(*expr, schema); }

int BoundExpr::Build(const Expr& expr, const Schema& schema) {
  int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[index].kind = expr.kind();
  switch (expr.kind()) {
    case Expr::Kind::kColumn:
      nodes_[index].column = schema.IndexOfOrThrow(expr.column_name());
      break;
    case Expr::Kind::kLiteral: nodes_[index].value = expr.literal(); break;
    case Expr::Kind::kParam:
      // A plan carrying parameter slots must be bound (Expr::BindParams)
      // before physical compilation; fail at bind time, not per tuple.
      throw SchemaError("cannot execute a plan with unbound '?' parameters");
    case Expr::Kind::kCompare: nodes_[index].cmp = expr.cmp_op(); break;
    default: break;
  }
  if (expr.left()) {
    int left = Build(*expr.left(), schema);
    nodes_[index].left = left;
  }
  if (expr.right()) {
    int right = Build(*expr.right(), schema);
    nodes_[index].right = right;
  }
  return index;
}

Value BoundExpr::EvalNode(int index, const Tuple& tuple) const {
  const Node& node = nodes_[index];
  switch (node.kind) {
    case Expr::Kind::kColumn: return tuple[node.column];
    case Expr::Kind::kLiteral: return node.value;
    case Expr::Kind::kParam: break;  // unreachable: Build rejects params
    case Expr::Kind::kCompare: {
      int c = ComparePredicateValues(EvalNode(node.left, tuple), EvalNode(node.right, tuple));
      return Value::Int(ApplyCmp(node.cmp, c) ? 1 : 0);
    }
    case Expr::Kind::kAnd:
      return Value::Int(
          ToBool(EvalNode(node.left, tuple)) && ToBool(EvalNode(node.right, tuple)) ? 1 : 0);
    case Expr::Kind::kOr:
      return Value::Int(
          ToBool(EvalNode(node.left, tuple)) || ToBool(EvalNode(node.right, tuple)) ? 1 : 0);
    case Expr::Kind::kNot: return Value::Int(ToBool(EvalNode(node.left, tuple)) ? 0 : 1);
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul:
    case Expr::Kind::kDiv:
      return ApplyArith(node.kind, EvalNode(node.left, tuple), EvalNode(node.right, tuple));
  }
  throw SchemaError("bad bound expression node");
}

bool BoundExpr::EvalBool(const Tuple& tuple) const { return ToBool(Eval(tuple)); }

}  // namespace quotient
