#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/schema.hpp"
#include "algebra/tuple.hpp"

namespace quotient {

/// Comparison operators for predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);
/// The three-way comparison every predicate comparison applies: numeric
/// values (int or real) compare as doubles, other values only with their
/// own type (Value::Compare); any other pair throws SchemaError.
int ComparePredicateValues(const Value& a, const Value& b);
/// The negated comparison (kLt -> kGe etc.), used to build σ¬p (Example 1).
CmpOp NegateCmp(CmpOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Scalar expression AST used by selections, theta joins, and the SQL front
/// end. Expressions are immutable and shared.
///
/// Boolean results are represented as Int(0)/Int(1). Numeric comparisons
/// across int/real compare numerically; comparing a string to a number
/// throws SchemaError.
///
/// kParam is a prepared-statement placeholder ('?', 0-based ordinal): it
/// lets a parameterized statement lower, rewrite, and cost ONCE, with the
/// values substituted per execution via BindParams. Evaluating an unbound
/// parameter throws.
class Expr {
 public:
  enum class Kind {
    kColumn, kLiteral, kParam, kCompare, kAnd, kOr, kNot, kAdd, kSub, kMul, kDiv
  };

  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Value value);
  static ExprPtr Param(size_t index);
  static ExprPtr Compare(CmpOp op, ExprPtr left, ExprPtr right);
  static ExprPtr And(ExprPtr left, ExprPtr right);
  static ExprPtr Or(ExprPtr left, ExprPtr right);
  static ExprPtr Not(ExprPtr child);
  static ExprPtr Arith(Kind kind, ExprPtr left, ExprPtr right);

  /// Convenience: column `name` <op> literal `value`.
  static ExprPtr ColCmp(std::string name, CmpOp op, Value value);
  /// Convenience: column = column (equi-join conditions).
  static ExprPtr ColEqCol(std::string left, std::string right);
  /// Conjunction of a list (empty list means TRUE, represented as Literal(1)).
  static ExprPtr AndAll(std::vector<ExprPtr> conjuncts);

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return name_; }
  const Value& literal() const { return value_; }
  size_t param_index() const { return param_index_; }
  CmpOp cmp_op() const { return cmp_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  /// Substitutes every kParam by the matching literal from `params`,
  /// sharing unchanged subtrees. Throws SchemaError when a placeholder's
  /// ordinal is out of range.
  static ExprPtr BindParams(const ExprPtr& expr, const std::vector<Value>& params);

  /// Evaluates against a tuple; column names are resolved via `schema`.
  Value Eval(const Schema& schema, const Tuple& tuple) const;
  bool EvalBool(const Schema& schema, const Tuple& tuple) const;

  /// The set of column names referenced by this expression.
  std::set<std::string> Columns() const;
  /// True iff every referenced column is one of `names`. This is the
  /// "predicate p(X) involves only attributes in X" side condition used by
  /// Laws 3, 4, 14, 15, 16.
  bool RefersOnlyTo(const std::vector<std::string>& names) const;

  /// Structural equality.
  bool Equals(const Expr& other) const;

  /// Splits a conjunction tree into its conjuncts ("a AND b AND c" -> 3).
  static void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

  std::string ToString() const;

 private:
  Expr() = default;
  void CollectColumns(std::set<std::string>* out) const;

  Kind kind_ = Kind::kLiteral;
  std::string name_;        // kColumn
  Value value_;             // kLiteral
  size_t param_index_ = 0;  // kParam
  CmpOp cmp_ = CmpOp::kEq;  // kCompare
  ExprPtr left_;
  ExprPtr right_;
};

/// An expression with column references resolved to tuple positions against
/// a fixed schema: the fast path used inside physical operators.
class BoundExpr {
 public:
  BoundExpr(const ExprPtr& expr, const Schema& schema);

  Value Eval(const Tuple& tuple) const { return EvalNode(0, tuple); }
  bool EvalBool(const Tuple& tuple) const;

 private:
  struct Node {
    Expr::Kind kind;
    size_t column = 0;
    Value value;
    CmpOp cmp = CmpOp::kEq;
    int left = -1;
    int right = -1;
  };
  int Build(const Expr& expr, const Schema& schema);
  Value EvalNode(int index, const Tuple& tuple) const;

  std::vector<Node> nodes_;
};

}  // namespace quotient
