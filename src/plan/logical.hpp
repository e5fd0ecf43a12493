#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/divide.hpp"
#include "algebra/ops.hpp"
#include "algebra/predicate.hpp"
#include "plan/catalog.hpp"

namespace quotient {

class LogicalOp;
using PlanPtr = std::shared_ptr<const LogicalOp>;

/// An immutable logical query plan node. Output schemas are inferred (and
/// validated) eagerly at construction, so a PlanPtr is always well-typed.
///
/// Divide and GreatDivide are first-class operators here — the paper's
/// point is that the optimizer must treat them as such rather than expanding
/// them into basic algebra (Section 1.1, [25]).
class LogicalOp {
 public:
  enum class Kind {
    kScan,         // base relation by name
    kValues,       // inline relation
    kSelect,       // σ
    kProject,      // π (duplicate-removing)
    kUnion,        // ∪
    kIntersect,    // ∩
    kDifference,   // −
    kProduct,      // ×
    kThetaJoin,    // ⋈θ
    kNaturalJoin,  // ⋈
    kSemiJoin,     // ⋉
    kAntiJoin,     // anti ⋉
    kDivide,       // ÷ (small divide)
    kGreatDivide,  // ÷* (generalized division)
    kGroupBy,      // GγF
    kRename        // ρ
  };

  static const char* KindName(Kind kind);

  // ---- Factories (each validates inputs and infers the output schema) ----
  static PlanPtr Scan(const Catalog& catalog, std::string table);
  static PlanPtr Values(Relation relation, std::string label = "values");
  static PlanPtr Select(PlanPtr child, ExprPtr predicate);
  static PlanPtr Project(PlanPtr child, std::vector<std::string> columns);
  static PlanPtr Union(PlanPtr left, PlanPtr right);
  static PlanPtr Intersect(PlanPtr left, PlanPtr right);
  static PlanPtr Difference(PlanPtr left, PlanPtr right);
  static PlanPtr Product(PlanPtr left, PlanPtr right);
  static PlanPtr ThetaJoin(PlanPtr left, PlanPtr right, ExprPtr condition);
  static PlanPtr NaturalJoin(PlanPtr left, PlanPtr right);
  static PlanPtr SemiJoin(PlanPtr left, PlanPtr right);
  static PlanPtr AntiJoin(PlanPtr left, PlanPtr right);
  static PlanPtr Divide(PlanPtr dividend, PlanPtr divisor);
  static PlanPtr GreatDivide(PlanPtr dividend, PlanPtr divisor);
  static PlanPtr GroupBy(PlanPtr child, std::vector<std::string> group_names,
                         std::vector<AggSpec> aggs);
  static PlanPtr Rename(PlanPtr child,
                        std::vector<std::pair<std::string, std::string>> renames);

  // ---- Accessors ----
  Kind kind() const { return kind_; }
  const Schema& schema() const { return schema_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  const PlanPtr& child(size_t i) const { return children_[i]; }
  const PlanPtr& left() const { return children_[0]; }
  const PlanPtr& right() const { return children_[1]; }

  const std::string& table() const { return table_; }
  const Relation& values() const { return *values_; }
  const ExprPtr& predicate() const { return predicate_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::pair<std::string, std::string>>& renames() const { return renames_; }
  const std::vector<std::string>& group_names() const { return group_names_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }

  /// For kDivide / kGreatDivide: the (A, B, C) attribute partition.
  DivisionAttributes division_attributes() const;

  /// Structural equality (same tree, same payloads).
  bool Equals(const LogicalOp& other) const;

  /// Multi-line indented rendering with per-node output schemas.
  std::string ToString() const;

  /// Number of nodes in this subtree.
  size_t TreeSize() const;

  /// Rebuilds this node on top of new children (payload preserved). Used by
  /// the rewrite engine. `children` must match the node's arity.
  PlanPtr WithChildren(std::vector<PlanPtr> children) const;

 private:
  LogicalOp() = default;
  static std::shared_ptr<LogicalOp> New() { return std::shared_ptr<LogicalOp>(new LogicalOp()); }
  void Render(std::string* out, int indent) const;

  Kind kind_ = Kind::kValues;
  Schema schema_;
  std::vector<PlanPtr> children_;

  std::string table_;                          // kScan (and label for kValues)
  std::shared_ptr<const Relation> values_;     // kValues
  ExprPtr predicate_;                          // kSelect, kThetaJoin
  std::vector<std::string> columns_;           // kProject
  std::vector<std::pair<std::string, std::string>> renames_;  // kRename
  std::vector<std::string> group_names_;       // kGroupBy
  std::vector<AggSpec> aggs_;                  // kGroupBy
};

/// A join condition split for hash execution. Every conjunct equating a
/// left column with a right column of the same int or string type becomes
/// one key pair; every other conjunct is residual, in condition order. The
/// type restriction keeps hashing exact: predicate comparison coerces int
/// against real and throws on mismatched types, and reals hash by bit
/// pattern (-0.0 and 0.0 compare equal but hash apart).
struct EquiJoinSplit {
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  std::vector<ExprPtr> residual;
};
EquiJoinSplit SplitEquiJoin(const std::vector<ExprPtr>& conjuncts, const Schema& left,
                            const Schema& right);

// ---- prepared-statement parameter slots --------------------------------
// A parameterized statement lowers once into a plan whose predicates carry
// Expr::Kind::kParam placeholders; each execution substitutes the bound
// values into a path-copied plan (shared, already-validated subtrees are
// reused). This is what lets the plan cache hold ONE entry per prepared
// statement instead of one per distinct binding.

/// Number of '?' placeholder occurrences in the plan's predicates.
size_t CountPlanParameters(const PlanPtr& plan);

/// Substitutes every kParam placeholder by the matching value from
/// `params` (0-based ordinals). Returns `plan` itself when it carries no
/// parameters. Throws SchemaError on an out-of-range ordinal.
PlanPtr BindPlanParameters(const PlanPtr& plan, const std::vector<Value>& params);

/// Inserts the name of every base table the plan scans into `out` — the
/// invalidation domain of a cached plan (api/database.hpp).
void CollectScanTables(const PlanPtr& plan, std::set<std::string>* out);

}  // namespace quotient
