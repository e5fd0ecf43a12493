#pragma once

#include <string>
#include <utility>
#include <vector>

#include "algebra/predicate.hpp"
#include "algebra/relation.hpp"

namespace quotient {

/// The basic and derived operators of Appendix A, with set semantics, used
/// as the reference ("ground truth") evaluator. These are deliberately
/// simple and obviously correct; the fast implementations live in src/exec.

/// r1 ∪ r2. Requires the same attribute set; reorders r2 if needed.
Relation Union(const Relation& r1, const Relation& r2);
/// r1 ∩ r2. Requires the same attribute set.
Relation Intersect(const Relation& r1, const Relation& r2);
/// r1 − r2. Requires the same attribute set.
Relation Difference(const Relation& r1, const Relation& r2);

/// r1 × r2. Requires disjoint attribute names (use Rename otherwise).
Relation Product(const Relation& r1, const Relation& r2);

/// π_names(r); duplicates are removed (set semantics).
Relation Project(const Relation& r, const std::vector<std::string>& names);

/// σ_pred(r).
Relation Select(const Relation& r, const ExprPtr& predicate);

/// r1 ⋈θ r2 = σθ(r1 × r2). Attribute names must be disjoint.
Relation ThetaJoin(const Relation& r1, const Relation& r2, const ExprPtr& condition);

/// Natural join on the common attribute names; degenerates to × when no
/// names are shared. Output schema: attrs(r1) then attrs(r2) − common.
Relation NaturalJoin(const Relation& r1, const Relation& r2);

/// Left semi-join r1 ⋉ r2 = π[r1](r1 ⋈ r2).
Relation SemiJoin(const Relation& r1, const Relation& r2);

/// Left anti-semi-join: r1 minus the tuples that join with r2.
Relation AntiSemiJoin(const Relation& r1, const Relation& r2);

/// Left outer join: natural join plus unmatched r1 tuples padded with NULLs
/// on r2's non-common attributes.
Relation LeftOuterJoin(const Relation& r1, const Relation& r2);

/// Renames attributes; `renames` maps old name -> new name.
Relation Rename(const Relation& r,
                const std::vector<std::pair<std::string, std::string>>& renames);

/// Aggregation functions supported by the grouping operator GγF.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

/// One aggregation: `fn` applied to attribute `arg` (ignored for kCount),
/// producing output attribute `out`.
struct AggSpec {
  AggFunc fn;
  std::string arg;
  std::string out;

  bool operator==(const AggSpec& other) const = default;
};

/// The output schema of GroupBy(r, group_names, aggs) without evaluating it;
/// shared by the logical plan layer for schema inference.
Schema GroupByOutputSchema(const Schema& input, const std::vector<std::string>& group_names,
                           const std::vector<AggSpec>& aggs);

/// Incremental aggregation state for one (group, AggSpec) pair; shared by
/// the reference GroupBy and the key-encoded HashAggregateIterator so both
/// compute identical results.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  /// Wide enough that no realistic number of int64 adds can wrap it; the
  /// int64 range is checked once, in AggFinish, so a sum whose running
  /// prefix leaves the range but whose total fits returns the total.
  __int128 sum_int = 0;
  bool has_minmax = false;
  Value min;
  Value max;
};

/// Per-spec argument column positions (position 0 for a bare COUNT with no
/// argument); shared by GroupBy and HashAggregateIterator so both resolve
/// aggregate arguments identically.
std::vector<size_t> AggArgIndices(const Schema& input, const std::vector<AggSpec>& aggs);

/// Folds one input value into `state` (`v` is ignored for kCount).
void AggAccumulate(const AggSpec& spec, const Value& v, AggState* state);

/// The final output value for `spec` over `state`. An integer SUM outside
/// the int64 range throws SchemaError ("integer overflow in SUM").
Value AggFinish(const AggSpec& spec, const AggState& state);

/// GγF(r) (Appendix A): groups `r` by `group_names` and computes the
/// aggregates. Output schema: group attributes (in the given order) followed
/// by aggregate outputs. With empty `group_names`, produces one global row
/// (even for empty input, where count = 0 and sum/min/max/avg are NULL).
Relation GroupBy(const Relation& r, const std::vector<std::string>& group_names,
                 const std::vector<AggSpec>& aggs);

}  // namespace quotient
