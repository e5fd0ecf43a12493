#include "algebra/ops.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

#include "util/status.hpp"

namespace quotient {

namespace {

void RequireSameAttributeSet(const Relation& r1, const Relation& r2, const char* op) {
  if (!r1.schema().SameAttributeSet(r2.schema())) {
    throw SchemaError(std::string(op) + " requires union-compatible schemas, got " +
                      r1.schema().ToString() + " and " + r2.schema().ToString());
  }
}

}  // namespace

Relation Union(const Relation& r1, const Relation& r2) {
  RequireSameAttributeSet(r1, r2, "Union");
  Relation aligned = r2.schema() == r1.schema() ? r2 : r2.Reorder(r1.schema().Names());
  std::vector<Tuple> tuples = r1.tuples();
  tuples.insert(tuples.end(), aligned.tuples().begin(), aligned.tuples().end());
  return Relation(r1.schema(), std::move(tuples));
}

Relation Intersect(const Relation& r1, const Relation& r2) {
  RequireSameAttributeSet(r1, r2, "Intersect");
  Relation aligned = r2.schema() == r1.schema() ? r2 : r2.Reorder(r1.schema().Names());
  std::vector<Tuple> tuples;
  for (const Tuple& t : r1.tuples()) {
    if (aligned.Contains(t)) tuples.push_back(t);
  }
  return Relation(r1.schema(), std::move(tuples));
}

Relation Difference(const Relation& r1, const Relation& r2) {
  RequireSameAttributeSet(r1, r2, "Difference");
  Relation aligned = r2.schema() == r1.schema() ? r2 : r2.Reorder(r1.schema().Names());
  std::vector<Tuple> tuples;
  for (const Tuple& t : r1.tuples()) {
    if (!aligned.Contains(t)) tuples.push_back(t);
  }
  return Relation(r1.schema(), std::move(tuples));
}

Relation Product(const Relation& r1, const Relation& r2) {
  Schema schema = r1.schema().Concat(r2.schema());  // throws on duplicate names
  std::vector<Tuple> tuples;
  tuples.reserve(r1.size() * r2.size());
  for (const Tuple& a : r1.tuples()) {
    for (const Tuple& b : r2.tuples()) {
      tuples.push_back(ConcatTuples(a, b));
    }
  }
  return Relation(std::move(schema), std::move(tuples));
}

Relation Project(const Relation& r, const std::vector<std::string>& names) {
  std::vector<size_t> indices = r.schema().IndicesOfOrThrow(names);
  std::vector<Tuple> tuples;
  tuples.reserve(r.size());
  for (const Tuple& t : r.tuples()) tuples.push_back(ProjectTuple(t, indices));
  return Relation(r.schema().Project(names), std::move(tuples));
}

Relation Select(const Relation& r, const ExprPtr& predicate) {
  BoundExpr bound(predicate, r.schema());
  std::vector<Tuple> tuples;
  for (const Tuple& t : r.tuples()) {
    if (bound.EvalBool(t)) tuples.push_back(t);
  }
  return Relation(r.schema(), std::move(tuples));
}

Relation ThetaJoin(const Relation& r1, const Relation& r2, const ExprPtr& condition) {
  return Select(Product(r1, r2), condition);
}

Relation NaturalJoin(const Relation& r1, const Relation& r2) {
  std::vector<std::string> common = r1.schema().CommonNames(r2.schema());
  std::vector<std::string> right_only = r2.schema().NamesMinus(r1.schema());

  Schema schema = r1.schema().Concat(r2.schema().Project(right_only));
  std::vector<size_t> left_common = r1.schema().IndicesOfOrThrow(common);
  std::vector<size_t> right_common = r2.schema().IndicesOfOrThrow(common);
  std::vector<size_t> right_rest = r2.schema().IndicesOfOrThrow(right_only);

  // Hash r2 on the common attributes.
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash, TupleEq> index;
  for (const Tuple& t : r2.tuples()) {
    index[ProjectTuple(t, right_common)].push_back(&t);
  }
  std::vector<Tuple> tuples;
  for (const Tuple& t : r1.tuples()) {
    auto it = index.find(ProjectTuple(t, left_common));
    if (it == index.end()) continue;
    for (const Tuple* match : it->second) {
      tuples.push_back(ConcatTuples(t, ProjectTuple(*match, right_rest)));
    }
  }
  return Relation(std::move(schema), std::move(tuples));
}

Relation SemiJoin(const Relation& r1, const Relation& r2) {
  std::vector<std::string> common = r1.schema().CommonNames(r2.schema());
  if (common.empty()) {
    // Degenerate: ⋉ over no common attributes keeps everything iff r2 != ∅.
    return r2.empty() ? Relation(r1.schema()) : r1;
  }
  std::vector<size_t> left_common = r1.schema().IndicesOfOrThrow(common);
  std::vector<size_t> right_common = r2.schema().IndicesOfOrThrow(common);
  std::unordered_map<Tuple, bool, TupleHash, TupleEq> keys;
  for (const Tuple& t : r2.tuples()) keys.emplace(ProjectTuple(t, right_common), true);
  std::vector<Tuple> tuples;
  for (const Tuple& t : r1.tuples()) {
    if (keys.count(ProjectTuple(t, left_common))) tuples.push_back(t);
  }
  return Relation(r1.schema(), std::move(tuples));
}

Relation AntiSemiJoin(const Relation& r1, const Relation& r2) {
  return Difference(r1, SemiJoin(r1, r2));
}

Relation LeftOuterJoin(const Relation& r1, const Relation& r2) {
  Relation joined = NaturalJoin(r1, r2);
  Relation dangling = AntiSemiJoin(r1, r2);
  std::vector<std::string> right_only = r2.schema().NamesMinus(r1.schema());
  std::vector<Tuple> tuples = joined.tuples();
  for (const Tuple& t : dangling.tuples()) {
    Tuple padded = t;
    padded.resize(t.size() + right_only.size());  // default Value() is NULL
    tuples.push_back(std::move(padded));
  }
  return Relation(joined.schema(), std::move(tuples));
}

Relation Rename(const Relation& r,
                const std::vector<std::pair<std::string, std::string>>& renames) {
  std::vector<Attribute> attributes = r.schema().attributes();
  for (const auto& [from, to] : renames) {
    attributes[r.schema().IndexOfOrThrow(from)].name = to;
  }
  return Relation(Schema(std::move(attributes)), r.tuples());
}

std::vector<size_t> AggArgIndices(const Schema& input, const std::vector<AggSpec>& aggs) {
  std::vector<size_t> indices;
  indices.reserve(aggs.size());
  for (const AggSpec& spec : aggs) {
    indices.push_back(spec.fn == AggFunc::kCount && spec.arg.empty()
                          ? size_t{0}
                          : input.IndexOfOrThrow(spec.arg.empty() ? "?" : spec.arg));
  }
  return indices;
}

void AggAccumulate(const AggSpec& spec, const Value& v, AggState* state) {
  AggState& s = *state;
  s.count += 1;
  if (spec.fn == AggFunc::kCount) return;
  if (v.type() == ValueType::kInt) {
    s.sum_int += v.as_int();
    s.sum += static_cast<double>(v.as_int());
  } else if (v.type() == ValueType::kReal) {
    s.sum_is_int = false;
    s.sum += v.as_real();
  }
  if (!s.has_minmax || v < s.min) s.min = v;
  if (!s.has_minmax || v > s.max) s.max = v;
  s.has_minmax = true;
}

Value AggFinish(const AggSpec& spec, const AggState& s) {
  switch (spec.fn) {
    case AggFunc::kCount: return Value::Int(s.count);
    case AggFunc::kSum:
      if (s.count == 0) return Value();
      if (!s.sum_is_int) return Value::Real(s.sum);
      if (s.sum_int < std::numeric_limits<int64_t>::min() ||
          s.sum_int > std::numeric_limits<int64_t>::max()) {
        throw SchemaError("integer overflow in SUM");
      }
      return Value::Int(static_cast<int64_t>(s.sum_int));
    case AggFunc::kMin: return s.has_minmax ? s.min : Value();
    case AggFunc::kMax: return s.has_minmax ? s.max : Value();
    case AggFunc::kAvg:
      if (s.count == 0) return Value();
      return Value::Real((s.sum_is_int ? static_cast<double>(s.sum_int) : s.sum) /
                         static_cast<double>(s.count));
  }
  return Value();
}

namespace {

ValueType OutputType(const AggSpec& spec, const Schema& input) {
  switch (spec.fn) {
    case AggFunc::kCount: return ValueType::kInt;
    case AggFunc::kAvg: return ValueType::kReal;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax: return input.attribute(input.IndexOfOrThrow(spec.arg)).type;
  }
  return ValueType::kInt;
}

}  // namespace

Schema GroupByOutputSchema(const Schema& input, const std::vector<std::string>& group_names,
                           const std::vector<AggSpec>& aggs) {
  std::vector<Attribute> out_attrs;
  for (const std::string& name : group_names) {
    out_attrs.push_back(input.attribute(input.IndexOfOrThrow(name)));
  }
  for (const AggSpec& spec : aggs) out_attrs.push_back({spec.out, OutputType(spec, input)});
  return Schema(std::move(out_attrs));
}

Relation GroupBy(const Relation& r, const std::vector<std::string>& group_names,
                 const std::vector<AggSpec>& aggs) {
  std::vector<size_t> group_indices = r.schema().IndicesOfOrThrow(group_names);
  std::vector<size_t> arg_indices = AggArgIndices(r.schema(), aggs);

  std::map<Tuple, std::vector<AggState>, TupleLess> groups;
  if (group_names.empty()) groups.emplace(Tuple{}, std::vector<AggState>(aggs.size()));
  for (const Tuple& t : r.tuples()) {
    Tuple key = ProjectTuple(t, group_indices);
    auto [it, inserted] = groups.try_emplace(std::move(key), std::vector<AggState>(aggs.size()));
    for (size_t i = 0; i < aggs.size(); ++i) {
      AggAccumulate(aggs[i], t[arg_indices[i]], &it->second[i]);
    }
  }

  std::vector<Tuple> tuples;
  tuples.reserve(groups.size());
  for (auto& [key, states] : groups) {
    Tuple t = key;
    for (size_t i = 0; i < aggs.size(); ++i) t.push_back(AggFinish(aggs[i], states[i]));
    tuples.push_back(std::move(t));
  }
  return Relation(GroupByOutputSchema(r.schema(), group_names, aggs), std::move(tuples));
}

}  // namespace quotient
