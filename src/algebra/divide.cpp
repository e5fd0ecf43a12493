#include "algebra/divide.hpp"

#include <algorithm>
#include <map>

#include "exec/key_codec.hpp"
#include "util/bitmap.hpp"
#include "util/status.hpp"

namespace quotient {

DivisionAttributes DivisionAttributeSets(const Schema& dividend, const Schema& divisor,
                                         bool allow_c) {
  DivisionAttributes out;
  out.b = dividend.CommonNames(divisor);
  out.a = dividend.NamesMinus(divisor);
  out.c = divisor.NamesMinus(dividend);
  if (out.b.empty()) {
    throw SchemaError("division requires a nonempty set B of shared attributes; dividend " +
                      dividend.ToString() + ", divisor " + divisor.ToString());
  }
  if (out.a.empty()) {
    throw SchemaError("division requires nonempty quotient attributes A; dividend " +
                      dividend.ToString() + ", divisor " + divisor.ToString());
  }
  if (!allow_c && !out.c.empty()) {
    throw SchemaError("small divide requires divisor attributes ⊆ dividend attributes; " +
                      divisor.ToString() + " has extra attributes");
  }
  for (const std::string& name : out.b) {
    ValueType t1 = dividend.attribute(dividend.IndexOfOrThrow(name)).type;
    ValueType t2 = divisor.attribute(divisor.IndexOfOrThrow(name)).type;
    if (t1 != t2) {
      throw SchemaError("division attribute '" + name + "' has mismatched types " +
                        ValueTypeName(t1) + " vs " + ValueTypeName(t2));
    }
  }
  return out;
}

Relation DivideCodd(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  std::vector<size_t> a_idx = r1.schema().IndicesOfOrThrow(attrs.a);
  std::vector<size_t> b_idx = r1.schema().IndicesOfOrThrow(attrs.b);
  std::vector<size_t> divisor_idx = r2.schema().IndicesOfOrThrow(attrs.b);

  // Number the dividend's A and B keys.
  IncrementalKeyEncoder a_keys(a_idx.size());
  IncrementalKeyEncoder b_keys(b_idx.size());
  std::vector<uint32_t> row_a;
  std::vector<uint32_t> row_b;
  row_a.reserve(r1.size());
  row_b.reserve(r1.size());
  for (const Tuple& t : r1.tuples()) {
    row_a.push_back(a_keys.InternRow(t, a_idx));
    row_b.push_back(b_keys.InternRow(t, b_idx));
  }

  // Each A-group's image set over B, as one bitmap row per candidate.
  BitmapMatrix images(b_keys.size(), a_keys.size());
  for (size_t i = 0; i < r1.size(); ++i) images.Set(row_a[i], row_b[i]);

  // Resolve the divisor to dividend B numbers. A divisor tuple absent from
  // every image empties the quotient.
  std::vector<uint32_t> divisor;
  divisor.reserve(r2.size());
  for (const Tuple& t : r2.tuples()) {
    uint32_t id = b_keys.FindRow(t, divisor_idx);
    if (id == IncrementalKeyEncoder::kNotFound) {
      return Relation(r1.schema().Project(attrs.a));
    }
    divisor.push_back(id);
  }

  std::vector<Tuple> quotient;
  for (uint32_t cand = 0; cand < a_keys.size(); ++cand) {
    bool contains_all = true;
    for (uint32_t d : divisor) {
      if (!images.Test(cand, d)) {
        contains_all = false;
        break;
      }
    }
    if (contains_all) quotient.push_back(a_keys.KeyTuple(cand));
  }
  return Relation(r1.schema().Project(attrs.a), std::move(quotient));
}

Relation DivideHealy(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  Relation pa = Project(r1, attrs.a);
  // πA(r1) − πA((πA(r1) × r2) − r1)
  return Difference(pa, Project(Difference(Product(pa, r2), r1), attrs.a));
}

Relation DivideMaier(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  Relation result = Project(r1, attrs.a);  // empty intersection = πA(r1)
  std::vector<size_t> divisor_idx = r2.schema().IndicesOfOrThrow(attrs.b);
  for (const Tuple& t : r2.tuples()) {
    // σB=t(r1) then πA.
    std::vector<ExprPtr> conjuncts;
    for (size_t i = 0; i < attrs.b.size(); ++i) {
      conjuncts.push_back(Expr::ColCmp(attrs.b[i], CmpOp::kEq, t[divisor_idx[i]]));
    }
    result = Intersect(result, Project(Select(r1, Expr::AndAll(conjuncts)), attrs.a));
  }
  return result;
}

Relation DivideCounting(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  // The literal counting formula of footnote 1 yields ∅ for an empty divisor;
  // we guard that case so all divide implementations agree with Codd's
  // semantics (r1 ÷ ∅ = πA(r1)).
  if (r2.empty()) return Project(r1, attrs.a);
  std::vector<size_t> a_idx = r1.schema().IndicesOfOrThrow(attrs.a);
  std::vector<size_t> b_idx = r1.schema().IndicesOfOrThrow(attrs.b);
  std::vector<size_t> divisor_idx = r2.schema().IndicesOfOrThrow(attrs.b);

  // Count matching divisor tuples per quotient candidate and compare against
  // |r2| (footnote 1's σcount=|r2|(GγF(r1 ⋉ r2))), on encoded keys: the
  // divisor's B tuples are the dictionary build side, candidates are
  // numbered densely, and the per-candidate counts live in a flat array.
  // Relations are sets, so plain counts are distinct counts.
  IncrementalKeyEncoder b_keys(divisor_idx.size());
  for (const Tuple& t : r2.tuples()) b_keys.InternRow(t, divisor_idx);

  IncrementalKeyEncoder a_keys(a_idx.size());
  std::vector<uint32_t> counts;
  for (const Tuple& t : r1.tuples()) {
    uint32_t cand = a_keys.InternRow(t, a_idx);
    if (cand == counts.size()) counts.push_back(0);
    if (b_keys.FindRow(t, b_idx) != IncrementalKeyEncoder::kNotFound) counts[cand] += 1;
  }
  std::vector<Tuple> quotient;
  for (uint32_t cand = 0; cand < a_keys.size(); ++cand) {
    if (counts[cand] == b_keys.size()) quotient.push_back(a_keys.KeyTuple(cand));
  }
  return Relation(r1.schema().Project(attrs.a), std::move(quotient));
}

Relation GreatDivideSCD(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/true);
  if (attrs.c.empty()) return DivideCodd(r1, r2);  // degenerates (Darwen/Date)

  std::vector<size_t> c_idx = r2.schema().IndicesOfOrThrow(attrs.c);
  Schema b_schema = r2.schema().Project(attrs.b);
  std::vector<size_t> b_idx = r2.schema().IndicesOfOrThrow(attrs.b);

  // Partition the divisor into groups by C.
  std::map<Tuple, std::vector<Tuple>, TupleLess> groups;
  for (const Tuple& t : r2.tuples()) {
    groups[ProjectTuple(t, c_idx)].push_back(ProjectTuple(t, b_idx));
  }

  Schema out_schema = r1.schema().Project(attrs.a).Concat(r2.schema().Project(attrs.c));
  std::vector<Tuple> tuples;
  for (const auto& [c_value, b_tuples] : groups) {
    Relation divisor_group(b_schema, b_tuples);
    Relation quotient = DivideCodd(r1, divisor_group);
    for (const Tuple& q : quotient.tuples()) tuples.push_back(ConcatTuples(q, c_value));
  }
  return Relation(std::move(out_schema), std::move(tuples));
}

Relation GreatDivideDemolombe(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/true);
  if (attrs.c.empty()) return DivideHealy(r1, r2);
  Relation pa = Project(r1, attrs.a);
  Relation pc = Project(r2, attrs.c);
  Relation candidates = Product(pa, pc);
  std::vector<std::string> ac = attrs.a;
  ac.insert(ac.end(), attrs.c.begin(), attrs.c.end());
  // (πA(r1) × r2) − (r1 × πC(r2)), both with attribute set A ∪ B ∪ C.
  Relation violations = Difference(Product(pa, r2), Product(r1, pc));
  return Difference(candidates, Project(violations, ac));
}

Relation GreatDivideTodd(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/true);
  if (attrs.c.empty()) return DivideHealy(r1, r2);
  Relation pa = Project(r1, attrs.a);
  Relation pc = Project(r2, attrs.c);
  Relation candidates = Product(pa, pc);
  std::vector<std::string> ac = attrs.a;
  ac.insert(ac.end(), attrs.c.begin(), attrs.c.end());
  // (πA(r1) × r2) − (r1 ⋈ r2), the join being the natural join on B.
  Relation violations = Difference(Product(pa, r2), NaturalJoin(r1, r2));
  return Difference(candidates, Project(violations, ac));
}

Relation SetContainmentJoin(const Relation& r1, const std::string& b1, const Relation& r2,
                            const std::string& b2) {
  size_t i1 = r1.schema().IndexOfOrThrow(b1);
  size_t i2 = r2.schema().IndexOfOrThrow(b2);
  if (r1.schema().attribute(i1).type != ValueType::kSet ||
      r2.schema().attribute(i2).type != ValueType::kSet) {
    throw SchemaError("set containment join requires set-valued attributes");
  }
  Schema schema = r1.schema().Concat(r2.schema());
  std::vector<Tuple> tuples;
  for (const Tuple& t1 : r1.tuples()) {
    const std::vector<Value>& s1 = t1[i1].as_set();
    for (const Tuple& t2 : r2.tuples()) {
      const std::vector<Value>& s2 = t2[i2].as_set();
      // s1 ⊇ s2; both are sorted and deduplicated by construction.
      if (std::includes(s1.begin(), s1.end(), s2.begin(), s2.end())) {
        tuples.push_back(ConcatTuples(t1, t2));
      }
    }
  }
  return Relation(std::move(schema), std::move(tuples));
}

Relation Nest(const Relation& r, const std::string& attr, const std::string& out_name) {
  size_t nest_idx = r.schema().IndexOfOrThrow(attr);
  std::vector<std::string> rest;
  std::vector<size_t> rest_idx;
  for (size_t i = 0; i < r.schema().size(); ++i) {
    if (i != nest_idx) {
      rest.push_back(r.schema().attribute(i).name);
      rest_idx.push_back(i);
    }
  }
  std::map<Tuple, std::vector<Value>, TupleLess> groups;
  for (const Tuple& t : r.tuples()) {
    groups[ProjectTuple(t, rest_idx)].push_back(t[nest_idx]);
  }
  std::vector<Attribute> attributes;
  for (size_t i : rest_idx) attributes.push_back(r.schema().attribute(i));
  attributes.push_back({out_name, ValueType::kSet});
  std::vector<Tuple> tuples;
  for (auto& [key, values] : groups) {
    Tuple t = key;
    t.push_back(Value::SetOf(std::move(values)));
    tuples.push_back(std::move(t));
  }
  return Relation(Schema(std::move(attributes)), std::move(tuples));
}

Relation Unnest(const Relation& r, const std::string& attr, const std::string& out_name) {
  size_t set_idx = r.schema().IndexOfOrThrow(attr);
  if (r.schema().attribute(set_idx).type != ValueType::kSet) {
    throw SchemaError("Unnest requires a set-valued attribute");
  }
  std::vector<Attribute> attributes;
  std::vector<size_t> rest_idx;
  for (size_t i = 0; i < r.schema().size(); ++i) {
    if (i != set_idx) {
      attributes.push_back(r.schema().attribute(i));
      rest_idx.push_back(i);
    }
  }
  // The element type is inferred from the data; default int for all-empty.
  ValueType element_type = ValueType::kInt;
  for (const Tuple& t : r.tuples()) {
    if (!t[set_idx].as_set().empty()) {
      element_type = t[set_idx].as_set().front().type();
      break;
    }
  }
  attributes.push_back({out_name, element_type});
  std::vector<Tuple> tuples;
  for (const Tuple& t : r.tuples()) {
    for (const Value& element : t[set_idx].as_set()) {
      Tuple row = ProjectTuple(t, rest_idx);
      row.push_back(element);
      tuples.push_back(std::move(row));
    }
  }
  return Relation(Schema(std::move(attributes)), std::move(tuples));
}

}  // namespace quotient
