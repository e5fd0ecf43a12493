#include "algebra/relation.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/status.hpp"
#include "util/strings.hpp"

namespace quotient {

namespace {

void Canonicalize(std::vector<Tuple>* tuples) {
  std::sort(tuples->begin(), tuples->end(), TupleLess{});
  tuples->erase(std::unique(tuples->begin(), tuples->end(),
                            [](const Tuple& a, const Tuple& b) {
                              return CompareTuples(a, b) == 0;
                            }),
                tuples->end());
}

Value ParseLiteral(std::string_view text, ValueType type) {
  std::string s(Trim(text));
  switch (type) {
    case ValueType::kInt: return Value::Int(std::stoll(s));
    case ValueType::kReal: {
      double real = std::stod(s);
      // NaN compares equal to every number: it has no place in the
      // canonical order.
      if (std::isnan(real)) {
        throw SchemaError("Relation::Parse: NaN is not a supported real value");
      }
      return Value::Real(real);
    }
    case ValueType::kString: return Value::Str(s);
    default: throw SchemaError("Relation::Parse cannot parse values of type set/null");
  }
}

}  // namespace

Relation::Relation(Schema schema, std::vector<Tuple> tuples)
    : schema_(std::move(schema)), tuples_(std::move(tuples)) {
  for (const Tuple& t : tuples_) CheckTuple(t);
  Canonicalize(&tuples_);
}

Relation Relation::FromRows(std::string_view schema_spec,
                            std::initializer_list<std::initializer_list<Value>> rows) {
  std::vector<Tuple> tuples;
  tuples.reserve(rows.size());
  for (const auto& row : rows) tuples.emplace_back(row);
  return Relation(Schema::Parse(schema_spec), std::move(tuples));
}

Relation Relation::FromRows(Schema schema, std::vector<Tuple> rows) {
  return Relation(std::move(schema), std::move(rows));
}

Relation Relation::Parse(std::string_view schema_spec, std::string_view rows) {
  Schema schema = Schema::Parse(schema_spec);
  std::vector<Tuple> tuples;
  if (!Trim(rows).empty()) {
    for (const std::string& row : SplitTrim(rows, ';')) {
      if (row.empty()) continue;
      std::vector<std::string> cells = SplitTrim(row, ',');
      if (cells.size() != schema.size()) {
        throw SchemaError("row '" + row + "' has " + std::to_string(cells.size()) +
                          " values, schema " + schema.ToString() + " expects " +
                          std::to_string(schema.size()));
      }
      Tuple t;
      t.reserve(cells.size());
      for (size_t i = 0; i < cells.size(); ++i) {
        t.push_back(ParseLiteral(cells[i], schema.attribute(i).type));
      }
      tuples.push_back(std::move(t));
    }
  }
  return Relation(std::move(schema), std::move(tuples));
}

void Relation::CheckTuple(const Tuple& tuple) const {
  if (tuple.size() != schema_.size()) {
    throw SchemaError("tuple arity " + std::to_string(tuple.size()) + " does not match schema " +
                      schema_.ToString());
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i].is_null()) continue;  // NULL is allowed in any attribute (outer join padding)
    if (tuple[i].type() != schema_.attribute(i).type) {
      throw SchemaError("value " + tuple[i].ToString() + " has type " +
                        ValueTypeName(tuple[i].type()) + ", attribute '" +
                        schema_.attribute(i).name + "' expects " +
                        ValueTypeName(schema_.attribute(i).type));
    }
  }
}

bool Relation::Contains(const Tuple& tuple) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), tuple, TupleLess{});
}

void Relation::Insert(Tuple tuple) {
  CheckTuple(tuple);
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), tuple, TupleLess{});
  if (it != tuples_.end() && CompareTuples(*it, tuple) == 0) return;
  tuples_.insert(it, std::move(tuple));
}

Relation Relation::Reorder(const std::vector<std::string>& names) const {
  std::vector<size_t> indices = schema_.IndicesOfOrThrow(names);
  std::vector<Tuple> tuples;
  tuples.reserve(tuples_.size());
  for (const Tuple& t : tuples_) tuples.push_back(ProjectTuple(t, indices));
  return Relation(schema_.Project(names), std::move(tuples));
}

bool Relation::SubsetOf(const Relation& other) const {
  if (!schema_.SameAttributeSet(other.schema())) {
    throw SchemaError("SubsetOf between incompatible schemas " + schema_.ToString() + " and " +
                      other.schema().ToString());
  }
  const Relation& aligned =
      schema_ == other.schema() ? other : other.Reorder(schema_.Names());
  for (const Tuple& t : tuples_) {
    if (!aligned.Contains(t)) return false;
  }
  return true;
}

bool Relation::operator==(const Relation& other) const {
  if (!schema_.SameAttributeSet(other.schema())) return false;
  if (size() != other.size()) return false;
  if (schema_ == other.schema()) return tuples_ == other.tuples_;
  Relation aligned = other.Reorder(schema_.Names());
  return tuples_ == aligned.tuples_;
}

std::string Relation::ToString() const {
  std::vector<size_t> widths(schema_.size());
  std::vector<std::vector<std::string>> cells;
  cells.reserve(tuples_.size());
  for (size_t i = 0; i < schema_.size(); ++i) widths[i] = schema_.attribute(i).name.size();
  for (const Tuple& t : tuples_) {
    std::vector<std::string> row;
    row.reserve(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      row.push_back(t[i].ToString());
      widths[i] = std::max(widths[i], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ' ';
      out << row[i];
      for (size_t pad = row[i].size(); pad < widths[i]; ++pad) out << ' ';
    }
    out << '\n';
  };
  emit_row(schema_.Names());
  for (const auto& row : cells) emit_row(row);
  if (tuples_.empty()) out << "(empty)\n";
  return out.str();
}

}  // namespace quotient
