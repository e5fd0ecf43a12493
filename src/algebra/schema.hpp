#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/value.hpp"

namespace quotient {

/// A named, typed attribute.
struct Attribute {
  std::string name;
  ValueType type = ValueType::kInt;

  bool operator==(const Attribute& other) const = default;
};

/// An ordered list of uniquely named attributes.
///
/// Attribute identity is by name (Section 2 of the paper reasons entirely in
/// attribute sets A, B, C); Schema provides the set operations the laws need.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes);

  /// Parses "a:int, b:real, s:string, m:set". A missing ":type" defaults to
  /// int, so "a,b" is a two-int-attribute schema. Throws SchemaError on
  /// duplicates or unknown type names.
  static Schema Parse(std::string_view spec);

  size_t size() const { return attributes_.size(); }
  bool empty() const { return attributes_.empty(); }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Index of the attribute named `name`, if present.
  std::optional<size_t> IndexOf(std::string_view name) const;
  /// Index of `name`; throws SchemaError if absent.
  size_t IndexOfOrThrow(std::string_view name) const;
  /// Indices of `names`, in the order given; throws SchemaError if any is
  /// absent.
  std::vector<size_t> IndicesOfOrThrow(const std::vector<std::string>& names) const;
  bool Contains(std::string_view name) const { return IndexOf(name).has_value(); }

  /// All attribute names, in schema order.
  std::vector<std::string> Names() const;

  /// This schema restricted to `names`, in the order given by `names`.
  /// Throws SchemaError if any name is absent.
  Schema Project(const std::vector<std::string>& names) const;

  /// Concatenation; throws SchemaError on duplicate names (use Rename first).
  Schema Concat(const Schema& other) const;

  /// Names present in both schemas, in this schema's order.
  std::vector<std::string> CommonNames(const Schema& other) const;
  /// Names of this schema absent from `other`, in this schema's order.
  std::vector<std::string> NamesMinus(const Schema& other) const;

  /// True iff both schemas have the same name→type mapping (order-free).
  /// This is the compatibility requirement for ∪, ∩, −.
  bool SameAttributeSet(const Schema& other) const;

  /// True iff all of `other`'s attributes appear here with matching types.
  bool ContainsAll(const Schema& other) const;

  /// Exact (ordered) equality.
  bool operator==(const Schema& other) const { return attributes_ == other.attributes_; }

  std::string ToString() const;

 private:
  std::vector<Attribute> attributes_;
};

}  // namespace quotient
