#include "algebra/schema.hpp"

#include <unordered_set>

#include "util/status.hpp"
#include "util/strings.hpp"

namespace quotient {

namespace {

void CheckUniqueNames(const std::vector<Attribute>& attributes) {
  std::unordered_set<std::string> seen;
  for (const Attribute& a : attributes) {
    if (!seen.insert(a.name).second) {
      throw SchemaError("duplicate attribute name '" + a.name + "' in schema");
    }
  }
}

ValueType ParseType(std::string_view name) {
  if (name == "int") return ValueType::kInt;
  if (name == "real") return ValueType::kReal;
  if (name == "string" || name == "str") return ValueType::kString;
  if (name == "set") return ValueType::kSet;
  throw SchemaError("unknown attribute type '" + std::string(name) + "'");
}

}  // namespace

Schema::Schema(std::vector<Attribute> attributes) : attributes_(std::move(attributes)) {
  CheckUniqueNames(attributes_);
}

Schema Schema::Parse(std::string_view spec) {
  std::vector<Attribute> attributes;
  if (Trim(spec).empty()) return Schema();
  for (const std::string& piece : SplitTrim(spec, ',')) {
    size_t colon = piece.find(':');
    if (colon == std::string::npos) {
      attributes.push_back({piece, ValueType::kInt});
    } else {
      std::string name(Trim(std::string_view(piece).substr(0, colon)));
      std::string type(Trim(std::string_view(piece).substr(colon + 1)));
      attributes.push_back({std::move(name), ParseType(type)});
    }
  }
  return Schema(std::move(attributes));
}

std::optional<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return std::nullopt;
}

size_t Schema::IndexOfOrThrow(std::string_view name) const {
  if (auto i = IndexOf(name)) return *i;
  throw SchemaError("attribute '" + std::string(name) + "' not in schema " + ToString());
}

std::vector<size_t> Schema::IndicesOfOrThrow(const std::vector<std::string>& names) const {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) indices.push_back(IndexOfOrThrow(name));
  return indices;
}

std::vector<std::string> Schema::Names() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size());
  for (const Attribute& a : attributes_) names.push_back(a.name);
  return names;
}

Schema Schema::Project(const std::vector<std::string>& names) const {
  std::vector<Attribute> attributes;
  attributes.reserve(names.size());
  for (const std::string& name : names) attributes.push_back(attributes_[IndexOfOrThrow(name)]);
  return Schema(std::move(attributes));
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Attribute> attributes = attributes_;
  attributes.insert(attributes.end(), other.attributes_.begin(), other.attributes_.end());
  return Schema(std::move(attributes));
}

std::vector<std::string> Schema::CommonNames(const Schema& other) const {
  std::vector<std::string> names;
  for (const Attribute& a : attributes_) {
    if (other.Contains(a.name)) names.push_back(a.name);
  }
  return names;
}

std::vector<std::string> Schema::NamesMinus(const Schema& other) const {
  std::vector<std::string> names;
  for (const Attribute& a : attributes_) {
    if (!other.Contains(a.name)) names.push_back(a.name);
  }
  return names;
}

bool Schema::SameAttributeSet(const Schema& other) const {
  return size() == other.size() && ContainsAll(other);
}

bool Schema::ContainsAll(const Schema& other) const {
  for (const Attribute& a : other.attributes_) {
    auto i = IndexOf(a.name);
    if (!i || attributes_[*i].type != a.type) return false;
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += attributes_[i].name;
    out += ":";
    out += ValueTypeName(attributes_[i].type);
  }
  out += ")";
  return out;
}

}  // namespace quotient
