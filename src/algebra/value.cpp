#include "algebra/value.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "util/status.hpp"

namespace quotient {

namespace {

/// Rank used to order values of different (non-numeric-comparable) types.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull: return 0;
    case ValueType::kInt: return 1;
    case ValueType::kReal: return 2;
    case ValueType::kString: return 3;
    case ValueType::kSet: return 4;
  }
  return 5;
}

int Sign(int64_t v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "int";
    case ValueType::kReal: return "real";
    case ValueType::kString: return "string";
    case ValueType::kSet: return "set";
  }
  return "?";
}

Value Value::SetOf(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()), elements.end());
  return Value(Rep(std::make_shared<const std::vector<Value>>(std::move(elements))));
}

ValueType Value::type() const {
  switch (rep_.index()) {
    case 0: return ValueType::kNull;
    case 1: return ValueType::kInt;
    case 2: return ValueType::kReal;
    case 3: return ValueType::kString;
    case 4: return ValueType::kSet;
  }
  return ValueType::kNull;
}

double Value::Numeric() const {
  switch (type()) {
    case ValueType::kInt: return static_cast<double>(as_int());
    case ValueType::kReal: return as_real();
    default:
      throw SchemaError(std::string("Numeric() on non-numeric value of type ") +
                        ValueTypeName(type()));
  }
}

int Value::Compare(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  bool a_num = a == ValueType::kInt || a == ValueType::kReal;
  bool b_num = b == ValueType::kInt || b == ValueType::kReal;
  if (a_num && b_num) {
    // Numeric comparison first so that mixed int/real columns still sort
    // sensibly; exact ties between Int(x) and Real(x) break by type tag so
    // the order stays total and consistent with strict equality.
    if (a == ValueType::kInt && b == ValueType::kInt) {
      int64_t x = as_int(), y = other.as_int();
      if (x != y) return x < y ? -1 : 1;
      return 0;
    }
    double x = Numeric(), y = other.Numeric();
    if (x < y) return -1;
    if (x > y) return 1;
    return TypeRank(a) - TypeRank(b);
  }
  if (a != b) return TypeRank(a) - TypeRank(b);
  switch (a) {
    case ValueType::kNull: return 0;
    case ValueType::kString: {
      int c = as_str().compare(other.as_str());
      return Sign(c);
    }
    case ValueType::kSet: {
      const auto& xs = as_set();
      const auto& ys = other.as_set();
      size_t n = std::min(xs.size(), ys.size());
      for (size_t i = 0; i < n; ++i) {
        int c = xs[i].Compare(ys[i]);
        if (c != 0) return c;
      }
      if (xs.size() != ys.size()) return xs.size() < ys.size() ? -1 : 1;
      return 0;
    }
    default: return 0;  // unreachable: numeric handled above
  }
}

size_t Value::Hash() const {
  auto mix = [](size_t seed, size_t v) {
    return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
  };
  switch (type()) {
    case ValueType::kNull: return 0x6b5f;
    case ValueType::kInt: return mix(1, std::hash<int64_t>{}(as_int()));
    case ValueType::kReal: {
      // Hash reals by bit pattern; numeric==type equality means Int(2) and
      // Real(2.0) may hash differently, which is fine: they are not equal.
      // -0.0 compares equal to +0.0, so it hashes as +0.0: otherwise a
      // dictionary gives the two zeros two ids.
      double d = as_real();
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return mix(2, std::hash<uint64_t>{}(bits));
    }
    case ValueType::kString: return mix(3, std::hash<std::string>{}(as_str()));
    case ValueType::kSet: {
      size_t h = 4;
      for (const Value& v : as_set()) h = mix(h, v.Hash());
      return h;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt: return std::to_string(as_int());
    case ValueType::kReal: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", as_real());
      return buf;
    }
    case ValueType::kString: return as_str();
    case ValueType::kSet: {
      std::string out = "{";
      const auto& elems = as_set();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += elems[i].ToString();
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

}  // namespace quotient
