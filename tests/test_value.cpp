#include "algebra/value.hpp"

#include <gtest/gtest.h>

#include "util/status.hpp"

namespace quotient {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Int(3).type(), ValueType::kInt);
  EXPECT_EQ(Value::Real(2.5).type(), ValueType::kReal);
  EXPECT_EQ(Value::Str("x").type(), ValueType::kString);
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value::Int(3).as_int(), 3);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).as_real(), 2.5);
  EXPECT_EQ(Value::Str("x").as_str(), "x");
}

TEST(ValueTest, IntOrdering) {
  EXPECT_LT(V(1), V(2));
  EXPECT_EQ(V(2), V(2));
  EXPECT_GT(V(3), V(2));
  EXPECT_LE(V(2), V(2));
}

TEST(ValueTest, MixedNumericOrderingIsNumericFirst) {
  EXPECT_LT(V(2), V(2.5));
  EXPECT_LT(V(2.5), V(3));
  // Exact numeric ties are ordered by type tag (int < real) to stay total.
  EXPECT_LT(V(2), V(2.0));
  EXPECT_NE(V(2), V(2.0));
}

TEST(ValueTest, CrossTypeOrderingByTypeRank) {
  EXPECT_LT(Value(), V(0));           // null < numbers
  EXPECT_LT(V(1000), V("a"));         // numbers < strings
  EXPECT_LT(V("zzz"), Value::SetOf({}));  // strings < sets
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(V("abc"), V("abd"));
  EXPECT_EQ(V("abc"), V("abc"));
  EXPECT_GT(V("b"), V("ab"));
}

TEST(ValueTest, SetOfSortsAndDeduplicates) {
  Value s = Value::SetOf({V(3), V(1), V(3), V(2)});
  ASSERT_EQ(s.as_set().size(), 3u);
  EXPECT_EQ(s.as_set()[0], V(1));
  EXPECT_EQ(s.as_set()[2], V(3));
}

TEST(ValueTest, SetOrderingIsLexicographic) {
  EXPECT_LT(Value::SetOf({V(1)}), Value::SetOf({V(2)}));
  EXPECT_LT(Value::SetOf({V(1)}), Value::SetOf({V(1), V(2)}));
  EXPECT_EQ(Value::SetOf({V(1), V(2)}), Value::SetOf({V(2), V(1)}));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(V(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(V("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_EQ(Value::SetOf({V(1), V(2)}).Hash(), Value::SetOf({V(2), V(1)}).Hash());
}

TEST(ValueTest, SignedZerosHashAlike) {
  // -0.0 == +0.0, so they must hash alike: a dictionary keyed on the hash
  // would otherwise give one value two ids.
  EXPECT_EQ(V(-0.0), V(0.0));
  EXPECT_EQ(V(-0.0).Hash(), V(0.0).Hash());
  EXPECT_EQ(Value::SetOf({V(-0.0)}).Hash(), Value::SetOf({V(0.0)}).Hash());
}

TEST(ValueTest, Numeric) {
  EXPECT_DOUBLE_EQ(V(3).Numeric(), 3.0);
  EXPECT_DOUBLE_EQ(V(2.5).Numeric(), 2.5);
  EXPECT_THROW(V("x").Numeric(), SchemaError);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(V(3).ToString(), "3");
  EXPECT_EQ(V(-7).ToString(), "-7");
  EXPECT_EQ(V(2.5).ToString(), "2.5");
  EXPECT_EQ(V("hi").ToString(), "hi");
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value::SetOf({V(2), V(1)}).ToString(), "{1, 2}");
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(ValueTypeName(ValueType::kInt), "int");
  EXPECT_STREQ(ValueTypeName(ValueType::kReal), "real");
  EXPECT_STREQ(ValueTypeName(ValueType::kString), "string");
  EXPECT_STREQ(ValueTypeName(ValueType::kSet), "set");
  EXPECT_STREQ(ValueTypeName(ValueType::kNull), "null");
}

}  // namespace
}  // namespace quotient
