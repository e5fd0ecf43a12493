#include "algebra/relation.hpp"

#include <gtest/gtest.h>

#include "util/status.hpp"

namespace quotient {
namespace {

TEST(RelationTest, CanonicalizesOnConstruction) {
  Relation r(Schema::Parse("a, b"), {{V(2), V(1)}, {V(1), V(1)}, {V(2), V(1)}});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuples()[0], (Tuple{V(1), V(1)}));
  EXPECT_EQ(r.tuples()[1], (Tuple{V(2), V(1)}));
}

TEST(RelationTest, ParseRoundTrip) {
  Relation r = Relation::Parse("a, b", "1,2; 3,4");
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({V(1), V(2)}));
  EXPECT_FALSE(r.Contains({V(2), V(1)}));
}

TEST(RelationTest, ParseTypes) {
  Relation r = Relation::Parse("x:real, s:string", "1.5,hello; 2.25,world");
  EXPECT_EQ(r.tuples()[0][0], V(1.5));
  EXPECT_EQ(r.tuples()[0][1], V("hello"));
}

TEST(RelationTest, ParseEmptyAndErrors) {
  EXPECT_TRUE(Relation::Parse("a", "").empty());
  EXPECT_THROW(Relation::Parse("a, b", "1"), SchemaError);        // arity
  EXPECT_THROW(Relation(Schema::Parse("a"), {{V("x")}}), SchemaError);  // type
}

TEST(RelationTest, ParseRejectsNaN) {
  EXPECT_THROW(Relation::Parse("x:real", "1.5; nan"), SchemaError);
  EXPECT_THROW(Relation::Parse("a, x:real", "1, -NaN"), SchemaError);
  EXPECT_EQ(Relation::Parse("x:real", "inf; -inf; 0.5").size(), 3u);
}

TEST(RelationTest, InsertKeepsCanonicalOrderAndDedupes) {
  Relation r(Schema::Parse("a"));
  r.Insert({V(5)});
  r.Insert({V(1)});
  r.Insert({V(5)});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuples()[0][0], V(1));
}

TEST(RelationTest, EqualityModuloAttributeOrder) {
  Relation r1 = Relation::Parse("a, b", "1,2; 3,4");
  Relation r2 = Relation::Parse("b, a", "2,1; 4,3");
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1, Relation::Parse("a, b", "1,2"));
  EXPECT_NE(r1, Relation::Parse("a, c", "1,2; 3,4"));  // different names
}

TEST(RelationTest, ReorderAndSubset) {
  Relation r = Relation::Parse("a, b", "1,2; 3,4");
  Relation reordered = r.Reorder({"b", "a"});
  EXPECT_EQ(reordered.schema().Names(), (std::vector<std::string>{"b", "a"}));
  EXPECT_TRUE(Relation::Parse("a, b", "1,2").SubsetOf(r));
  EXPECT_TRUE(Relation::Parse("b, a", "2,1").SubsetOf(r));
  EXPECT_FALSE(r.SubsetOf(Relation::Parse("a, b", "1,2")));
  EXPECT_THROW(Relation::Parse("z", "1").SubsetOf(r), SchemaError);
}

TEST(RelationTest, NullsAllowedForOuterJoinPadding) {
  Relation r(Schema::Parse("a, b"), {{V(1), Value()}});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.tuples()[0][1].is_null());
}

TEST(RelationTest, ToStringAlignsColumns) {
  Relation r = Relation::Parse("a, long_name", "1,2; 100,3");
  std::string text = r.ToString();
  EXPECT_NE(text.find("a   long_name"), std::string::npos);
  EXPECT_NE(text.find("100 3"), std::string::npos);
  EXPECT_NE(Relation(Schema::Parse("a")).ToString().find("(empty)"), std::string::npos);
}

}  // namespace
}  // namespace quotient
