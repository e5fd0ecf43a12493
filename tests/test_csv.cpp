#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace quotient {
namespace {

TEST(CsvTest, RoundTripIntReal) {
  Relation r = Relation::Parse("a, x:real", "1,1.5; 2,2.25");
  Result<Relation> back = RelationFromCsv(RelationToCsv(r));
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value(), r);
}

TEST(CsvTest, RoundTripStringsWithQuoting) {
  Relation r = Relation::FromRows(
      "id:int, s:string",
      {{V(1), V("plain")}, {V(2), V("has,comma")}, {V(3), V("has\"quote")}});
  std::string csv = RelationToCsv(r);
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
  Result<Relation> back = RelationFromCsv(csv);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value(), r);
}

TEST(CsvTest, HeaderCarriesTypes) {
  std::string csv = RelationToCsv(Relation::Parse("a, s:string", ""));
  EXPECT_EQ(csv, "a:int,s:string\n");
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(RelationFromCsv("").ok());
  EXPECT_FALSE(RelationFromCsv("a:int\nx\n").ok());          // not an int
  EXPECT_FALSE(RelationFromCsv("a:int,b:int\n1\n").ok());    // arity
  EXPECT_FALSE(RelationFromCsv("a:set\n").ok());             // unsupported type
  EXPECT_FALSE(RelationFromCsv("s:string\n\"open\n").ok());  // unterminated quote
}

TEST(CsvTest, RejectsNaN) {
  // NaN compares equal to every number, which would break the canonical
  // order sorted storage and range scans depend on.
  for (const char* cell : {"nan", "NAN", "-nan", "nan(0x1)"}) {
    SCOPED_TRACE(cell);
    Result<Relation> r = RelationFromCsv(std::string("x:real\n1.5\n") + cell + "\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("line 3"), std::string::npos) << r.error();
    EXPECT_NE(r.error().find("NaN"), std::string::npos) << r.error();
  }
  // Infinities are ordered, so they still load.
  Result<Relation> inf = RelationFromCsv("x:real\ninf\n-inf\n");
  ASSERT_TRUE(inf.ok()) << inf.error();
  EXPECT_EQ(inf.value().size(), 2u);
}

TEST(CsvTest, EmptyRelationAndBlankLines) {
  Result<Relation> r = RelationFromCsv("a:int,b:int\n\n1,2\n\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value(), Relation::Parse("a, b", "1,2"));
}

TEST(CsvTest, FileRoundTrip) {
  Relation r = Relation::Parse("a, b", "1,2; 3,4");
  std::string path = ::testing::TempDir() + "/quotient_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(r, path).ok());
  Result<Relation> back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value(), r);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadCsvFile("/nonexistent/dir/file.csv").ok());
}

}  // namespace
}  // namespace quotient
