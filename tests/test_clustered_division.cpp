// Run-at-a-time division over clustered dividends (exec/division_runs.hpp):
// a dividend whose quotient attributes A are a prefix of its clustering
// (its StreamProperties, exec/iterator.hpp) is divided run by run instead
// of through the candidate matrix. Every case here runs ÷ and ÷* against
// plan::Evaluate at threads {1, 2, 3, 8}, at batch sizes {1, 3, 1024} and
// with tiny morsels, so runs cross batch and chunk boundaries, with spill
// forced or off and with the recycler on or off; EXPLAIN ANALYZE names the
// path each division took.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algebra/generator.hpp"
#include "api/session.hpp"
#include "exec/batch.hpp"
#include "exec/exec_divide.hpp"
#include "exec/exec_great_divide.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/recycler.hpp"
#include "exec/scheduler.hpp"
#include "opt/planner.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

constexpr const char* kClustered = "path=clustered";
constexpr const char* kMatrix = "path=matrix";

/// Runs `plan` over every configuration axis and requires the reference
/// algebra's relation, the first configuration's row stream in the same
/// order, and the expected division path in EXPLAIN ANALYZE. Returns the
/// largest dop seen.
size_t ExpectAgreement(const PlanPtr& plan, const Catalog& catalog, const char* path) {
  const Relation reference = Evaluate(plan, catalog);
  std::vector<Tuple> first_stream;
  bool first = true;
  size_t max_dop = 0;
  for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
    ScopedBatchRows batches(batch_rows);
    ScopedMorselRows morsels(1);
    for (bool spill : {false, true}) {
      for (bool recycle : {false, true}) {
        PlannerOptions options;
        if (recycle) options.recycler = std::make_shared<ArtifactRecycler>(size_t{64} << 20);
        for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
          ScopedExecThreads scoped(threads);
          // Three runs: the recycler sights, publishes, then adopts.
          for (int run = 0; run < (recycle ? 3 : 1); ++run) {
            SCOPED_TRACE("batch=" + std::to_string(batch_rows) + " spill=" +
                         std::to_string(spill) + " recycler=" + std::to_string(recycle) +
                         " threads=" + std::to_string(threads) + " run=" +
                         std::to_string(run));
            QueryContext ctx;
            if (spill) ctx.EnableSpill(/*watermark_bytes=*/1, /*dir=*/"");
            ScopedQueryContext scope(&ctx);
            IterPtr root = BuildPhysicalPlan(plan, catalog, options);
            std::vector<Tuple> stream;
            root->Open();
            DrainRows(*root, &stream);
            root->Close();
            if (first) {
              first_stream = stream;
              first = false;
            }
            EXPECT_TRUE(stream == first_stream);
            EXPECT_EQ(Relation(root->schema(), std::move(stream)), reference);
            std::string explain = ExplainTree(*root);
            EXPECT_NE(explain.find(path), std::string::npos) << explain;
            max_dop = std::max(max_dop, MaxPipelineDop(*root));
          }
        }
      }
    }
  }
  return max_dop;
}

/// The row stream of one serial execution, in emission order.
std::vector<Tuple> Stream(const PlanPtr& plan, const Catalog& catalog) {
  ScopedExecThreads serial(1);
  IterPtr root = BuildPhysicalPlan(plan, catalog);
  std::vector<Tuple> stream;
  root->Open();
  DrainRows(*root, &stream);
  root->Close();
  return stream;
}

/// A dividend r1(a, b) of `groups` candidates with runs of ~`domain` rows:
/// every third candidate holds all of [0, domain), the rest miss a few.
Relation LongRuns(int64_t groups, int64_t domain) {
  std::vector<Tuple> rows;
  for (int64_t a = 0; a < groups; ++a) {
    for (int64_t b = 0; b < domain; ++b) {
      if (a % 3 != 0 && (a * 7 + b * 3) % 5 == 0) continue;
      rows.push_back({V(a), V(b)});
    }
  }
  return Relation(Schema::Parse("a, b"), std::move(rows));
}

/// A dividend wide(a1, a2, b1, b2): A = (a1, a2) with several a2 per a1,
/// and B pairs drawn from five; even candidates hold all five.
Relation WideRuns(int64_t groups) {
  const int64_t pairs[5][2] = {{0, 1}, {2, 3}, {4, 5}, {1, 1}, {3, 0}};
  std::vector<Tuple> rows;
  for (int64_t g = 0; g < groups; ++g) {
    for (int64_t p = 0; p < 5; ++p) {
      if (g % 2 == 1 && (g * 5 + p) % 3 == 0) continue;
      rows.push_back({V(g / 4), V(g % 4), V(pairs[p][0]), V(pairs[p][1])});
    }
  }
  return Relation(Schema::Parse("a1, a2, b1, b2"), std::move(rows));
}

Catalog Fixtures() {
  Catalog catalog;
  DataGen gen(0xC1A57E4);
  catalog.Put("r1", LongRuns(/*groups=*/30, /*domain=*/24));
  catalog.Put("r2", Relation::Parse("b", "1; 4; 9; 16; 23"));
  catalog.Put("gd", gen.GreatDivisor(/*groups=*/5, /*domain=*/24, /*density=*/0.2));
  catalog.Put("wide", WideRuns(/*groups=*/40));
  catalog.Put("wide_div", Relation::Parse("b1, b2", "0,1; 2,3; 4,5"));
  catalog.Put("wide_gd", Relation::Parse("b1, b2, c", "0,1,1; 2,3,1; 4,5,2; 1,1,2; 3,0,3; 9,9,3"));
  catalog.Put("strs", StringifyAttribute(LongRuns(/*groups=*/25, /*domain=*/12), "a", "s"));
  catalog.Put("r2_small", Relation::Parse("b", "2; 5"));
  return catalog;
}

PlanPtr Divide(const Catalog& catalog, const char* dividend, const char* divisor) {
  return LogicalOp::Divide(LogicalOp::Scan(catalog, dividend), LogicalOp::Scan(catalog, divisor));
}

PlanPtr GreatDivide(const Catalog& catalog, const char* dividend, const char* divisor) {
  return LogicalOp::GreatDivide(LogicalOp::Scan(catalog, dividend),
                                LogicalOp::Scan(catalog, divisor));
}

TEST(ClusteredDivision, SingleColumnA) {
  Catalog catalog = Fixtures();
  ASSERT_FALSE(Evaluate(Divide(catalog, "r1", "r2"), catalog).empty());
  EXPECT_GE(ExpectAgreement(Divide(catalog, "r1", "r2"), catalog, kClustered), 2u)
      << "no configuration drained the dividend in chunks";
  EXPECT_GE(ExpectAgreement(GreatDivide(catalog, "r1", "gd"), catalog, kClustered), 2u);
}

TEST(ClusteredDivision, MultiColumnAAndB) {
  Catalog catalog = Fixtures();
  ASSERT_FALSE(Evaluate(Divide(catalog, "wide", "wide_div"), catalog).empty());
  ASSERT_FALSE(Evaluate(GreatDivide(catalog, "wide", "wide_gd"), catalog).empty());
  ExpectAgreement(Divide(catalog, "wide", "wide_div"), catalog, kClustered);
  ExpectAgreement(GreatDivide(catalog, "wide", "wide_gd"), catalog, kClustered);
}

TEST(ClusteredDivision, StringA) {
  Catalog catalog = Fixtures();
  ASSERT_FALSE(Evaluate(Divide(catalog, "strs", "r2_small"), catalog).empty());
  ExpectAgreement(Divide(catalog, "strs", "r2_small"), catalog, kClustered);
  ExpectAgreement(GreatDivide(catalog, "strs", "gd"), catalog, kClustered);
}

TEST(ClusteredDivision, EmptyDividendAndEmptyDivisor) {
  Catalog catalog = Fixtures();
  catalog.Put("none", Relation(Schema::Parse("a, b")));
  catalog.Put("no_b", Relation(Schema::Parse("b")));
  catalog.Put("no_bc", Relation(Schema::Parse("b, c")));
  ExpectAgreement(Divide(catalog, "none", "r2"), catalog, kClustered);
  ExpectAgreement(GreatDivide(catalog, "none", "gd"), catalog, kClustered);
  // r1 ÷ ∅ = πA(r1): every run qualifies. ÷* by ∅ has no C group.
  PlanPtr all = Divide(catalog, "r1", "no_b");
  EXPECT_EQ(Evaluate(all, catalog).size(), 30u);
  ExpectAgreement(all, catalog, kClustered);
  ExpectAgreement(GreatDivide(catalog, "r1", "no_bc"), catalog, kClustered);
}

TEST(ClusteredDivision, DivisorValuesAbsentFromTheDividend) {
  Catalog catalog = Fixtures();
  catalog.Put("absent", Relation::Parse("b", "1; 4; 99"));
  catalog.Put("absent_gd", Relation::Parse("b, c", "1,1; 4,1; 2,2; 99,2; 98,3"));
  PlanPtr small = Divide(catalog, "r1", "absent");
  EXPECT_TRUE(Evaluate(small, catalog).empty());
  ExpectAgreement(small, catalog, kClustered);
  PlanPtr great = GreatDivide(catalog, "r1", "absent_gd");
  ASSERT_FALSE(Evaluate(great, catalog).empty());
  ExpectAgreement(great, catalog, kClustered);
}

TEST(ClusteredDivision, ResidualSelectionOverARangeScan) {
  // a >= 4 AND a < 25 becomes a RangeScan span; b <> 7 stays a Filter.
  Catalog catalog = Fixtures();
  ExprPtr predicate = Expr::AndAll({Expr::ColCmp("a", CmpOp::kGe, V(4)),
                                    Expr::ColCmp("a", CmpOp::kLt, V(25)),
                                    Expr::ColCmp("b", CmpOp::kNe, V(7))});
  PlanPtr window = LogicalOp::Select(LogicalOp::Scan(catalog, "r1"), predicate);
  ExecProfile profile;
  ExecutePlan(LogicalOp::Divide(window, LogicalOp::Scan(catalog, "r2")), catalog, {}, &profile);
  EXPECT_NE(profile.explain.find("RangeScan"), std::string::npos) << profile.explain;
  EXPECT_NE(profile.explain.find("Filter"), std::string::npos) << profile.explain;
  ExpectAgreement(LogicalOp::Divide(window, LogicalOp::Scan(catalog, "r2")), catalog,
                  kClustered);
  ExpectAgreement(LogicalOp::GreatDivide(window, LogicalOp::Scan(catalog, "gd")), catalog,
                  kClustered);
}

TEST(ClusteredDivision, NonPrefixAKeepsTheMatrixPath) {
  // The same rows with B first: A is no longer a key prefix, so the
  // dividend is not clustered on it and today's matrix path runs.
  Catalog catalog = Fixtures();
  catalog.Put("r1_bfirst", catalog.Get("r1").Reorder({"b", "a"}));
  ExpectAgreement(Divide(catalog, "r1_bfirst", "r2"), catalog, kMatrix);
  ExpectAgreement(GreatDivide(catalog, "r1_bfirst", "gd"), catalog, kMatrix);
  EXPECT_EQ(Evaluate(Divide(catalog, "r1_bfirst", "r2"), catalog),
            Evaluate(Divide(catalog, "r1", "r2"), catalog));
  // A union with an empty side keeps the row order but claims no
  // clustering: the matrix path. A projection keeping the clustering
  // prefix is clustered. Over the same row order all paths emit the same
  // stream.
  for (bool great : {false, true}) {
    SCOPED_TRACE(great ? "great divide" : "small divide");
    PlanPtr divisor = LogicalOp::Scan(catalog, great ? "gd" : "r2");
    PlanPtr scan = LogicalOp::Scan(catalog, "r1");
    PlanPtr unioned =
        LogicalOp::Union(scan, LogicalOp::Values(Relation(catalog.Get("r1").schema())));
    PlanPtr projected = LogicalOp::Project(scan, {"a", "b"});
    auto divide = [&](const PlanPtr& dividend) {
      return great ? LogicalOp::GreatDivide(dividend, divisor)
                   : LogicalOp::Divide(dividend, divisor);
    };
    ExpectAgreement(divide(unioned), catalog, kMatrix);
    ExpectAgreement(divide(projected), catalog, kClustered);
    EXPECT_TRUE(Stream(divide(unioned), catalog) == Stream(divide(scan), catalog));
    EXPECT_TRUE(Stream(divide(projected), catalog) == Stream(divide(scan), catalog));
  }
}

TEST(ClusteredDivision, MatrixPathStreamOrderIsPinned) {
  // The matrix path's cursor order, pinned. The dividend is a projection
  // of t in k order (first-seen, so unsorted and unclustered on A) with a
  // two-column A; candidate (7, 7) first appears on a row whose B misses
  // the divisor. ÷ numbers a candidate at its first hit, so (5, 5) leads;
  // ÷ over an empty divisor and ÷* number every row, so (7, 7) leads.
  Session session;
  ASSERT_TRUE(session
                  .CreateTable("t", Relation::Parse("k, b, a1, a2",
                                                    "1,1,7,7; 2,2,5,5; 3,2,7,7; 4,3,7,7; "
                                                    "5,3,5,5; 6,2,1,1; 7,3,1,1; 8,1,3,3"))
                  .ok());
  ASSERT_TRUE(session.CreateTable("r2", Relation::Parse("b", "2; 3")).ok());
  ASSERT_TRUE(session.CreateTable("r0", Relation(Schema::Parse("b"))).ok());
  ASSERT_TRUE(session.CreateTable("g", Relation::Parse("b, c", "2,10; 3,10; 1,20; 2,30")).ok());
  const std::string dividend = " FROM (SELECT b, a1, a2 FROM t) AS x DIVIDE BY ";
  struct Case {
    std::string sql;
    std::vector<Tuple> stream;
  };
  const std::vector<Case> cases = {
      {"SELECT a1, a2" + dividend + "r2 AS y ON x.b = y.b",
       {{V(5), V(5)}, {V(7), V(7)}, {V(1), V(1)}}},
      {"SELECT a1, a2" + dividend + "r0 AS y ON x.b = y.b",
       {{V(7), V(7)}, {V(5), V(5)}, {V(1), V(1)}, {V(3), V(3)}}},
      {"SELECT a1, a2, c" + dividend + "g AS y ON x.b = y.b",
       {{V(7), V(7), V(20)},
        {V(7), V(7), V(10)},
        {V(7), V(7), V(30)},
        {V(5), V(5), V(10)},
        {V(5), V(5), V(30)},
        {V(1), V(1), V(10)},
        {V(1), V(1), V(30)},
        {V(3), V(3), V(20)}}},
  };
  for (const Case& c : cases) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(c.sql + " threads=" + std::to_string(threads));
      ScopedExecThreads scoped(threads);
      Result<ResultCursor> opened = session.Query(c.sql);
      ASSERT_TRUE(opened.ok()) << opened.error();
      ResultCursor cursor = std::move(opened).value();
      std::vector<Tuple> stream;
      Tuple row;
      while (cursor.Next(&row)) stream.push_back(row);
      EXPECT_TRUE(cursor.status().ok()) << cursor.status().message();
      EXPECT_EQ(stream, c.stream);
      EXPECT_NE(cursor.Profile().explain.find(kMatrix), std::string::npos)
          << cursor.Profile().explain;
    }
  }
}

TEST(ClusteredDivision, RecyclerPublishesNoProbeArtifact) {
  // Three runs each: the divisor build is published once on both paths;
  // only the matrix path publishes a dividend probe artifact as well.
  Catalog catalog = Fixtures();
  catalog.Put("r1_bfirst", catalog.Get("r1").Reorder({"b", "a"}));
  for (const char* dividend : {"r1", "r1_bfirst"}) {
    SCOPED_TRACE(dividend);
    auto recycler = std::make_shared<ArtifactRecycler>(size_t{64} << 20);
    PlannerOptions options;
    options.recycler = recycler;
    for (int run = 0; run < 3; ++run) ExecutePlan(Divide(catalog, dividend, "r2"), catalog, options);
    EXPECT_EQ(recycler->stats().published, std::string(dividend) == "r1" ? 1u : 2u);
  }
}

TEST(ClusteredDivision, SignedZeroIsOneCandidate) {
  // Canonical order interleaves 0.0 and -0.0 (they compare equal), so the
  // three rows are one run and the quotient is {0.0}.
  Catalog catalog;
  catalog.Put("z", Relation(Schema::Parse("a:real, b:int"),
                            {{V(0.0), V(1)}, {V(-0.0), V(2)}, {V(0.0), V(3)}}));
  catalog.Put("d", Relation::Parse("b", "1; 2; 3"));
  PlanPtr plan = Divide(catalog, "z", "d");
  const Relation expected(Schema::Parse("a:real"), {{V(0.0)}});
  EXPECT_EQ(Evaluate(plan, catalog), expected);
  ExpectAgreement(plan, catalog, kClustered);
  EXPECT_EQ(ExecDivide(catalog.Get("z"), catalog.Get("d")), expected);
}

TEST(ClusteredDivision, ExplainAnalyzeNamesThePath) {
  Session session;
  DataGen gen(5);
  Relation divisor = gen.Divisor(6, /*domain=*/16);
  Relation dividend = gen.DividendWithHits(40, 6, divisor, /*domain=*/16, /*density=*/0.5);
  ASSERT_TRUE(session.CreateTable("r1", dividend).ok());
  ASSERT_TRUE(session.CreateTable("r1_bfirst", dividend.Reorder({"b", "a"})).ok());
  ASSERT_TRUE(session.CreateTable("r2", divisor).ok());
  auto explain = [&](const std::string& table) {
    Result<QueryResult> analyzed = session.Execute(
        "EXPLAIN ANALYZE SELECT a FROM " + table + " AS x DIVIDE BY r2 AS y ON x.b = y.b");
    EXPECT_TRUE(analyzed.ok()) << analyzed.error();
    std::string text;
    if (analyzed.ok()) {
      for (const Tuple& t : analyzed.value().rows.tuples()) text += t[1].ToString() + "\n";
    }
    return text;
  };
  std::string clustered = explain("r1");
  EXPECT_NE(clustered.find(std::string("HashDivision  rows=")), std::string::npos) << clustered;
  EXPECT_NE(clustered.find(kClustered), std::string::npos) << clustered;
  std::string matrix = explain("r1_bfirst");
  EXPECT_NE(matrix.find(kMatrix), std::string::npos) << matrix;
}

}  // namespace
}  // namespace quotient
