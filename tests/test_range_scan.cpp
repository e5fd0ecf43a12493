// Range scans over canonical order: the planner absorbs a selection's
// comparisons on a base table's leading column into a span-restricted
// RelationScan ("RangeScan"), keeping a Filter only for the rest. Every
// plan here must equal plan::Evaluate bit for bit at threads {1, 4} x batch
// rows {1, 7, 1024} x spill forced/off, and each case asserts whether a
// RangeScan (and a Filter) appears in the operator profile.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "exec/exec_basic.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "opt/planner.hpp"
#include "plan/evaluate.hpp"
#include "sql/interp.hpp"
#include "util/status.hpp"

namespace quotient {
namespace {

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Runs `plan` in every configuration; each result must equal
/// plan::Evaluate. Returns the operator profile of the last run, after
/// checking that every configuration produced the same one.
std::string ExpectBitIdentical(const PlanPtr& plan, const Catalog& catalog) {
  const Relation reference = Evaluate(plan, catalog);
  ScopedMorselRows morsels(8);  // several morsels even over small spans
  std::string first_explain;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (bool spill : {false, true}) {
        SCOPED_TRACE(plan->ToString() + " threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch_rows) + " spill=" + std::to_string(spill));
        ScopedExecThreads scoped_threads(threads);
        ScopedBatchRows scoped_batch(batch_rows);
        QueryContext context;
        if (spill) context.EnableSpill(/*watermark_bytes=*/1, /*dir=*/"");
        ExecProfile profile;
        Relation got = ExecutePlan(plan, catalog, {}, &profile, &context);
        EXPECT_EQ(got, reference);
        // Row counts and operator names do not depend on the configuration;
        // only dop= does, so compare the profiles with it stripped.
        std::string explain = std::regex_replace(profile.explain, std::regex("  dop=[0-9]+"), "");
        if (first_explain.empty()) first_explain = explain;
        EXPECT_EQ(explain, first_explain);
      }
    }
  }
  return first_explain;
}

/// The plan σ(pred) over `input`, and the same σ as the dividend of a
/// division by divisor(v) — the division's probe drain is a pipeline the
/// executor splits into morsels over the span. Checks both in every
/// configuration, and that a RangeScan and a Filter appear as expected.
void ExpectSelection(const Catalog& catalog, const PlanPtr& input, const ExprPtr& predicate,
                     bool range_scan, bool filter) {
  PlanPtr select = LogicalOp::Select(input, predicate);
  PlanPtr divide = LogicalOp::Divide(select, LogicalOp::Scan(catalog, "divisor"));
  for (const PlanPtr& plan : {select, divide}) {
    std::string explain = ExpectBitIdentical(plan, catalog);
    EXPECT_EQ(Contains(explain, "RangeScan"), range_scan) << plan->ToString() << "\n" << explain;
    EXPECT_EQ(Contains(explain, "Filter"), filter) << plan->ToString() << "\n" << explain;
  }
}

/// `column op literal`, or `literal op' column` with op' mirrored so that
/// both spell the same condition.
ExprPtr Cmp(const std::string& column, CmpOp op, const Value& literal, bool literal_left) {
  if (!literal_left) return Expr::ColCmp(column, op, literal);
  CmpOp mirrored = op == CmpOp::kLt   ? CmpOp::kGt
                   : op == CmpOp::kLe ? CmpOp::kGe
                   : op == CmpOp::kGt ? CmpOp::kLt
                   : op == CmpOp::kGe ? CmpOp::kLe
                                      : op;
  return Expr::Compare(mirrored, Expr::Literal(literal), Expr::Column(column));
}

/// t(k, v) with the given leading values, 1-3 rows each (v in 0..2), and
/// divisor(v) = {0, 1}.
Catalog MakeCatalog(const std::string& k_type, const std::vector<Value>& keys) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (int64_t v = 0; v <= static_cast<int64_t>(i % 3); ++v) rows.push_back({keys[i], V(v)});
  }
  Catalog catalog;
  catalog.Put("t", Relation(Schema::Parse("k:" + k_type + ", v:int"), std::move(rows)));
  catalog.Put("divisor", Relation::FromRows("v:int", {{V(0)}, {V(1)}}));
  return catalog;
}

/// Every comparison, with the literal on either side, for each literal:
/// absorbed into a RangeScan with no Filter, except <> which keeps the
/// Filter and the full scan.
void ExpectAllComparisons(const Catalog& catalog, const std::vector<Value>& literals) {
  PlanPtr scan = LogicalOp::Scan(catalog, "t");
  for (CmpOp op : kAllOps) {
    for (bool literal_left : {false, true}) {
      for (const Value& literal : literals) {
        bool absorbed = op != CmpOp::kNe;
        ExpectSelection(catalog, scan, Cmp("k", op, literal, literal_left), absorbed, !absorbed);
      }
    }
  }
}

TEST(RangeScanTest, IntLeadingColumnAllComparisons) {
  std::vector<Value> keys;
  for (int64_t k = -6; k <= 30; k += 3) keys.push_back(V(k));  // gaps between keys
  Catalog catalog = MakeCatalog("int", keys);
  // Below, at and above the ends; present and absent keys; real literals
  // between two keys and equal to one.
  ExpectAllComparisons(catalog, {V(-100), V(-6), V(9), V(10), V(30), V(31), V(4.5), V(12.0)});
}

TEST(RangeScanTest, RealLeadingColumnAllComparisons) {
  Catalog catalog = MakeCatalog(
      "real", {V(-2.5), V(-1.0), V(0.0), V(0.25), V(1.5), V(2.0), V(3.75), V(1e9)});
  ExpectAllComparisons(
      catalog, {V(-3.0), V(0.25), V(0.3), V(2), V(-1), V(1e9), V(int64_t{2000000000})});
}

TEST(RangeScanTest, StringLeadingColumnAllComparisons) {
  Catalog catalog = MakeCatalog(
      "string", {V("apple"), V("banana"), V("cherry"), V("date"), V("fig"), V("grape"), V("kiwi")});
  ExpectAllComparisons(catalog, {V(""), V("apple"), V("c"), V("date"), V("kiwi"), V("zzz")});
}

TEST(RangeScanTest, IntsAtAndBeyondTwoToThe53) {
  // Predicates compare ints as doubles: 2^53 + 1 rounds to 2^53, so `k =
  // 2^53 + 1` passes both 2^53 and 2^53 + 1. The span must agree.
  const int64_t p53 = int64_t{1} << 53;
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  Catalog catalog = MakeCatalog("int", {V(min), V(-p53 - 2), V(-p53 - 1), V(-p53), V(-p53 + 1),
                                        V(int64_t{0}), V(p53 - 1), V(p53), V(p53 + 1),
                                        V(p53 + 2), V(p53 + 3), V(max - 1), V(max)});
  ExpectAllComparisons(catalog, {V(p53), V(p53 + 1), V(p53 + 3), V(-p53 - 1), V(max), V(min),
                                 V(static_cast<double>(p53)), V(9.3e18)});
}

TEST(RangeScanTest, EmptyFullAndContradictorySpans) {
  std::vector<Value> keys;
  for (int64_t k = 1; k <= 20; ++k) keys.push_back(V(k));
  Catalog catalog = MakeCatalog("int", keys);
  PlanPtr scan = LogicalOp::Scan(catalog, "t");
  auto both = [](ExprPtr a, ExprPtr b) { return Expr::And(std::move(a), std::move(b)); };
  // Empty, full, and contradictory (lower bound above the upper) windows,
  // and a window narrowed by three conjuncts.
  for (const ExprPtr& predicate :
       {Expr::ColCmp("k", CmpOp::kGt, V(20)), Expr::ColCmp("k", CmpOp::kGe, V(1)),
        both(Expr::ColCmp("k", CmpOp::kGt, V(12)), Expr::ColCmp("k", CmpOp::kLt, V(5))),
        both(Expr::ColCmp("k", CmpOp::kEq, V(7)), Expr::ColCmp("k", CmpOp::kEq, V(8))),
        both(both(Expr::ColCmp("k", CmpOp::kGe, V(3)), Expr::ColCmp("k", CmpOp::kLt, V(15))),
             Cmp("k", CmpOp::kLe, V(9), /*literal_left=*/true))}) {
    ExpectSelection(catalog, scan, predicate, /*range_scan=*/true, /*filter=*/false);
  }
  // The span is exact: the RangeScan reads only the rows that pass.
  PlanPtr window = LogicalOp::Select(
      scan, both(Expr::ColCmp("k", CmpOp::kGe, V(3)), Expr::ColCmp("k", CmpOp::kLt, V(15))));
  std::string explain = ExpectBitIdentical(window, catalog);
  size_t passing = Evaluate(window, catalog).size();
  EXPECT_TRUE(Contains(explain, "RangeScan  rows=" + std::to_string(passing) + " "))
      << explain;
}

TEST(RangeScanTest, NonLeadingConjunctKeepsResidualFilter) {
  std::vector<Value> keys;
  for (int64_t k = 1; k <= 20; ++k) keys.push_back(V(k));
  Catalog catalog = MakeCatalog("int", keys);
  PlanPtr scan = LogicalOp::Scan(catalog, "t");
  // Leading-column bounds around a non-leading conjunct, a <> on the
  // leading column, and a column-to-column comparison: the bounds become
  // the span, the rest stays in the Filter.
  ExprPtr predicate = Expr::AndAll(
      {Expr::ColCmp("k", CmpOp::kGe, V(4)), Expr::ColCmp("v", CmpOp::kLt, V(2)),
       Expr::ColCmp("k", CmpOp::kNe, V(9)), Expr::ColCmp("k", CmpOp::kLe, V(16)),
       Expr::Compare(CmpOp::kGe, Expr::Column("k"), Expr::Column("v"))});
  ExpectSelection(catalog, scan, predicate, /*range_scan=*/true, /*filter=*/true);
  // Under a ρ chain, the leading column goes by its new name.
  PlanPtr renamed = LogicalOp::Rename(LogicalOp::Rename(scan, {{"k", "key"}}), {{"v", "value"}});
  PlanPtr renamed_divisor =
      LogicalOp::Rename(LogicalOp::Scan(catalog, "divisor"), {{"v", "value"}});
  PlanPtr select = LogicalOp::Select(
      renamed, Expr::And(Expr::ColCmp("key", CmpOp::kGt, V(6)),
                         Expr::ColCmp("value", CmpOp::kEq, V(0))));
  for (const PlanPtr& plan : {select, LogicalOp::Divide(select, renamed_divisor)}) {
    std::string explain = ExpectBitIdentical(plan, catalog);
    EXPECT_TRUE(Contains(explain, "RangeScan")) << explain;
    EXPECT_TRUE(Contains(explain, "Filter")) << explain;
  }
  // A predicate on a non-leading column alone is not absorbed.
  ExpectSelection(catalog, scan, Expr::ColCmp("v", CmpOp::kEq, V(1)), /*range_scan=*/false,
                  /*filter=*/true);
}

/// The message of the SchemaError `run` throws ("" when it does not).
template <typename Fn>
std::string SchemaErrorOf(Fn&& run) {
  try {
    run();
  } catch (const SchemaError& e) {
    return e.what();
  }
  return "";
}

/// σ(pred) over t must keep its Filter, build no RangeScan, and throw the
/// same SchemaError as plan::Evaluate in every configuration.
void ExpectFilterError(const Catalog& catalog, const ExprPtr& predicate) {
  PlanPtr plan = LogicalOp::Select(LogicalOp::Scan(catalog, "t"), predicate);
  std::string explain = ExplainTree(*BuildPhysicalPlan(plan, catalog));
  EXPECT_TRUE(Contains(explain, "Filter")) << explain;
  EXPECT_FALSE(Contains(explain, "RangeScan")) << explain;
  std::string expected = SchemaErrorOf([&] { Evaluate(plan, catalog); });
  ASSERT_FALSE(expected.empty()) << plan->ToString();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
      ScopedExecThreads scoped_threads(threads);
      ScopedBatchRows scoped_batch(batch_rows);
      EXPECT_EQ(SchemaErrorOf([&] { ExecutePlan(plan, catalog); }), expected)
          << plan->ToString() << " threads=" << threads << " batch=" << batch_rows;
    }
  }
}

TEST(RangeScanTest, NullBearingLeadingColumnKeepsFilterAndError) {
  Catalog catalog = MakeCatalog("int", {Value(), V(1), V(2), V(3)});
  ASSERT_TRUE(catalog.Get("t").tuples().front()[0].is_null());
  ExpectFilterError(catalog, Expr::ColCmp("k", CmpOp::kGe, V(2)));
  ExpectFilterError(catalog, Cmp("k", CmpOp::kEq, V(3), /*literal_left=*/true));
}

TEST(RangeScanTest, TypeMismatchKeepsFilterAndError) {
  Catalog catalog = MakeCatalog("string", {V("a"), V("b"), V("c")});
  ExpectFilterError(catalog, Expr::ColCmp("k", CmpOp::kLt, V(2)));
  Catalog ints = MakeCatalog("int", {V(1), V(2), V(3)});
  ExpectFilterError(ints, Cmp("k", CmpOp::kGe, V("b"), /*literal_left=*/true));
}

TEST(RangeScanTest, SharedSubplans) {
  std::vector<Value> keys;
  for (int64_t k = 1; k <= 24; ++k) keys.push_back(V(k));
  Catalog catalog = MakeCatalog("int", keys);
  PlanPtr scan = LogicalOp::Scan(catalog, "t");
  // A σ used twice is materialized once; it still reads through a span.
  PlanPtr shared_select = LogicalOp::Select(
      scan, Expr::And(Expr::ColCmp("k", CmpOp::kGe, V(5)), Expr::ColCmp("k", CmpOp::kLt, V(19))));
  PlanPtr plan = LogicalOp::Union(
      LogicalOp::Project(LogicalOp::Select(shared_select, Expr::ColCmp("v", CmpOp::kEq, V(1))),
                         {"k"}),
      LogicalOp::Divide(shared_select, LogicalOp::Scan(catalog, "divisor")));
  ExpectBitIdentical(plan, catalog);
  // A shared ρ under two selections is materialized, so neither becomes a
  // RangeScan.
  PlanPtr shared_rename = LogicalOp::Rename(scan, {{"k", "key"}});
  plan = LogicalOp::Union(LogicalOp::Select(shared_rename, Expr::ColCmp("key", CmpOp::kLt, V(6))),
                          LogicalOp::Select(shared_rename, Expr::ColCmp("key", CmpOp::kGt, V(20))));
  std::string explain = ExpectBitIdentical(plan, catalog);
  EXPECT_FALSE(Contains(explain, "RangeScan")) << explain;
  // One scan node under two selections: each gets its own span.
  plan = LogicalOp::Union(LogicalOp::Select(scan, Expr::ColCmp("k", CmpOp::kLt, V(6))),
                          LogicalOp::Select(scan, Expr::ColCmp("k", CmpOp::kGt, V(20))));
  explain = ExpectBitIdentical(plan, catalog);
  size_t first = explain.find("RangeScan");
  ASSERT_NE(first, std::string::npos) << explain;
  EXPECT_NE(explain.find("RangeScan", first + 1), std::string::npos) << explain;
  EXPECT_FALSE(Contains(explain, "Filter")) << explain;
}

TEST(RangeScanTest, PreparedStatementBindsSeveralWindows) {
  std::vector<Value> keys;
  for (int64_t k = 1; k <= 40; ++k) keys.push_back(V(k));
  Catalog catalog = MakeCatalog("int", keys);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ScopedExecThreads scoped_threads(threads);
    ScopedMorselRows morsels(8);
    Session session;
    ASSERT_TRUE(session.CreateTable("t", catalog.Get("t")).ok());
    ASSERT_TRUE(session.CreateTable("divisor", catalog.Get("divisor")).ok());
    for (const std::string& text :
         {std::string("SELECT k, v FROM t WHERE k >= ? AND k < ?"),
          std::string("SELECT k FROM t AS x DIVIDE BY divisor AS y ON x.v = y.v "
                      "WHERE k >= ? AND k < ?")}) {
      Result<PreparedStatement> prepared = session.Prepare(text);
      ASSERT_TRUE(prepared.ok()) << prepared.error();
      for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
               {1, 11}, {10, 31}, {25, 26}, {30, 20}, {0, 100}, {41, 50}}) {
        SCOPED_TRACE(text + " window [" + std::to_string(lo) + ", " + std::to_string(hi) +
                     ") threads=" + std::to_string(threads));
        Result<QueryResult> result = prepared.value().Execute({V(lo), V(hi)});
        ASSERT_TRUE(result.ok()) << result.error();
        std::string literal = text;
        literal.replace(literal.find('?'), 1, std::to_string(lo));
        literal.replace(literal.find('?'), 1, std::to_string(hi));
        Result<Relation> oracle = sql::ExecuteSql(literal, catalog);
        ASSERT_TRUE(oracle.ok()) << oracle.error();
        EXPECT_EQ(result.value().rows, oracle.value());
        const std::string& explain = result.value().profile.explain;
        EXPECT_TRUE(Contains(explain, "RangeScan")) << explain;
        EXPECT_FALSE(Contains(explain, "Filter")) << explain;
      }
    }
  }
}

TEST(RangeScanTest, SpanReadsOffsetStorageRows) {
  std::vector<Value> keys;
  for (int64_t k = 1; k <= 10; ++k) keys.push_back(V(k));
  Catalog catalog = MakeCatalog("int", keys);
  const std::vector<Tuple>& rows = catalog.Get("t").tuples();
  ASSERT_GE(rows.size(), 12u);
  // The encoded-id path (catalog encoding) and the row-view path (none).
  for (TableEncodingPtr encoding : {catalog.Encoding("t"), TableEncodingPtr()}) {
    SCOPED_TRACE(encoding != nullptr ? "encoded" : "row view");
    RelationScan plain(catalog.GetShared("t"), encoding);
    EXPECT_STREQ(plain.name(), "Scan");
    RelationScan scan(catalog.GetShared("t"), encoding);
    scan.RestrictToSpan(3, 11);
    EXPECT_STREQ(scan.name(), "RangeScan");
    EXPECT_EQ(scan.TotalRows(), 8u);
    EXPECT_EQ(scan.EstimatedRows(), 8u);
    Batch batch;
    Tuple row;
    scan.FillSpan(2, 4, &batch);
    ASSERT_EQ(batch.ActiveRows(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      batch.ToTuple(batch.RowAt(i), &row);
      EXPECT_EQ(row, rows[5 + i]);
    }
    ScopedBatchRows scoped_batch(3);
    scan.Open();
    std::vector<Tuple> drained;
    DrainRows(scan, &drained);
    EXPECT_EQ(drained, std::vector<Tuple>(rows.begin() + 3, rows.begin() + 11));
    EXPECT_EQ(scan.rows_produced(), 8u);
    EXPECT_THROW(scan.RestrictToSpan(5, rows.size() + 1), std::out_of_range);
    EXPECT_THROW(scan.RestrictToSpan(6, 5), std::out_of_range);
  }
}

TEST(RangeScanTest, SpanStaysMorselSplittable) {
  std::vector<Value> keys;
  for (int64_t k = 1; k <= 600; ++k) keys.push_back(V(k));
  Catalog catalog = MakeCatalog("int", keys);
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Select(LogicalOp::Scan(catalog, "t"),
                        Expr::And(Expr::ColCmp("k", CmpOp::kGe, V(100)),
                                  Expr::ColCmp("k", CmpOp::kLt, V(400)))),
      LogicalOp::Scan(catalog, "divisor"));
  ScopedExecThreads scoped_threads(4);
  // Four-row morsels: the span clears the fan-out break-even.
  ScopedMorselRows morsels(4);
  ScopedBatchRows batch_rows(4);
  ExecProfile profile;
  EXPECT_EQ(ExecutePlan(plan, catalog, {}, &profile), Evaluate(plan, catalog));
  // The division's dividend pipeline reads the span in parallel morsels (the
  // two-row divisor drains serially, so the dop comes from the span).
  EXPECT_TRUE(Contains(profile.pipelines, "RangeScan")) << profile.pipelines;
  EXPECT_GE(profile.max_dop, 2u) << profile.pipelines;
}

}  // namespace
}  // namespace quotient
