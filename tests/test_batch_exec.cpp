// Batched columnar execution (docs/batched_execution.md) must reproduce the
// reference algebra: these property tests run the same physical plans at
// batch sizes that straddle every boundary (1, 3, 1023, 1024, 1025) and
// require the relation plan::Evaluate computes AND per-operator row counts
// identical across batch sizes, over empty inputs, string keys, and keys
// wide enough to take the SmallByteKey spill path. The PairKernel suite
// covers the × and nested-loop join batch kernels at threads {1, 4}.

#include <gtest/gtest.h>

#include <functional>

#include "algebra/generator.hpp"
#include "algebra/ops.hpp"
#include "core/engine.hpp"
#include "exec/batch.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_divide.hpp"
#include "exec/exec_great_divide.hpp"
#include "exec/scheduler.hpp"
#include "opt/planner.hpp"
#include "paper_fixtures.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

const size_t kBoundarySizes[] = {1, 3, 1023, 1024, 1025};

/// Runs `plan` single-threaded at each boundary batch size; every result
/// must equal plan::Evaluate (the reference algebra), and the plan-wide row
/// accounting must not depend on the batch size.
void ExpectBatchSizeAgreement(const PlanPtr& plan, const Catalog& catalog) {
  const Relation reference = Evaluate(plan, catalog);
  ScopedExecThreads serial(1);
  ExecProfile first_profile;
  bool first = true;
  for (size_t batch_rows : kBoundarySizes) {
    ScopedBatchRows scoped(batch_rows);
    ExecProfile profile;
    Relation result = ExecutePlan(plan, catalog, {}, &profile);
    EXPECT_EQ(result, reference) << "batch_rows=" << batch_rows;
    if (first) {
      first_profile = profile;
      first = false;
      continue;
    }
    EXPECT_EQ(profile.total_rows, first_profile.total_rows)
        << "rows_produced accounting diverged at batch_rows=" << batch_rows << "\nbatch_rows="
        << kBoundarySizes[0] << ":\n"
        << first_profile.explain << "batch_rows=" << batch_rows << ":\n"
        << profile.explain;
    EXPECT_EQ(profile.max_rows, first_profile.max_rows) << "batch_rows=" << batch_rows;
  }
}

Catalog SuppliersCatalog() {
  Catalog catalog;
  catalog.Put("spj", Relation::Parse("s, p", "1,1; 1,2; 1,3; 2,1; 2,3; 3,2; 3,3; 4,1"));
  catalog.Put("parts", Relation::Parse("p", "1; 3"));
  DataGen gen(0xBA7C4);
  catalog.Put("r1", gen.Dividend(/*groups=*/40, /*domain=*/24, /*density=*/0.4));
  catalog.Put("r2", gen.Divisor(/*size=*/8, /*domain=*/24));
  catalog.Put("gd", gen.GreatDivisor(/*groups=*/6, /*domain=*/24, /*density=*/0.25));
  // Non-clustered twin: A is not a key prefix, so divisions over it keep
  // the candidate-matrix path.
  catalog.Put("r1_bfirst", catalog.Get("r1").Reorder({"b", "a"}));
  return catalog;
}

TEST(BatchExecProperty, DivisionAllBatchSizes) {
  Catalog catalog = SuppliersCatalog();
  for (const char* dividend : {"r1", "r1_bfirst"}) {
    PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, dividend),
                                     LogicalOp::Scan(catalog, "r2"));
    ExpectBatchSizeAgreement(plan, catalog);
  }
}

TEST(BatchExecProperty, GreatDivideAllBatchSizes) {
  Catalog catalog = SuppliersCatalog();
  for (const char* dividend : {"r1", "r1_bfirst"}) {
    PlanPtr plan = LogicalOp::GreatDivide(LogicalOp::Scan(catalog, dividend),
                                          LogicalOp::Scan(catalog, "gd"));
    ExpectBatchSizeAgreement(plan, catalog);
  }
}

TEST(BatchExecProperty, FilterProjectPipeline) {
  Catalog catalog = SuppliersCatalog();
  // Selection with a dictionary-cacheable conjunct (b < 12) AND a residual
  // multi-column conjunct (a != b), under a deduplicating projection.
  ExprPtr predicate = Expr::And(Expr::ColCmp("b", CmpOp::kLt, V(12)),
                                Expr::Compare(CmpOp::kNe, Expr::Column("a"), Expr::Column("b")));
  PlanPtr plan = LogicalOp::Project(
      LogicalOp::Select(LogicalOp::Scan(catalog, "r1"), predicate), {"a"});
  ExpectBatchSizeAgreement(plan, catalog);
}

TEST(BatchExecProperty, FilterKeepsNothingAndEverything) {
  Catalog catalog = SuppliersCatalog();
  ExpectBatchSizeAgreement(LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                                        Expr::ColCmp("a", CmpOp::kLt, V(-1))),
                      catalog);
  ExpectBatchSizeAgreement(LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                                        Expr::ColCmp("a", CmpOp::kGe, V(0))),
                      catalog);
}

TEST(BatchExecProperty, JoinsAcrossBatchSizes) {
  Catalog catalog = SuppliersCatalog();
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr spj = LogicalOp::Scan(catalog, "spj");
  // Natural join on the shared attribute names.
  ExpectBatchSizeAgreement(
      LogicalOp::NaturalJoin(r1, LogicalOp::Rename(spj, {{"s", "a"}, {"p", "x"}})), catalog);
  // Theta equi-join keeps both key columns.
  ExpectBatchSizeAgreement(LogicalOp::ThetaJoin(spj, LogicalOp::Rename(spj, {{"s", "s2"}, {"p", "p2"}}),
                                           Expr::ColEqCol("p", "p2")),
                      catalog);
  // Semi and anti joins.
  ExpectBatchSizeAgreement(LogicalOp::SemiJoin(r1, LogicalOp::Scan(catalog, "r2")), catalog);
  ExpectBatchSizeAgreement(LogicalOp::AntiJoin(r1, LogicalOp::Scan(catalog, "r2")), catalog);
}

TEST(BatchExecProperty, SetOperationsWithReorderedSchemas) {
  Catalog catalog = SuppliersCatalog();
  DataGen gen(0x5E7);
  catalog.Put("r1b", gen.Dividend(30, 24, 0.3));
  // Swap attribute order on one side so the reorder path is exercised.
  PlanPtr left = LogicalOp::Scan(catalog, "r1");
  PlanPtr right = LogicalOp::Project(
      LogicalOp::Rename(LogicalOp::Scan(catalog, "r1b"), {}), {"b", "a"});
  ExpectBatchSizeAgreement(LogicalOp::Union(left, right), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Intersect(left, right), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Difference(left, right), catalog);
}

TEST(BatchExecProperty, GroupByAggregates) {
  Catalog catalog = SuppliersCatalog();
  PlanPtr plan = LogicalOp::GroupBy(
      LogicalOp::Scan(catalog, "r1"), {"a"},
      {{AggFunc::kCount, "", "n"}, {AggFunc::kMax, "b", "max_b"}, {AggFunc::kAvg, "b", "avg_b"}});
  ExpectBatchSizeAgreement(plan, catalog);
  // Global aggregate (no group attributes) over a nonempty and empty input.
  PlanPtr global = LogicalOp::GroupBy(LogicalOp::Scan(catalog, "r1"), {},
                                      {{AggFunc::kCount, "", "n"}});
  ExpectBatchSizeAgreement(global, catalog);
}

TEST(BatchExecProperty, EmptyInputsEverywhere) {
  Catalog catalog;
  catalog.Put("empty_ab", Relation(Schema::Parse("a, b")));
  catalog.Put("empty_b", Relation(Schema::Parse("b")));
  catalog.Put("r1", Relation::Parse("a, b", "1,1; 1,2; 2,1"));
  catalog.Put("r2", Relation::Parse("b", "1; 2"));
  PlanPtr empty_ab = LogicalOp::Scan(catalog, "empty_ab");
  PlanPtr empty_b = LogicalOp::Scan(catalog, "empty_b");
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr r2 = LogicalOp::Scan(catalog, "r2");
  ExpectBatchSizeAgreement(LogicalOp::Divide(empty_ab, r2), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Divide(r1, empty_b), catalog);  // r1 ÷ ∅ = πA(r1)
  ExpectBatchSizeAgreement(LogicalOp::NaturalJoin(r1, empty_ab), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Union(r1, empty_ab), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Difference(empty_ab, r1), catalog);
  ExpectBatchSizeAgreement(LogicalOp::GroupBy(empty_ab, {"a"}, {{AggFunc::kCount, "", "n"}}),
                      catalog);
}

TEST(BatchExecProperty, StringKeysAndMixedTypes) {
  DataGen gen(0xABCD);
  Catalog catalog;
  catalog.Put("r1", StringifyAttribute(gen.Dividend(25, 16, 0.4), "b"));
  catalog.Put("r2", StringifyAttribute(gen.Divisor(5, 16), "b"));
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"),
                                   LogicalOp::Scan(catalog, "r2"));
  ExpectBatchSizeAgreement(plan, catalog);
  // String-valued filter through the verdict cache.
  ExpectBatchSizeAgreement(LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                                        Expr::ColCmp("b", CmpOp::kEq, V("v3"))),
                      catalog);
}

TEST(BatchExecProperty, WideKeysHitSpillPath) {
  // 18 B columns with large per-column domains put the divisor keys past
  // 64 bits into SmallByteKey spill keys — in both modes, at odd batch sizes.
  DataGen gen(0x5B111);
  constexpr size_t kNumB = 18;
  Relation r1 = gen.DividendWide(/*groups=*/6, /*num_a=*/1, kNumB,
                                 /*domain=*/300, /*density=*/0.2);
  std::vector<size_t> b_idx;
  for (size_t i = 1; i <= kNumB; ++i) b_idx.push_back(i);
  std::vector<Tuple> divisor_rows;
  for (const Tuple& t : r1.tuples()) {
    if (gen.Chance(0.2)) divisor_rows.push_back(ProjectTuple(t, b_idx));
  }
  std::vector<std::string> b_names;
  for (size_t i = 1; i <= kNumB; ++i) b_names.push_back("b" + std::to_string(i));
  Catalog catalog;
  catalog.Put("wide", r1);
  catalog.Put("wide_divisor", Relation(r1.schema().Project(b_names), std::move(divisor_rows)));
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "wide"),
                                   LogicalOp::Scan(catalog, "wide_divisor"));
  ExpectBatchSizeAgreement(plan, catalog);
  // Wide projection dedup takes the encoder's spill representation too.
  ExpectBatchSizeAgreement(LogicalOp::Project(LogicalOp::Scan(catalog, "wide"), b_names), catalog);
}

TEST(BatchExecProperty, RandomizedPlansAgainstOracle) {
  DataGen gen(0xF00D);
  for (int round = 0; round < 25; ++round) {
    Catalog catalog;
    catalog.Put("r1", gen.Dividend(gen.UniformInt(0, 16), gen.UniformInt(1, 10), 0.4));
    catalog.Put("r2", gen.Divisor(gen.UniformInt(0, 6), 10));
    PlanPtr plan = LogicalOp::Divide(
        LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                          Expr::ColCmp("a", CmpOp::kGe, V(gen.UniformInt(0, 3)))),
        LogicalOp::Scan(catalog, "r2"));
    ScopedBatchRows scoped(static_cast<size_t>(gen.UniformInt(1, 64)));
    EXPECT_EQ(ExecutePlan(plan, catalog), Evaluate(plan, catalog)) << "round " << round;
  }
}

TEST(BatchExecProperty, HealyExpansionAgreesAcrossBatchSizes) {
  // The basic-algebra simulation exercises ×, − and π together.
  Catalog catalog = SuppliersCatalog();
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "spj"),
                                   LogicalOp::Scan(catalog, "parts"));
  RewriteEngine expand;
  expand.Add(MakeDivideToHealyExpansionRule());
  PlanPtr healy = expand.Rewrite(plan, RewriteContext{&catalog, false});
  ASSERT_EQ(healy->ToString().find("Divide "), std::string::npos);
  ASSERT_EQ(Evaluate(healy, catalog), Evaluate(plan, catalog));
  ExpectBatchSizeAgreement(healy, catalog);
}

// --- batch plumbing unit tests ---------------------------------------------

TEST(BatchUnit, ScanEmitsEncodedBatchesFromCatalogEncoding) {
  Relation r = Relation::Parse("a, b", "1,10; 2,20; 3,30; 4,40; 5,50");
  Catalog catalog;
  catalog.Put("t", r);
  TableEncodingPtr encoding = catalog.Encoding("t");
  ASSERT_NE(encoding, nullptr);
  EXPECT_EQ(encoding->rows, r.size());

  ScopedBatchRows two(2);
  RelationScan scan(BorrowRelation(catalog.Get("t")), encoding);
  scan.Open();
  Batch batch;
  size_t total = 0;
  while (scan.NextBatch(&batch)) {
    EXPECT_FALSE(batch.row_mode());
    ASSERT_EQ(batch.num_columns(), 2u);
    EXPECT_NE(batch.EncodedColumn(0), nullptr);
    EXPECT_LE(batch.ActiveRows(), 2u);
    for (size_t i = 0; i < batch.ActiveRows(); ++i) {
      uint32_t row = batch.RowAt(i);
      EXPECT_EQ(batch.At(row, 0), r.tuples()[total + row][0]);
    }
    total += batch.ActiveRows();
  }
  scan.Close();
  EXPECT_EQ(total, r.size());
  EXPECT_EQ(scan.rows_produced(), r.size());
}

TEST(BatchUnit, CatalogEncodingIsCachedAndInvalidatedByPut) {
  Catalog catalog;
  catalog.Put("t", Relation::Parse("a", "1; 2; 3"));
  TableEncodingPtr first = catalog.Encoding("t");
  EXPECT_EQ(catalog.Encoding("t").get(), first.get()) << "second request must hit the cache";
  catalog.Put("t", Relation::Parse("a", "4; 5"));
  TableEncodingPtr second = catalog.Encoding("t");
  EXPECT_NE(second.get(), first.get()) << "Put must invalidate the cached encoding";
  EXPECT_EQ(second->rows, 2u);
  EXPECT_EQ(first->rows, 3u) << "old encoding stays valid for holders of the shared_ptr";
}

TEST(BatchUnit, CrossProductEmitsBoundedColumnarBatches) {
  // One left row pairs with three right rows, so at two rows per batch
  // every left row spans two output batches; the encoded left column stays
  // encoded and rows are counted once, not per batch.
  Relation left = Relation::Parse("a", "1; 2; 3");
  Relation right = Relation::Parse("x", "7; 8; 9");
  ScopedBatchRows two(2);
  CrossProductIterator it(
      std::make_unique<RelationScan>(BorrowRelation(left), TableEncoding::Build(left)),
      std::make_unique<RelationScan>(BorrowRelation(right)));
  it.Open();
  Batch batch;
  std::vector<Tuple> rows;
  Tuple t;
  while (it.NextBatch(&batch)) {
    EXPECT_LE(batch.ActiveRows(), 2u);
    EXPECT_NE(batch.EncodedColumn(0), nullptr);
    EXPECT_EQ(batch.EncodedColumn(1), nullptr);
    for (size_t i = 0; i < batch.ActiveRows(); ++i) {
      batch.ToTuple(batch.RowAt(i), &t);
      rows.push_back(t);
    }
  }
  it.Close();
  EXPECT_EQ(Relation(it.schema(), std::move(rows)), Product(left, right));
  EXPECT_EQ(it.rows_produced(), 9u);
}

TEST(BatchUnit, SelectionVectorSurvivesPassThroughOperators) {
  // Filter marks survivors via selection; Rename forwards the batch as-is.
  Catalog catalog;
  catalog.Put("t", Relation::Parse("a, b", "1,1; 2,2; 3,3; 4,4"));
  PlanPtr plan = LogicalOp::Rename(
      LogicalOp::Select(LogicalOp::Scan(catalog, "t"), Expr::ColCmp("a", CmpOp::kGt, V(2))),
      {{"a", "a2"}});
  Relation result = ExecutePlan(plan, catalog);
  EXPECT_EQ(result, Relation::Parse("a2, b", "3,3; 4,4"));
}

TEST(BatchUnit, ExplainTreeCountsRowsNotBatches) {
  Catalog catalog = SuppliersCatalog();
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"),
                                   LogicalOp::Scan(catalog, "r2"));
  ScopedBatchRows seven(7);
  ExecProfile profile;
  Relation result = ExecutePlan(plan, catalog, {}, &profile);
  size_t scans_total = catalog.Get("r1").size() + catalog.Get("r2").size();
  EXPECT_EQ(profile.total_rows, scans_total + result.size())
      << profile.explain;
}

// --- × and nested-loop join batch kernels -----------------------------------

/// Runs `plan` at threads {1, 4} and batch sizes small enough that right
/// sides and per-left-row outputs span several batches; every result must
/// equal plan::Evaluate, and the physical plan must contain `op`.
void ExpectPairKernelMatches(const PlanPtr& plan, const Catalog& catalog, const char* op) {
  const Relation reference = Evaluate(plan, catalog);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ScopedExecThreads scoped_threads(threads);
    for (size_t batch_rows : {size_t{1}, size_t{2}, size_t{3}, size_t{1024}}) {
      ScopedBatchRows scoped_batches(batch_rows);
      ExecProfile profile;
      Relation result = ExecutePlan(plan, catalog, {}, &profile);
      EXPECT_EQ(result, reference) << "threads=" << threads << " batch_rows=" << batch_rows
                                   << "\n" << profile.explain;
      EXPECT_NE(profile.explain.find(op), std::string::npos) << profile.explain;
    }
  }
}

Catalog PairCatalog() {
  Catalog catalog;
  catalog.Put("l", Relation::Parse("a, b", "1,1; 2,4; 3,9; 4,16; 5,25"));
  catalog.Put("r", Relation::Parse("x, y:string", "1,p; 2,q; 3,r; 5,s; 8,t; 13,u; 21,v"));
  catalog.Put("empty_l", Relation(Schema::Parse("a, b")));
  catalog.Put("empty_r", Relation(Schema::Parse("x, y:string")));
  return catalog;
}

/// θ without any cross-side equality: the planner keeps a nested loop.
ExprPtr Residual() {
  return Expr::Compare(CmpOp::kLt, Expr::Column("a"), Expr::Column("x"));
}

TEST(PairKernel, EmptyLeftAndEmptyRight) {
  Catalog catalog = PairCatalog();
  PlanPtr l = LogicalOp::Scan(catalog, "l");
  PlanPtr r = LogicalOp::Scan(catalog, "r");
  PlanPtr empty_l = LogicalOp::Scan(catalog, "empty_l");
  PlanPtr empty_r = LogicalOp::Scan(catalog, "empty_r");
  ExpectPairKernelMatches(LogicalOp::Product(empty_l, r), catalog, "CrossProduct");
  ExpectPairKernelMatches(LogicalOp::Product(l, empty_r), catalog, "CrossProduct");
  ExpectPairKernelMatches(LogicalOp::ThetaJoin(empty_l, r, Residual()), catalog,
                          "NestedLoopJoin");
  ExpectPairKernelMatches(LogicalOp::ThetaJoin(l, empty_r, Residual()), catalog,
                          "NestedLoopJoin");
}

TEST(PairKernel, RightSideAndPerLeftRowOutputSpanBatches) {
  // Seven right rows: at batch sizes 1-3 the right drain spans several
  // batches, and each left row's output exceeds GetBatchRows(), so the
  // resume cursor carries one left row across output batches.
  Catalog catalog = PairCatalog();
  PlanPtr l = LogicalOp::Scan(catalog, "l");
  PlanPtr r = LogicalOp::Scan(catalog, "r");
  ExpectPairKernelMatches(LogicalOp::Product(l, r), catalog, "CrossProduct");
  ExpectPairKernelMatches(LogicalOp::ThetaJoin(l, r, Residual()), catalog, "NestedLoopJoin");
}

TEST(PairKernel, EncodedAndRowViewInputs) {
  // Scans are encoded (catalog dictionaries); Values nodes scan as row
  // views. Cover every pairing of the two layouts.
  Catalog catalog = PairCatalog();
  PlanPtr l = LogicalOp::Scan(catalog, "l");
  PlanPtr r = LogicalOp::Scan(catalog, "r");
  PlanPtr l_rows = LogicalOp::Values(catalog.Get("l"), "l_rows");
  PlanPtr r_rows = LogicalOp::Values(catalog.Get("r"), "r_rows");
  for (const auto& [left, right] : std::vector<std::pair<PlanPtr, PlanPtr>>{
           {l, r}, {l_rows, r}, {l, r_rows}, {l_rows, r_rows}}) {
    ExpectPairKernelMatches(LogicalOp::Product(left, right), catalog, "CrossProduct");
    ExpectPairKernelMatches(LogicalOp::ThetaJoin(left, right, Residual()), catalog,
                            "NestedLoopJoin");
  }
  // A filtered left side arrives with a selection vector.
  PlanPtr filtered = LogicalOp::Select(l, Expr::ColCmp("b", CmpOp::kGe, V(4)));
  ExpectPairKernelMatches(LogicalOp::Product(filtered, r), catalog, "CrossProduct");
  ExpectPairKernelMatches(LogicalOp::ThetaJoin(filtered, r, Residual()), catalog,
                          "NestedLoopJoin");
}

TEST(PairKernel, NestedLoopResidualPredicates) {
  Catalog catalog = PairCatalog();
  PlanPtr l = LogicalOp::Scan(catalog, "l");
  PlanPtr r = LogicalOp::Scan(catalog, "r");
  // Cross-side arithmetic, a disjunction, and a condition no pair meets.
  ExpectPairKernelMatches(
      LogicalOp::ThetaJoin(
          l, r,
          Expr::Compare(CmpOp::kGe, Expr::Column("b"),
                        Expr::Arith(Expr::Kind::kMul, Expr::Column("x"), Expr::Literal(V(2))))),
      catalog, "NestedLoopJoin");
  ExpectPairKernelMatches(
      LogicalOp::ThetaJoin(l, r,
                           Expr::Or(Expr::Compare(CmpOp::kGt, Expr::Column("a"),
                                                  Expr::Column("x")),
                                    Expr::ColCmp("y", CmpOp::kEq, V("t")))),
      catalog, "NestedLoopJoin");
  ExpectPairKernelMatches(
      LogicalOp::ThetaJoin(l, r,
                           Expr::Compare(CmpOp::kGt, Expr::Column("a"), Expr::Column("b"))),
      catalog, "NestedLoopJoin");
}

}  // namespace
}  // namespace quotient
