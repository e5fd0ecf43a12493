// Morsel-driven parallel execution (docs/parallel_execution.md) must be
// invisible in results: these property tests run the same physical plans
// at threads ∈ {1, 2, 3, 8} — with morsels shrunk so even small fixtures
// split into many chunks — and require the relation plan::Evaluate computes
// (the reference algebra) AND per-operator row accounting identical to the
// single-threaded run. Only a clustered division's dividend drain fans out;
// its chunk-ordered merge makes this exact, not just set-equal: Relation
// equality is tuple-order-sensitive. Every other drain runs serially at
// any thread count, which these tests pin too.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "algebra/divide.hpp"
#include "algebra/generator.hpp"
#include "algebra/ops.hpp"
#include "core/engine.hpp"
#include "exec/batch.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_divide.hpp"
#include "exec/pipeline.hpp"
#include "exec/scheduler.hpp"
#include "opt/planner.hpp"
#include "paper_fixtures.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

const size_t kThreadCounts[] = {1, 2, 3, 8};

/// Runs `plan` at every thread count with small morsels and batches. Each
/// result must equal plan::Evaluate, and the plan-wide row accounting must
/// match the single-threaded run exactly.
void ExpectParallelAgreement(const PlanPtr& plan, const Catalog& catalog,
                             size_t batch_rows = 128, size_t morsel_rows = 16) {
  const Relation reference = Evaluate(plan, catalog);
  ScopedMorselRows morsels(morsel_rows);
  ScopedBatchRows batches(batch_rows);
  ExecProfile serial_profile;
  for (size_t threads : kThreadCounts) {
    ScopedExecThreads scoped(threads);
    ExecProfile profile;
    Relation result = ExecutePlan(plan, catalog, {}, &profile);
    EXPECT_EQ(result, reference) << "threads=" << threads;
    if (threads == 1) {
      serial_profile = profile;
      continue;
    }
    EXPECT_EQ(profile.total_rows, serial_profile.total_rows)
        << "rows_produced accounting diverged at threads=" << threads << "\nthreads=1:\n"
        << serial_profile.explain << "threads=" << threads << ":\n"
        << profile.explain;
    EXPECT_EQ(profile.max_rows, serial_profile.max_rows) << "threads=" << threads;
  }
}

Catalog WorkloadCatalog() {
  Catalog catalog;
  // Paper fixtures (Laws 1-16 operate over these shapes).
  catalog.Put("fig1_r1", paper::Fig1Dividend());
  catalog.Put("fig1_r2", paper::Fig1Divisor());
  catalog.Put("fig4_r1", paper::Fig4Dividend());
  catalog.Put("fig4_r2", paper::Fig4Divisor());
  catalog.Put("fig2_r2", paper::Fig2Divisor());
  // Generated workloads large enough to split into many morsels.
  DataGen gen(0x9A7A11E1);
  catalog.Put("r1", gen.Dividend(/*groups=*/60, /*domain=*/32, /*density=*/0.4));
  catalog.Put("r2", gen.Divisor(/*size=*/10, /*domain=*/32));
  catalog.Put("gd", gen.GreatDivisor(/*groups=*/7, /*domain=*/32, /*density=*/0.25));
  catalog.Put("spj", Relation::Parse("s, p", "1,1; 1,2; 1,3; 2,1; 2,3; 3,2; 3,3; 4,1"));
  // Non-clustered twins: with B first, A is not a key prefix, so divisions
  // over these keep the candidate-matrix path and its probe sinks.
  catalog.Put("fig1_r1_bfirst", paper::Fig1Dividend().Reorder({"b", "a"}));
  catalog.Put("r1_bfirst", catalog.Get("r1").Reorder({"b", "a"}));
  return catalog;
}

TEST(ParallelExecProperty, DivisionAllThreadCounts) {
  Catalog catalog = WorkloadCatalog();
  for (const char* dividend : {"fig1_r1", "r1", "fig1_r1_bfirst", "r1_bfirst"}) {
    for (const char* divisor : {"fig1_r2", "r2"}) {
      PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, dividend),
                                       LogicalOp::Scan(catalog, divisor));
      ExpectParallelAgreement(plan, catalog, /*batch_rows=*/3, /*morsel_rows=*/4);
    }
  }
}

TEST(ParallelExecProperty, GreatDivideAllThreadCounts) {
  Catalog catalog = WorkloadCatalog();
  for (const char* dividend : {"r1", "r1_bfirst"}) {
    PlanPtr plan = LogicalOp::GreatDivide(LogicalOp::Scan(catalog, dividend),
                                          LogicalOp::Scan(catalog, "gd"));
    ExpectParallelAgreement(plan, catalog, /*batch_rows=*/3, /*morsel_rows=*/2);
  }
}

TEST(ParallelExecProperty, FilteredDividendAllThreadCounts) {
  // A filter between scan and division makes the pipeline source
  // non-splittable, so the dividend drains serially at every thread count.
  // The clustered dividend feeds the run sink through the filter; the
  // B-first twin feeds the candidate-matrix path's probe sink.
  Catalog catalog = WorkloadCatalog();
  catalog.Put("r1_big", DataGen(0xB16).Dividend(/*groups=*/400, /*domain=*/32, 0.4));
  catalog.Put("r1_big_bfirst", catalog.Get("r1_big").Reorder({"b", "a"}));
  ExprPtr predicate = Expr::And(Expr::ColCmp("b", CmpOp::kLt, V(24)),
                                Expr::Compare(CmpOp::kNe, Expr::Column("a"), Expr::Column("b")));
  for (const char* dividend : {"r1_big", "r1_big_bfirst"}) {
    SCOPED_TRACE(dividend);
    PlanPtr plan = LogicalOp::Divide(
        LogicalOp::Select(LogicalOp::Scan(catalog, dividend), predicate),
        LogicalOp::Scan(catalog, "r2"));
    ExpectParallelAgreement(plan, catalog, /*batch_rows=*/4, /*morsel_rows=*/1);
  }
}

TEST(ParallelExecProperty, RenameChainStaysSplittable) {
  // ρ over a scan is morsel-splittable; the bypassed chain must still be
  // credited with exact row counts.
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::NaturalJoin(
      LogicalOp::Scan(catalog, "r1"),
      LogicalOp::Rename(LogicalOp::Scan(catalog, "spj"), {{"s", "a"}, {"p", "x"}}));
  ExpectParallelAgreement(plan, catalog, /*batch_rows=*/3, /*morsel_rows=*/4);
}

TEST(ParallelExecProperty, JoinsAllThreadCounts) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr spj = LogicalOp::Scan(catalog, "spj");
  ExpectParallelAgreement(
      LogicalOp::ThetaJoin(spj, LogicalOp::Rename(spj, {{"s", "s2"}, {"p", "p2"}}),
                           Expr::ColEqCol("p", "p2")),
      catalog, /*batch_rows=*/3, /*morsel_rows=*/4);
  ExpectParallelAgreement(LogicalOp::SemiJoin(r1, LogicalOp::Scan(catalog, "r2")), catalog,
                          /*batch_rows=*/16, /*morsel_rows=*/8);
  ExpectParallelAgreement(LogicalOp::AntiJoin(r1, LogicalOp::Scan(catalog, "r2")), catalog,
                          /*batch_rows=*/16, /*morsel_rows=*/8);
  // Build sides that would clear the fan-out break-even at four-row
  // morsels if the join-build and semi-join sinks fanned out.
  PlanPtr r1_renamed = LogicalOp::Rename(r1, {{"a", "a2"}, {"b", "b2"}});
  ExpectParallelAgreement(LogicalOp::ThetaJoin(r1, r1_renamed, Expr::ColEqCol("b", "b2")),
                          catalog, /*batch_rows=*/4, /*morsel_rows=*/4);
  ExpectParallelAgreement(LogicalOp::SemiJoin(LogicalOp::Scan(catalog, "r2"), r1), catalog,
                          /*batch_rows=*/4, /*morsel_rows=*/4);
}

TEST(ParallelExecProperty, GroupByAggregates) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::GroupBy(
      LogicalOp::Scan(catalog, "r1"), {"a"},
      {{AggFunc::kCount, "", "n"},
       {AggFunc::kSum, "b", "sum_b"},
       {AggFunc::kMin, "b", "min_b"},
       {AggFunc::kMax, "b", "max_b"},
       {AggFunc::kAvg, "b", "avg_b"}});
  ExpectParallelAgreement(plan, catalog, /*batch_rows=*/3, /*morsel_rows=*/2);
  // Global aggregate: one output row regardless of chunking.
  ExpectParallelAgreement(
      LogicalOp::GroupBy(LogicalOp::Scan(catalog, "r1"), {}, {{AggFunc::kCount, "", "n"}}),
      catalog, /*batch_rows=*/3, /*morsel_rows=*/2);
}

TEST(ParallelExecProperty, SetOperationsAndHealyExpansion) {
  Catalog catalog = WorkloadCatalog();
  DataGen gen(0x5E7);
  catalog.Put("r1b", gen.Dividend(30, 32, 0.3));
  PlanPtr left = LogicalOp::Scan(catalog, "r1");
  PlanPtr right = LogicalOp::Project(LogicalOp::Scan(catalog, "r1b"), {"b", "a"});
  ExpectParallelAgreement(LogicalOp::Union(left, right), catalog);
  ExpectParallelAgreement(LogicalOp::Intersect(left, right), catalog);
  ExpectParallelAgreement(LogicalOp::Difference(left, right), catalog);
  // Healy's basic-algebra expansion stacks ×, − and π over the pipelines.
  PlanPtr divide = LogicalOp::Divide(LogicalOp::Scan(catalog, "fig1_r1"),
                                     LogicalOp::Scan(catalog, "fig1_r2"));
  RewriteEngine expand;
  expand.Add(MakeDivideToHealyExpansionRule());
  PlanPtr healy = expand.Rewrite(divide, RewriteContext{&catalog, false});
  ASSERT_EQ(healy->ToString().find("Divide "), std::string::npos);
  ASSERT_EQ(Evaluate(healy, catalog), Evaluate(divide, catalog));
  ExpectParallelAgreement(healy, catalog, /*batch_rows=*/3, /*morsel_rows=*/4);
}

TEST(ParallelExecProperty, EmptyInputsEverywhere) {
  Catalog catalog;
  catalog.Put("empty_ab", Relation(Schema::Parse("a, b")));
  catalog.Put("empty_b", Relation(Schema::Parse("b")));
  catalog.Put("r1", Relation::Parse("a, b", "1,1; 1,2; 2,1"));
  catalog.Put("r2", Relation::Parse("b", "1; 2"));
  PlanPtr empty_ab = LogicalOp::Scan(catalog, "empty_ab");
  PlanPtr empty_b = LogicalOp::Scan(catalog, "empty_b");
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr r2 = LogicalOp::Scan(catalog, "r2");
  ExpectParallelAgreement(LogicalOp::Divide(empty_ab, r2), catalog, 2, 2);
  ExpectParallelAgreement(LogicalOp::Divide(r1, empty_b), catalog, 2, 2);
  ExpectParallelAgreement(LogicalOp::NaturalJoin(r1, empty_ab), catalog, 2, 2);
  ExpectParallelAgreement(LogicalOp::GroupBy(empty_ab, {"a"}, {{AggFunc::kCount, "", "n"}}),
                          catalog, 2, 2);
}

TEST(ParallelExecProperty, StringKeysAndSpillPath) {
  DataGen gen(0xABCD);
  Catalog catalog;
  catalog.Put("r1s", StringifyAttribute(gen.Dividend(40, 16, 0.4), "b"));
  catalog.Put("r2s", StringifyAttribute(gen.Divisor(5, 16), "b"));
  ExpectParallelAgreement(LogicalOp::Divide(LogicalOp::Scan(catalog, "r1s"),
                                            LogicalOp::Scan(catalog, "r2s")),
                          catalog, /*batch_rows=*/2, /*morsel_rows=*/2);

  // 18 wide B columns put the divisor keys past 64 bits into SmallByteKey
  // spill keys; the run sink's chunks must resolve those too.
  DataGen wide_gen(0x5B111);
  constexpr size_t kNumB = 18;
  Relation wide = wide_gen.DividendWide(/*groups=*/8, /*num_a=*/1, kNumB,
                                        /*domain=*/300, /*density=*/0.2);
  std::vector<size_t> b_idx;
  for (size_t i = 1; i <= kNumB; ++i) b_idx.push_back(i);
  std::vector<Tuple> divisor_rows;
  for (const Tuple& t : wide.tuples()) {
    if (wide_gen.Chance(0.2)) divisor_rows.push_back(ProjectTuple(t, b_idx));
  }
  std::vector<std::string> b_names;
  for (size_t i = 1; i <= kNumB; ++i) b_names.push_back("b" + std::to_string(i));
  catalog.Put("wide", wide);
  catalog.Put("wide_divisor", Relation(wide.schema().Project(b_names), std::move(divisor_rows)));
  // One-row morsels: the ~100-row divisor clears the break-even, yet its
  // key-numbering drain stays serial.
  ExpectParallelAgreement(LogicalOp::Divide(LogicalOp::Scan(catalog, "wide"),
                                            LogicalOp::Scan(catalog, "wide_divisor")),
                          catalog, /*batch_rows=*/1, /*morsel_rows=*/1);
}

TEST(ParallelExecProperty, RandomizedPlansAgainstOracle) {
  DataGen gen(0xF00D);
  for (int round = 0; round < 12; ++round) {
    Catalog catalog;
    catalog.Put("r1", gen.Dividend(gen.UniformInt(0, 16), gen.UniformInt(1, 10), 0.4));
    catalog.Put("r2", gen.Divisor(gen.UniformInt(0, 6), 10));
    PlanPtr plan = LogicalOp::Divide(
        LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                          Expr::ColCmp("a", CmpOp::kGe, V(gen.UniformInt(0, 3)))),
        LogicalOp::Scan(catalog, "r2"));
    ScopedBatchRows batches(static_cast<size_t>(gen.UniformInt(1, 32)));
    ScopedMorselRows morsels(static_cast<size_t>(gen.UniformInt(2, 32)));
    ScopedExecThreads threads(kThreadCounts[round % 4]);
    EXPECT_EQ(ExecutePlan(plan, catalog), Evaluate(plan, catalog)) << "round " << round;
  }
}

// --- executor unit tests ----------------------------------------------------

TEST(ParallelExecUnit, ExplainReportsDegreeOfParallelism) {
  Catalog catalog = WorkloadCatalog();
  // Four-row morsels: the ~770-row inputs clear the fan-out break-even.
  ScopedMorselRows morsels(4);
  ScopedBatchRows batches(4);
  ScopedExecThreads threads(4);
  // ÷ and ÷* over a clustered dividend: their run sinks fan out.
  for (const PlanPtr& plan :
       {LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"), LogicalOp::Scan(catalog, "r2")),
        LogicalOp::GreatDivide(LogicalOp::Scan(catalog, "r1"), LogicalOp::Scan(catalog, "gd"))}) {
    ExecProfile profile;
    ExecutePlan(plan, catalog, {}, &profile);
    EXPECT_GE(profile.max_dop, 2u) << profile.explain;
    EXPECT_NE(profile.explain.find("dop="), std::string::npos) << profile.explain;
    EXPECT_NE(profile.pipelines.find("pipeline 0"), std::string::npos) << profile.pipelines;
    EXPECT_NE(profile.pipelines.find("dop="), std::string::npos) << profile.pipelines;
  }
}

TEST(ParallelExecUnit, OtherSinksDrainSeriallyPastTheBreakEven) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr r2 = LogicalOp::Scan(catalog, "r2");
  // The same sizes that fan the run sink out above: the candidate-matrix
  // division over the B-first twin (keyer + probe sinks), a join build, a
  // semi-join build and a grouping drain all stay serial.
  ScopedMorselRows morsels(4);
  ScopedBatchRows batches(4);
  ScopedExecThreads threads(4);
  for (const PlanPtr& plan :
       {LogicalOp::Divide(LogicalOp::Scan(catalog, "r1_bfirst"), r2),
        LogicalOp::ThetaJoin(r2, LogicalOp::Rename(r1, {{"b", "b2"}}),
                             Expr::ColEqCol("b", "b2")),
        LogicalOp::SemiJoin(r2, r1),
        LogicalOp::GroupBy(r1, {"b"}, {{AggFunc::kCount, "", "n"}})}) {
    ExecProfile profile;
    EXPECT_EQ(ExecutePlan(plan, catalog, {}, &profile), Evaluate(plan, catalog));
    EXPECT_EQ(profile.max_dop, 1u) << profile.explain;
    EXPECT_NE(profile.explain.find("dop=1"), std::string::npos) << profile.explain;
  }
}

TEST(ParallelExecUnit, DopCountsEveryThreadThatClaimsChunks) {
  // 600 rows at 4-row morsels pay for two workers (one per 256 rows), cut
  // into ~4 chunks per worker; all four threads claim those chunks, so the
  // drain reports dop 4, not the worker cap.
  Catalog catalog;
  std::vector<Tuple> rows;
  for (int64_t a = 0; a < 60; ++a) {
    for (int64_t b = 0; b < 10; ++b) {
      if (a % 3 != 0 || b != 7) rows.push_back({V(a), V(b)});
    }
  }
  const size_t dividend_rows = rows.size();
  catalog.Put("r1", Relation::FromRows(Schema::Parse("a, b"), std::move(rows)));
  catalog.Put("r2", Relation::Parse("b", "1; 4; 7"));
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"), LogicalOp::Scan(catalog, "r2"));
  ScopedMorselRows morsels(4);
  ScopedBatchRows batches(4);
  ScopedExecThreads threads(4);
  PipelineChoice choice = ChoosePipeline(dividend_rows);
  ASSERT_EQ(choice.workers, 2u);
  ASSERT_GE((dividend_rows + choice.chunk_rows - 1) / choice.chunk_rows, 4u);
  ExecProfile profile;
  EXPECT_EQ(ExecutePlan(plan, catalog, {}, &profile), Evaluate(plan, catalog));
  EXPECT_EQ(profile.max_dop, 4u) << profile.explain;
  EXPECT_NE(profile.explain.find("dop=4"), std::string::npos) << profile.explain;
}

TEST(ParallelExecUnit, FanOutStartsAtTheBreakEven) {
  // One worker per 64 morsels of rows, capped at the thread count; the
  // morsel is the larger of the morsel and batch sizes.
  ScopedExecThreads threads(4);
  ScopedBatchRows batches(16);
  ScopedMorselRows morsels(8);  // below the batch size: the morsel is 16 rows
  constexpr size_t kWorkerRows = 64 * 16;
  EXPECT_EQ(ChoosePipeline(0).workers, 1u);
  EXPECT_EQ(ChoosePipeline(2 * kWorkerRows - 1).workers, 1u);
  EXPECT_EQ(ChoosePipeline(2 * kWorkerRows).workers, 2u);
  EXPECT_EQ(ChoosePipeline(3 * kWorkerRows).workers, 3u);
  EXPECT_EQ(ChoosePipeline(100 * kWorkerRows).workers, 4u);
  // About four chunks per worker, never below a morsel.
  EXPECT_EQ(ChoosePipeline(2 * kWorkerRows).chunk_rows, 2 * kWorkerRows / 8);
  EXPECT_EQ(ChoosePipeline(5).chunk_rows, 16u);
  ScopedExecThreads one(1);
  EXPECT_EQ(ChoosePipeline(100 * kWorkerRows).workers, 1u);
}

TEST(ParallelExecUnit, TinyInputDrainsSerially) {
  // Inputs below the fan-out break-even get a worker cap of one: the drains
  // run serially even with four threads, and EXPLAIN records dop 1.
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "fig1_r1"),
                                   LogicalOp::Scan(catalog, "fig1_r2"));
  ScopedExecThreads threads(4);
  ExecProfile profile;
  Relation result = ExecutePlan(plan, catalog, {}, &profile);
  EXPECT_EQ(result, paper::Fig1Quotient());
  EXPECT_EQ(profile.max_dop, 1u) << profile.explain;
  EXPECT_NE(profile.explain.find("dop=1"), std::string::npos) << profile.explain;
}

TEST(ParallelExecUnit, PipelineDecompositionSplitsAtBreakers) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Select(LogicalOp::Scan(catalog, "r1"), Expr::ColCmp("b", CmpOp::kLt, V(20))),
      LogicalOp::Scan(catalog, "r2"));
  IterPtr root = BuildPhysicalPlan(plan, catalog);
  std::vector<PipelineDesc> pipelines = DecomposePipelines(*root);
  // Dividend drain, divisor drain, and the root's own output pipeline.
  ASSERT_EQ(pipelines.size(), 3u);
  EXPECT_EQ(pipelines[0].sink, root.get());
  EXPECT_EQ(pipelines[1].sink, root.get());
  EXPECT_EQ(pipelines[2].sink, root.get());
  EXPECT_EQ(pipelines[2].ops.back(), root.get());  // output pipeline contains the root
}

TEST(ParallelExecUnit, CatalogEncodingSharedUnderConcurrentRequests) {
  Catalog catalog;
  DataGen gen(0xCAFE);
  catalog.Put("t", gen.Dividend(200, 64, 0.3));
  constexpr size_t kRequesters = 8;
  std::vector<TableEncodingPtr> seen(kRequesters);
  std::vector<std::thread> threads;
  threads.reserve(kRequesters);
  for (size_t i = 0; i < kRequesters; ++i) {
    threads.emplace_back([&, i] { seen[i] = catalog.Encoding("t"); });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 1; i < kRequesters; ++i) {
    EXPECT_EQ(seen[i].get(), seen[0].get()) << "request " << i << " built a duplicate encoding";
  }
  EXPECT_EQ(seen[0]->rows, catalog.Get("t").size());
}

TEST(ParallelExecUnit, NestedParallelForRunsInline) {
  // A task may itself start a parallel region (any code running under
  // ParallelFor that drains a pipeline). Nested regions must run inline —
  // both on pool workers and on the draining owner thread, where
  // re-acquiring the region mutex would deadlock.
  ScopedExecThreads threads(4);
  std::atomic<size_t> inner_runs{0};
  ParallelFor(8, [&](size_t) {
    ParallelFor(8, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 64u);
}

TEST(ParallelExecUnit, SchedulerRunsEveryTaskExactlyOnceAndPropagatesErrors) {
  for (size_t threads : kThreadCounts) {
    ScopedExecThreads scoped(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
  ScopedExecThreads scoped(4);
  EXPECT_THROW(
      ParallelFor(64, [](size_t i) { if (i == 13) throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The pool survives a throwing region.
  std::atomic<size_t> ran{0};
  ParallelFor(32, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32u);
}

TEST(ParallelExecUnit, BackToBackRegionsNeverLeakTasksAcrossRegions) {
  // Rapid consecutive regions: a worker waking late off an old region's
  // generation bump must find an invalidated job slot, never a dangling
  // function or the next region's counters.
  ScopedExecThreads threads(8);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> hits{0};
    size_t tasks = 2 + static_cast<size_t>(round % 7);
    ParallelFor(tasks, [&](size_t) { hits.fetch_add(1); });
    ASSERT_EQ(hits.load(), tasks) << "round " << round;
  }
}

}  // namespace
}  // namespace quotient
