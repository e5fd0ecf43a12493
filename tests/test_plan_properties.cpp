// Stream properties (exec/iterator.hpp): every physical operator derives
// its output's keys and clustering from its children's in its constructor.
// π reads them to deduplicate only where duplicates can exist
// (`dedup=pass`, `dedup=runs`, `dedup=ids` in EXPLAIN ANALYZE), and ÷/÷*
// to divide a dividend grouped on A run by run (`path=clustered`). These
// tests pin the derivation per operator kind, then check every claim
// against the rows each operator actually streams: no operator may emit a
// repeated row, no two rows may share a claimed key, and rows equal on a
// clustering prefix must arrive contiguously. The run path must emit the
// interned path's rows in its order at every batch size.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algebra/generator.hpp"
#include "algebra/ops.hpp"
#include "api/session.hpp"
#include "exec/batch.hpp"
#include "exec/iterator.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "opt/planner.hpp"
#include "paper_fixtures.hpp"
#include "plan/evaluate.hpp"
#include "sql/interp.hpp"

namespace quotient {
namespace {

using Keys = std::vector<std::vector<size_t>>;
using Columns = std::vector<size_t>;

const size_t kBatchSizes[] = {1, 3, 1024};

/// The rows `it` streams, in order (Open, drain, Close).
std::vector<Tuple> Drain(Iterator& it) {
  std::vector<Tuple> rows;
  it.Open();
  DrainRows(it, &rows);
  it.Close();
  return rows;
}

std::vector<Tuple> Stream(const PlanPtr& plan, const Catalog& catalog) {
  IterPtr root = BuildPhysicalPlan(plan, catalog);
  return Drain(*root);
}

std::vector<Iterator*> Operators(Iterator& root) {
  std::vector<Iterator*> all = {&root};
  for (size_t i = 0; i < all.size(); ++i) {
    for (Iterator* child : all[i]->InputIterators()) all.push_back(child);
  }
  return all;
}

Keys SortedKeys(const Iterator& it) {
  Keys keys = it.properties().keys;
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The dedup= notes of every π in `explain`, top down.
std::vector<std::string> DedupNotes(const std::string& explain) {
  std::vector<std::string> notes;
  for (size_t at = explain.find("dedup="); at != std::string::npos;
       at = explain.find("dedup=", at + 1)) {
    notes.push_back(explain.substr(at + 6, explain.find(' ', at) - at - 6));
  }
  return notes;
}

/// Drains every operator of `root` on its own and checks its stream
/// against its properties: no repeated row, no two rows sharing a key, and
/// each clustering prefix's equal values contiguous.
void ExpectPropertiesHold(Iterator& root) {
  for (Iterator* op : Operators(root)) {
    SCOPED_TRACE(std::string(op->name()) + " " + op->schema().ToString());
    const std::vector<Tuple> rows = Drain(*op);
    EXPECT_EQ(std::set<Tuple>(rows.begin(), rows.end()).size(), rows.size())
        << "repeated row";
    for (const Columns& key : op->properties().keys) {
      std::set<Tuple> seen;
      for (const Tuple& t : rows) EXPECT_TRUE(seen.insert(ProjectTuple(t, key)).second);
    }
    const Columns& clustering = op->properties().clustering;
    for (size_t k = 1; k <= clustering.size(); ++k) {
      Columns prefix(clustering.begin(), clustering.begin() + static_cast<ptrdiff_t>(k));
      std::set<Tuple> closed;
      for (size_t i = 0; i < rows.size(); ++i) {
        Tuple value = ProjectTuple(rows[i], prefix);
        if (i > 0 && value == ProjectTuple(rows[i - 1], prefix)) continue;
        EXPECT_TRUE(closed.insert(value).second) << "clustering prefix of " << k << " reopens";
      }
    }
  }
}

/// Builds `plan` and checks every operator (see ExpectPropertiesHold).
void ExpectPlanPropertiesHold(const PlanPtr& plan, const Catalog& catalog) {
  SCOPED_TRACE(plan->ToString());
  IterPtr root = BuildPhysicalPlan(plan, catalog);
  ExpectPropertiesHold(*root);
}

Catalog SuppliersParts() {
  Catalog catalog;
  catalog.Put("supplies", paper::SuppliesTable());
  catalog.Put("parts", paper::PartsTable());
  return catalog;
}

// ------------------------------------------------------------- derivation

TEST(PlanProperties, ScanFilterRenameAndProject) {
  Catalog catalog;
  catalog.Put("t", Relation::Parse("a, b, c", "1,1,1; 1,2,1; 2,1,3; 3,3,3"));
  PlanPtr scan = LogicalOp::Scan(catalog, "t");
  IterPtr it = BuildPhysicalPlan(scan, catalog);
  EXPECT_EQ(SortedKeys(*it), (Keys{{0, 1, 2}}));
  EXPECT_EQ(it->properties().clustering, (Columns{0, 1, 2}));

  for (const PlanPtr& same : {LogicalOp::Select(scan, Expr::ColCmp("b", CmpOp::kGt, V(1))),
                              LogicalOp::Rename(scan, {{"a", "x"}, {"c", "y"}})}) {
    SCOPED_TRACE(same->ToString());
    IterPtr kept = BuildPhysicalPlan(same, catalog);
    EXPECT_EQ(SortedKeys(*kept), (Keys{{0, 1, 2}}));
    EXPECT_EQ(kept->properties().clustering, (Columns{0, 1, 2}));
  }

  struct Case {
    std::vector<std::string> columns;
    Keys keys;
    Columns clustering;
    const char* note;
  };
  const Case cases[] = {
      // Dropping b cuts the clustering after a; (a, c) is no prefix.
      {{"a", "c"}, {{0, 1}}, {0}, "dedup=ids"},
      {{"a"}, {{0}}, {0}, "dedup=runs"},
      // Reordered prefix: still grouped on {a, b}.
      {{"b", "a"}, {{0, 1}}, {1, 0}, "dedup=runs"},
      // Every column, reordered: t's key, so rows pass through.
      {{"c", "a", "b"}, {{0, 1, 2}}, {1, 2, 0}, "dedup=pass"},
      {{"a", "b", "c"}, {{0, 1, 2}}, {0, 1, 2}, "dedup=pass"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.note);
    IterPtr project = BuildPhysicalPlan(LogicalOp::Project(scan, c.columns), catalog);
    EXPECT_EQ(SortedKeys(*project), c.keys);
    EXPECT_EQ(project->properties().clustering, c.clustering);
    EXPECT_STREQ(project->ExplainNote(), c.note);
  }

  // A declared key joins the scan's keys, and a π keeping it passes.
  catalog.DeclareKey("t", {"b", "a"});
  IterPtr declared = BuildPhysicalPlan(LogicalOp::Scan(catalog, "t"), catalog);
  EXPECT_EQ(SortedKeys(*declared), (Keys{{0, 1}, {0, 1, 2}}));
  IterPtr project = BuildPhysicalPlan(LogicalOp::Project(LogicalOp::Scan(catalog, "t"),
                                                         {"b", "a"}), catalog);
  EXPECT_STREQ(project->ExplainNote(), "dedup=pass");
}

TEST(PlanProperties, JoinsKeepTheProbeSideClustering) {
  Catalog catalog = SuppliersParts();
  PlanPtr supplies = LogicalOp::Scan(catalog, "supplies");  // (s#, p#)
  PlanPtr parts = LogicalOp::Scan(catalog, "parts");        // (p#, color)

  // No side's join columns hold one of its keys: only the full set.
  IterPtr plain = BuildPhysicalPlan(LogicalOp::NaturalJoin(supplies, parts), catalog);
  EXPECT_EQ(plain->schema().ToString(), "(s#:int, p#:int, color:string)");
  EXPECT_EQ(SortedKeys(*plain), (Keys{{0, 1, 2}}));
  EXPECT_EQ(plain->properties().clustering, (Columns{0, 1}));

  catalog.DeclareKey("parts", {"p#"});
  supplies = LogicalOp::Scan(catalog, "supplies");
  parts = LogicalOp::Scan(catalog, "parts");
  // Probe side supplies: parts' p# is a key, so each supplies row meets at
  // most one part and supplies' key stays a key.
  IterPtr probe = BuildPhysicalPlan(LogicalOp::NaturalJoin(supplies, parts), catalog);
  EXPECT_EQ(SortedKeys(*probe), (Keys{{0, 1}, {0, 1, 2}}));
  EXPECT_EQ(probe->properties().clustering, (Columns{0, 1}));
  // Build side supplies: the probe's p# is a key, so the build side's key
  // (s#, p#) stays one, its p# read from the probe's equal column 0. A part
  // meets many supplies rows, so the probe's keys do not stay keys.
  IterPtr build = BuildPhysicalPlan(LogicalOp::NaturalJoin(parts, supplies), catalog);
  EXPECT_EQ(build->schema().ToString(), "(p#:int, color:string, s#:int)");
  EXPECT_EQ(SortedKeys(*build), (Keys{{0, 1, 2}, {0, 2}}));
  EXPECT_EQ(build->properties().clustering, (Columns{0, 1}));

  // ⋉, ▷, ∩ and − keep the left stream's properties; ∪ keeps only the
  // full set; × keeps the left clustering.
  PlanPtr blue = LogicalOp::Project(
      LogicalOp::Select(parts, Expr::ColCmp("color", CmpOp::kEq, V("blue"))), {"p#"});
  for (const PlanPtr& left_subset :
       {LogicalOp::SemiJoin(supplies, blue), LogicalOp::AntiJoin(supplies, blue),
        LogicalOp::Intersect(supplies, supplies), LogicalOp::Difference(supplies, supplies)}) {
    SCOPED_TRACE(left_subset->ToString());
    IterPtr it = BuildPhysicalPlan(left_subset, catalog);
    EXPECT_EQ(SortedKeys(*it), (Keys{{0, 1}}));
    EXPECT_EQ(it->properties().clustering, (Columns{0, 1}));
  }
  IterPtr unioned = BuildPhysicalPlan(LogicalOp::Union(supplies, supplies), catalog);
  EXPECT_EQ(SortedKeys(*unioned), (Keys{{0, 1}}));
  EXPECT_TRUE(unioned->properties().clustering.empty());
  IterPtr product = BuildPhysicalPlan(
      LogicalOp::Product(supplies, LogicalOp::Rename(parts, {{"p#", "q#"}})), catalog);
  EXPECT_EQ(SortedKeys(*product), (Keys{{0, 1, 2, 3}}));
  EXPECT_EQ(product->properties().clustering, (Columns{0, 1}));
}

TEST(PlanProperties, DivisionAndGroupingKeys) {
  Catalog catalog = SuppliersParts();
  PlanPtr supplies = LogicalOp::Scan(catalog, "supplies");
  PlanPtr parts = LogicalOp::Scan(catalog, "parts");
  IterPtr divide =
      BuildPhysicalPlan(LogicalOp::Divide(supplies, LogicalOp::Project(parts, {"p#"})), catalog);
  EXPECT_EQ(SortedKeys(*divide), (Keys{{0}}));
  IterPtr great = BuildPhysicalPlan(LogicalOp::GreatDivide(supplies, parts), catalog);
  EXPECT_EQ(SortedKeys(*great), (Keys{{0, 1}}));

  IterPtr grouped = BuildPhysicalPlan(
      LogicalOp::GroupBy(supplies, {"s#"}, {{AggFunc::kCount, "p#", "n"}}), catalog);
  EXPECT_EQ(SortedKeys(*grouped), (Keys{{0}, {0, 1}}));
  // A global aggregate has at most one row: the empty key.
  PlanPtr global = LogicalOp::GroupBy(supplies, {}, {{AggFunc::kCount, "p#", "n"}});
  EXPECT_EQ(SortedKeys(*BuildPhysicalPlan(global, catalog)), (Keys{{}, {0}}));
  IterPtr over_global = BuildPhysicalPlan(LogicalOp::Project(global, {"n"}), catalog);
  EXPECT_STREQ(over_global->ExplainNote(), "dedup=pass");
}

TEST(PlanProperties, SemiJoinDividendTakesTheClusteredPath) {
  // σ-free but not ρ-over-scan: the dividend is a ⋉ over a scan, still
  // grouped on s#, so ÷ and ÷* divide it run by run. Its twin behind an
  // empty ∪ keeps the row order and claims no clustering: the matrix path.
  Catalog catalog = SuppliersParts();
  PlanPtr supplies = LogicalOp::Scan(catalog, "supplies");
  PlanPtr parts = LogicalOp::Scan(catalog, "parts");
  PlanPtr some = LogicalOp::Project(
      LogicalOp::Select(parts, Expr::ColCmp("p#", CmpOp::kLe, V(3))), {"p#"});
  PlanPtr dividend = LogicalOp::SemiJoin(supplies, some);
  PlanPtr twin =
      LogicalOp::Union(dividend, LogicalOp::Values(Relation(dividend->schema())));
  for (bool great : {false, true}) {
    SCOPED_TRACE(great ? "great divide" : "small divide");
    auto divide = [&](const PlanPtr& r1) {
      return great ? LogicalOp::GreatDivide(r1, parts)
                   : LogicalOp::Divide(r1, LogicalOp::Project(parts, {"p#"}));
    };
    const Relation reference = Evaluate(divide(dividend), catalog);
    std::vector<Tuple> matrix_stream;
    {
      ScopedExecThreads serial(1);
      matrix_stream = Stream(divide(twin), catalog);
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ScopedExecThreads scoped(threads);
      for (size_t batch_rows : kBatchSizes) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch_rows));
        ScopedBatchRows batches(batch_rows);
        QueryContext ctx;
        ExecProfile profile;
        EXPECT_EQ(ExecutePlan(divide(dividend), catalog, {}, &profile, &ctx), reference);
        EXPECT_NE(profile.explain.find("path=clustered"), std::string::npos) << profile.explain;
        EXPECT_EQ(Stream(divide(dividend), catalog), matrix_stream);
        IterPtr twin_root = BuildPhysicalPlan(divide(twin), catalog);
        EXPECT_STREQ(twin_root->ExplainNote(), "path=matrix");
      }
    }
  }
}

// ------------------------------------------------------------ invariants

/// SQL over the paper's tables, the interpreter corpus's and randomized
/// suppliers/parts, in the shapes of the SessionDifferential suite, plus a
/// table holding both 0.0 and -0.0.
std::vector<std::pair<Catalog, std::vector<std::string>>> SqlCorpus() {
  std::vector<std::pair<Catalog, std::vector<std::string>>> corpus;
  const std::vector<std::string> suppliers_parts = {
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#",
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
      "AS p ON s.p# = p.p#",
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE color = 'red'",
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE color = 'blue' AND s# > 1",
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
      "AS p ON s.p# = p.p# WHERE s# > 1",
      "SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= 2",
      "SELECT color FROM parts GROUP BY color HAVING COUNT(p#) >= 2",
      "SELECT s#, COUNT(p#) AS n FROM supplies GROUP BY s# HAVING COUNT(p#) >= 2",
      "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
      "color = 'blue')",
      "SELECT DISTINCT s# FROM supplies WHERE p# NOT IN (SELECT p# FROM parts WHERE "
      "color = 'blue')",
      "SELECT DISTINCT s1.s# FROM supplies AS s1 WHERE EXISTS (SELECT * FROM supplies AS s2 "
      "WHERE s2.p# = s1.p# AND s2.s# > 1)",
      "SELECT * FROM supplies",
      "SELECT p# FROM supplies",
      "SELECT * FROM supplies AS s, parts AS p",
      "SELECT s.s#, p.color FROM supplies AS s, parts AS p WHERE s.p# = p.p#",
      "SELECT COUNT(*) AS n, MIN(p#) AS lo, MAX(p#) AS hi FROM supplies",
      "SELECT COUNT(*) AS n FROM supplies WHERE s# > 99",
  };
  corpus.emplace_back(SuppliersParts(), suppliers_parts);
  Catalog keyed = SuppliersParts();
  keyed.DeclareKey("parts", {"p#"});
  corpus.emplace_back(keyed, suppliers_parts);

  Catalog interp;
  interp.Put("t", Relation::Parse("a, b", "1,10; 2,20; 3,30"));
  interp.Put("u", Relation::Parse("a, c", "1,100; 3,300"));
  interp.Put("r1", Relation::Parse("a, b", "1,1; 1,2; 2,1"));
  interp.Put("r2", Relation::Parse("b", "1; 2"));
  interp.Put("empty", Relation(Schema::Parse("b")));
  corpus.emplace_back(interp, std::vector<std::string>{
      "SELECT * FROM t, u",
      "SELECT t.a, u.a AS ua FROM t, u WHERE t.a = u.a",
      "SELECT a FROM t WHERE b / 10 = a * 1.0",
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a)",
      "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = t.a)",
      "SELECT q.a FROM (SELECT a FROM t WHERE b >= 20) AS q WHERE q.a < 3",
      "SELECT COUNT(*) AS n, SUM(b) AS s, MIN(a) AS lo, MAX(a) AS hi, AVG(b) AS m FROM t",
      "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b",
      "SELECT a FROM r1 DIVIDE BY empty ON r1.b = empty.b",
      "SELECT b FROM r1",
      "SELECT a FROM t WHERE a NOT IN (SELECT a FROM u)",
      "SELECT b, COUNT(a) AS n FROM r1 GROUP BY b",
      "SELECT a, b FROM t WHERE a = 2 OR b = 30",
  });

  Catalog zeros;
  zeros.Put("z", Relation(Schema::Parse("a:real, b:int"),
                          {{V(0.0), V(1)}, {V(-0.0), V(2)}, {V(0.0), V(3)}, {V(1.5), V(1)}}));
  corpus.emplace_back(zeros, std::vector<std::string>{
      "SELECT DISTINCT a FROM z",
      "SELECT DISTINCT b, a FROM z",
      "SELECT DISTINCT b FROM z",
      "SELECT a, COUNT(b) AS n FROM z GROUP BY a",
      "SELECT DISTINCT a FROM z WHERE b IN (SELECT b FROM z WHERE a = 0.0)",
  });

  DataGen gen(4242);
  for (int round = 0; round < 4; ++round) {
    Catalog random;
    std::vector<Tuple> supplies;
    for (int64_t s = 1; s <= 5; ++s) {
      for (int64_t p = 1; p <= 6; ++p) {
        if (gen.Chance(0.45)) supplies.push_back({V(s), V(p)});
      }
    }
    std::vector<Tuple> parts;
    for (int64_t p = 1; p <= 6; ++p) parts.push_back({V(p), V(gen.Chance(0.5) ? "blue" : "red")});
    random.Put("supplies", Relation(Schema::Parse("s#, p#"), supplies));
    random.Put("parts", Relation(Schema::Parse("p#:int, color:string"), parts));
    corpus.emplace_back(random, suppliers_parts);
  }
  return corpus;
}

TEST(PlanProperties, EveryOperatorOfTheSqlCorpusHoldsItsProperties) {
  for (const auto& [catalog, queries] : SqlCorpus()) {
    Session session;
    for (const std::string& name : catalog.Names()) {
      ASSERT_TRUE(session.CreateTable(name, catalog.Get(name)).ok());
    }
    for (const std::string& query : queries) {
      SCOPED_TRACE(query);
      Result<QueryResult> result = session.Execute(query);
      ASSERT_TRUE(result.ok()) << result.error();
      if (!result.value().compile.compiled) continue;  // the oracle ran it
      EXPECT_EQ(result.value().rows, sql::ExecuteSql(query, catalog).value());
      for (size_t batch_rows : kBatchSizes) {
        ScopedBatchRows batches(batch_rows);
        ExpectPlanPropertiesHold(result.value().compile.optimized, catalog);
        ExpectPlanPropertiesHold(result.value().compile.lowered, catalog);
      }
    }
  }
}

TEST(PlanProperties, EveryOperatorOfTheFlatDedupShapesHoldsItsProperties) {
  // FlatDedup's inputs: encoded scans, row views and both behind a filter,
  // projected onto 1, 2 and 4 columns and combined by ∪, ∩ and − with
  // another table's projection.
  DataGen gen(0xDED0);
  Catalog catalog;
  for (const char* name : {"t", "u"}) {
    std::vector<Tuple> rows;
    for (int i = 0; i < 300; ++i) {
      rows.push_back({V(gen.UniformInt(0, 19)), V(gen.UniformInt(0, 5)),
                      V("s" + std::to_string(gen.UniformInt(0, 3))), V(gen.UniformInt(0, 50))});
    }
    catalog.Put(name, Relation(Schema::Parse("a, b, c:string, d"), rows));
  }
  PlanPtr scan = LogicalOp::Scan(catalog, "t");
  PlanPtr values = LogicalOp::Values(catalog.Get("t"), "t_rows");
  ExprPtr some_a = Expr::Or(Expr::ColCmp("a", CmpOp::kLt, V(5)),
                            Expr::ColCmp("a", CmpOp::kGe, V(12)));
  const std::vector<std::vector<std::string>> projections = {
      {"a"}, {"c"}, {"b", "a"}, {"c", "b"}, {"a", "b", "c"}, {"d", "c", "b", "a"}};
  for (const PlanPtr& input : {scan, values, LogicalOp::Select(scan, some_a),
                               LogicalOp::Select(values, some_a)}) {
    for (const std::vector<std::string>& columns : projections) {
      PlanPtr left = LogicalOp::Project(input, columns);
      PlanPtr right = LogicalOp::Project(LogicalOp::Scan(catalog, "u"), columns);
      for (size_t batch_rows : kBatchSizes) {
        ScopedBatchRows batches(batch_rows);
        for (const PlanPtr& plan :
             {left, LogicalOp::Union(left, right), LogicalOp::Intersect(left, right),
              LogicalOp::Difference(left, right)}) {
          ExpectPlanPropertiesHold(plan, catalog);
        }
      }
    }
  }
}

// -------------------------------------------------------------- run path

TEST(PlanProperties, RunPathMatchesTheInternedPath) {
  // Runs of 1..9 rows per leading value, so at batch sizes 1 and 3 most
  // runs straddle a batch boundary; a string-led twin covers Value keys.
  std::vector<Tuple> rows;
  std::vector<Tuple> string_rows;
  for (int64_t a = 0; a < 40; ++a) {
    for (int64_t b = 0; b < 1 + (a * 7) % 9; ++b) {
      rows.push_back({V(a), V(b % 3), V(b)});
      string_rows.push_back({V("k" + std::to_string(a % 13)), V(b % 3), V(a * 10 + b)});
    }
  }
  Catalog catalog;
  catalog.Put("t", Relation(Schema::Parse("a, b, c"), rows));
  catalog.Put("s", Relation(Schema::Parse("a:string, b, c"), string_rows));
  for (const char* table : {"t", "s"}) {
    PlanPtr scan = LogicalOp::Scan(catalog, table);
    PlanPtr values = LogicalOp::Values(catalog.Get(table), std::string(table) + "_rows");
    ExprPtr keep = Expr::ColCmp("c", CmpOp::kNe, V(2));
    for (const PlanPtr& input :
         {scan, values, LogicalOp::Select(scan, keep), LogicalOp::Select(values, keep),
          LogicalOp::Rename(scan, {{"c", "z"}})}) {
      // Behind an empty ∪ the stream keeps its order but claims no
      // clustering, so π interns it.
      PlanPtr unclustered = LogicalOp::Union(input, LogicalOp::Values(Relation(input->schema())));
      for (const std::vector<std::string>& columns :
           std::vector<std::vector<std::string>>{{"a"}, {"a", "b"}, {"b", "a"}}) {
        PlanPtr runs = LogicalOp::Project(input, columns);
        PlanPtr ids = LogicalOp::Project(unclustered, columns);
        SCOPED_TRACE(runs->ToString());
        EXPECT_STREQ(BuildPhysicalPlan(runs, catalog)->ExplainNote(), "dedup=runs");
        EXPECT_STREQ(BuildPhysicalPlan(ids, catalog)->ExplainNote(), "dedup=ids");
        const Relation reference = Evaluate(runs, catalog);
        for (size_t batch_rows : kBatchSizes) {
          SCOPED_TRACE("batch=" + std::to_string(batch_rows));
          ScopedBatchRows batches(batch_rows);
          std::vector<Tuple> interned = Stream(ids, catalog);
          EXPECT_EQ(Stream(runs, catalog), interned);
          EXPECT_EQ(Relation(reference.schema(), interned), reference);
        }
      }
    }
  }
}

TEST(PlanProperties, FleetTextShapesPinTheirDedupPath) {
  // The sixteen dashboard texts of the end-to-end fleet workload, over a
  // small suppliers/parts pair with parts keyed on p#: which π
  // deduplicates, and how, top down.
  std::vector<Tuple> supplies;
  for (int64_t s = 1; s <= 200; ++s) {
    for (int64_t p = 1; p <= 16; ++p) {
      if ((s * 7 + p * 3) % 5 != 0 || s % 4 == 0) supplies.push_back({V(s), V(p)});
    }
  }
  const char* colors[] = {"red", "green", "blue", "black", "white", "yellow", "orange", "gray"};
  std::vector<Tuple> parts;
  for (int64_t p = 1; p <= 16; ++p) parts.push_back({V(p), V(colors[(p - 1) % 8])});
  Session session;
  ASSERT_TRUE(session.CreateTable("supplies",
                                  Relation(Schema::Parse("s#:int, p#:int"), supplies)).ok());
  ASSERT_TRUE(session.CreateTable("parts",
                                  Relation(Schema::Parse("p#:int, color:string"), parts)).ok());
  ASSERT_TRUE(session.DeclareKey("parts", {"p#"}).ok());
  using Notes = std::vector<std::string>;
  const std::pair<const char*, Notes> texts[] = {
      {"SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#", {"pass"}},
      {"SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
       "AS p ON s.p# = p.p#", {"pass", "pass"}},
      {"SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
       "color = 'black')", {"runs", "pass"}},
      {"SELECT s#, COUNT(p#) AS n FROM supplies GROUP BY s# HAVING COUNT(p#) >= 20", {"pass"}},
      {"SELECT DISTINCT s# FROM supplies WHERE p# NOT IN (SELECT p# FROM parts WHERE "
       "color = 'red')", {"runs", "pass"}},
      {"SELECT s.s#, p.color FROM (SELECT s#, p# FROM supplies WHERE s# <= 50) AS s, "
       "parts AS p WHERE s.p# = p.p#", {"ids", "pass"}},
      {"SELECT COUNT(*) AS n, MIN(p#) AS lo, MAX(p#) AS hi FROM supplies", {"pass"}},
      {"SELECT p#, COUNT(s#) AS n FROM supplies GROUP BY p#", {"pass"}},
      {"SELECT DISTINCT s1.s# FROM supplies AS s1 WHERE EXISTS (SELECT * FROM supplies AS s2 "
       "WHERE s2.p# = s1.p# AND s2.s# > 198)", {"runs", "ids"}},
      {"SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
       "WHERE color = 'orange' AND s# > 100", {"pass"}},
      {"SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
       "WHERE color = 'green'", {"pass"}},
      {"SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'red') "
       "AS p ON s.p# = p.p#", {"pass", "pass"}},
      {"SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# WHERE s# <= 50",
       {"pass"}},
      {"SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'white') "
       "AS p ON s.p# = p.p# WHERE s# > 100", {"pass", "pass"}},
      {"SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= 2", {"pass"}},
      {"SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
       "color = 'yellow') AND s# > 150", {"runs", "pass"}},
  };
  for (const auto& [text, notes] : texts) {
    SCOPED_TRACE(text);
    Result<QueryResult> result = session.Execute(text);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(DedupNotes(result.value().profile.explain), notes)
        << result.value().profile.explain;
  }
}

}  // namespace
}  // namespace quotient
