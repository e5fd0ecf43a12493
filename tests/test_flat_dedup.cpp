// Duplicate elimination in π, ∪, ∩ and − numbers every key densely in
// first-seen order (IncrementalKeyEncoder::InternKey): a row survives iff
// its key id is the next unseen one (π, ∪, −) or a not-yet-emitted build id
// (∩). These differential tests run each operator over keys of one column
// (dictionary ids used as key ids), two columns (packed 64-bit keys) and
// three or more (spill keys), from encoded scans and row-view inputs, with
// and without selection vectors, at batch sizes {1, 3, 1024}. Each result
// must equal plan::Evaluate, and each output stream must list the rows in
// the order of their first occurrence in the operator's input stream.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algebra/generator.hpp"
#include "algebra/ops.hpp"
#include "exec/batch.hpp"
#include "exec/iterator.hpp"
#include "opt/planner.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

const size_t kBatchSizes[] = {1, 3, 1024};

/// The rows of `plan`'s physical iterator in stream order.
std::vector<Tuple> Stream(const PlanPtr& plan, const Catalog& catalog) {
  IterPtr it = BuildPhysicalPlan(plan, catalog);
  it->Open();
  std::vector<Tuple> rows;
  DrainRows(*it, &rows);
  it->Close();
  return rows;
}

/// The stream a set operation's input delivers, each row reordered into
/// `to`'s attribute order (the right input of ∪/∩/− may list them
/// differently). Every input here is a scan, a Values node or a filter
/// over one, all of which emit the relation's canonical order.
std::vector<Tuple> InputStream(const PlanPtr& input, const Catalog& catalog,
                               const Schema& to) {
  Relation r = Evaluate(input, catalog);
  std::vector<size_t> order;
  for (const Attribute& a : to.attributes()) order.push_back(r.schema().IndexOfOrThrow(a.name));
  std::vector<Tuple> rows;
  for (const Tuple& t : r.tuples()) rows.push_back(ProjectTuple(t, order));
  return rows;
}

/// The first occurrence of each distinct row of `rows`, in order.
std::vector<Tuple> FirstOccurrences(const std::vector<Tuple>& rows) {
  std::set<Tuple> seen;
  std::vector<Tuple> out;
  for (const Tuple& t : rows) {
    if (seen.insert(t).second) out.push_back(t);
  }
  return out;
}

/// Runs `plan` at every batch size: the result must equal the reference
/// algebra and the stream must equal `expected_order`.
void ExpectDedup(const PlanPtr& plan, const Catalog& catalog,
                 const std::vector<Tuple>& expected_order) {
  const Relation reference = Evaluate(plan, catalog);
  ASSERT_EQ(Relation(reference.schema(), expected_order), reference)
      << "the expected stream disagrees with the reference algebra";
  for (size_t batch_rows : kBatchSizes) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ScopedBatchRows scoped(batch_rows);
    EXPECT_EQ(Stream(plan, catalog), expected_order);
    EXPECT_EQ(ExecutePlan(plan, catalog), reference);
  }
}

void ExpectProject(const PlanPtr& child, const std::vector<std::string>& columns,
                   const Catalog& catalog) {
  PlanPtr plan = LogicalOp::Project(child, columns);
  std::vector<Tuple> projected = InputStream(child, catalog, plan->schema());
  ExpectDedup(plan, catalog, FirstOccurrences(projected));
}

void ExpectSetOps(const PlanPtr& left, const PlanPtr& right, const Catalog& catalog) {
  const Schema& schema = left->schema();
  std::vector<Tuple> l = InputStream(left, catalog, schema);
  std::vector<Tuple> r = InputStream(right, catalog, schema);
  std::set<Tuple> right_set(r.begin(), r.end());

  std::vector<Tuple> both = l;
  both.insert(both.end(), r.begin(), r.end());
  std::vector<Tuple> in_right, not_in_right;
  for (const Tuple& t : l) (right_set.count(t) > 0 ? in_right : not_in_right).push_back(t);

  {
    SCOPED_TRACE("union");
    ExpectDedup(LogicalOp::Union(left, right), catalog, FirstOccurrences(both));
  }
  {
    SCOPED_TRACE("intersect");
    ExpectDedup(LogicalOp::Intersect(left, right), catalog, FirstOccurrences(in_right));
  }
  {
    SCOPED_TRACE("difference");
    ExpectDedup(LogicalOp::Difference(left, right), catalog, FirstOccurrences(not_in_right));
  }
}

/// t(a, b, c, d): few distinct values in a, b and c, so their projections
/// have duplicates, and c is a string column for mixed-type keys.
Relation Wide(uint64_t seed, size_t rows) {
  DataGen gen(seed);
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < rows; ++i) {
    tuples.push_back({V(gen.UniformInt(0, 39)), V(gen.UniformInt(0, 9)),
                      V("s" + std::to_string(gen.UniformInt(0, 5))), V(gen.UniformInt(0, 200))});
  }
  return Relation(Schema::Parse("a, b, c:string, d"), std::move(tuples));
}

const std::vector<std::string> kKeyColumns[] = {{"a"}, {"a", "b"}, {"a", "b", "c"}};

/// t and u (Wide), plus their projections onto 1, 2 and 3 key columns as
/// base tables t1..t3 and u1..u3, so set operations read them as scans.
Catalog WideCatalog() {
  Catalog catalog;
  catalog.Put("t", Wide(0xDED0, 900));
  catalog.Put("u", Wide(0xDED1, 700));
  for (const std::vector<std::string>& columns : kKeyColumns) {
    std::string k = std::to_string(columns.size());
    catalog.Put("t" + k, Project(catalog.Get("t"), columns));
    catalog.Put("u" + k, Project(catalog.Get("u"), columns));
  }
  return catalog;
}

/// Encoded scan, row view, and each of them behind a filter (a selection
/// vector over the batch).
std::vector<std::pair<std::string, PlanPtr>> Inputs(const Catalog& catalog,
                                                    const std::string& table) {
  PlanPtr scan = LogicalOp::Scan(catalog, table);
  PlanPtr rows = LogicalOp::Values(catalog.Get(table), table + "_rows");
  ExprPtr some_a = Expr::Or(Expr::ColCmp("a", CmpOp::kLt, V(10)),
                            Expr::ColCmp("a", CmpOp::kGe, V(25)));
  return {{"scan", scan},
          {"rows", rows},
          {"filtered scan", LogicalOp::Select(scan, some_a)},
          {"filtered rows", LogicalOp::Select(rows, some_a)}};
}

TEST(FlatDedup, ProjectOneTwoAndWideKeys) {
  Catalog catalog = WideCatalog();
  const std::vector<std::vector<std::string>> keys = {
      {"a"}, {"c"}, {"b", "a"}, {"c", "b"}, {"a", "b", "c"}, {"d", "c", "b", "a"}};
  for (const auto& [label, input] : Inputs(catalog, "t")) {
    for (const std::vector<std::string>& columns : keys) {
      SCOPED_TRACE(label + ", " + std::to_string(columns.size()) + " key columns from " +
                   columns[0]);
      ExpectProject(input, columns, catalog);
    }
  }
}

TEST(FlatDedup, SetOpsOverEveryKeyWidthAndLayout) {
  Catalog catalog = WideCatalog();
  for (const std::vector<std::string>& columns : kKeyColumns) {
    std::string k = std::to_string(columns.size());
    for (const auto& [left_label, left] : Inputs(catalog, "t" + k)) {
      for (const auto& [right_label, right] : Inputs(catalog, "u" + k)) {
        SCOPED_TRACE(left_label + " vs " + right_label + ", " + k + " key columns");
        ExpectSetOps(left, right, catalog);
      }
    }
  }
}

TEST(FlatDedup, SetOpsWithReorderedRightSchema) {
  // The right input stores the key columns in another order, so its rows
  // are aligned through the operator's column map.
  Catalog catalog = WideCatalog();
  catalog.Put("u2_ba", catalog.Get("u2").Reorder({"b", "a"}));
  catalog.Put("u3_cab", catalog.Get("u3").Reorder({"c", "a", "b"}));
  for (const auto& [left, right] :
       std::vector<std::pair<std::string, std::string>>{{"t2", "u2_ba"}, {"t3", "u3_cab"}}) {
    for (const auto& [label, right_input] : Inputs(catalog, right)) {
      SCOPED_TRACE(left + " vs " + label + " " + right);
      ExpectSetOps(LogicalOp::Scan(catalog, left), right_input, catalog);
    }
  }
}

TEST(FlatDedup, UnionOfTablesWhoseDictionariesDisagree) {
  // Each table's dictionary numbers values in its own first-seen order:
  // 3 is id 2 in l and id 0 in r, "x" is id 0 in l and id 1 in r. The
  // union must still see them as one key.
  Catalog catalog;
  catalog.Put("l", Relation::Parse("k, s:string", "1,x; 2,x; 3,y; 3,x"));
  catalog.Put("r", Relation::Parse("k, s:string", "3,w; 3,x; 4,x; 5,y"));
  ASSERT_EQ(catalog.Encoding("l")->columns[0].dict.Find(V(3)), 2u);
  ASSERT_EQ(catalog.Encoding("r")->columns[0].dict.Find(V(3)), 0u);
  PlanPtr l = LogicalOp::Scan(catalog, "l");
  PlanPtr r = LogicalOp::Scan(catalog, "r");
  ExpectSetOps(l, r, catalog);
  ExpectSetOps(LogicalOp::Project(l, {"k"}), LogicalOp::Project(r, {"k"}), catalog);
  ExpectSetOps(LogicalOp::Project(l, {"s"}), LogicalOp::Project(r, {"s"}), catalog);
  // π over the union dedups keys first seen on either side. The union
  // streams l's rows, then r's new ones: (3,w), (4,x), (5,y).
  PlanPtr both = LogicalOp::Union(l, r);
  ExpectDedup(LogicalOp::Project(both, {"s"}), catalog, {{V("x")}, {V("y")}, {V("w")}});
  ExpectDedup(LogicalOp::Project(both, {"k"}), catalog,
              {{V(1)}, {V(2)}, {V(3)}, {V(4)}, {V(5)}});
}

TEST(FlatDedup, EmptyInputsAndZeroSurvivors) {
  Catalog catalog;
  catalog.Put("t", Relation::Parse("a, b", "1,1; 1,2; 2,1"));
  catalog.Put("none", Relation(Schema::Parse("a, b")));
  PlanPtr t = LogicalOp::Scan(catalog, "t");
  PlanPtr none = LogicalOp::Scan(catalog, "none");
  ExpectSetOps(t, none, catalog);
  ExpectSetOps(none, t, catalog);
  ExpectSetOps(t, t, catalog);  // ∩ keeps all, − keeps nothing
  ExpectProject(none, {"a"}, catalog);
  ExpectProject(LogicalOp::Select(t, Expr::ColCmp("a", CmpOp::kGt, V(5))), {"a", "b"}, catalog);
}

TEST(FlatDedup, HealyExpansionShape) {
  // πA(r1) − πA((πA(r1) × r2) − r1): π, × and − composed, as Healy's
  // expansion of the small divide runs them.
  Catalog catalog;
  DataGen gen(0x4EA1);
  catalog.Put("r1", gen.Dividend(/*groups=*/60, /*domain=*/12, /*density=*/0.6));
  catalog.Put("r2", gen.Divisor(/*size=*/4, /*domain=*/12));
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr candidates = LogicalOp::Project(r1, {"a"});
  PlanPtr missing = LogicalOp::Project(
      LogicalOp::Difference(LogicalOp::Product(candidates, LogicalOp::Scan(catalog, "r2")), r1),
      {"a"});
  PlanPtr healy = LogicalOp::Difference(candidates, missing);
  for (size_t batch_rows : kBatchSizes) {
    ScopedBatchRows scoped(batch_rows);
    EXPECT_EQ(ExecutePlan(healy, catalog),
              Evaluate(LogicalOp::Divide(r1, LogicalOp::Scan(catalog, "r2")), catalog))
        << "batch_rows=" << batch_rows;
  }
}

}  // namespace
}  // namespace quotient
