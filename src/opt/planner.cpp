#include "opt/planner.hpp"

#include "opt/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "exec/exec_agg.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_divide.hpp"
#include "exec/exec_great_divide.hpp"
#include "exec/exec_join.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "util/status.hpp"

namespace quotient {

namespace {

// Plan-fragment fingerprints (FingerprintPlan / VersionedFingerprint) live
// in opt/fingerprint.{hpp,cpp}, shared between the artifact recycler's
// cache keys and the rewrite memo's subtree deduplication.

/// Composes the divisions' RecycleSpec: build_key addresses the divisor-side
/// artifact, probe_key the full probe state that additionally captures the
/// dividend drain. The thread count is deliberately absent from both keys
/// (build state is bit-identical at every thread count,
/// docs/parallel_execution.md). The tag
/// ("div"/"gd") selects the artifact type the adopting iterator casts to, so
/// it must differ wherever the concrete artifact struct differs. Each key
/// has a shape hash beside it: the same composition over the version-free
/// fingerprints, which the recycler's admission counts sightings of. A
/// clustered dividend is divided run by run and leaves no probe state, so
/// it gets no probe key.
RecycleSpec DivideRecycleSpec(const std::string& tag, const LogicalOp& op,
                              const Catalog& catalog, const PlannerOptions& options,
                              bool clustered) {
  RecycleSpec spec;
  if (options.recycler == nullptr) return spec;
  std::string divisor_shape;
  std::string divisor_fp =
      VersionedFingerprint(op.child(1), catalog, &spec.tables, &divisor_shape);
  if (divisor_fp.empty()) return spec;
  spec.recycler = options.recycler;
  spec.build_key = tag + ".build|" + divisor_fp;
  spec.build_shape = FingerprintHash(tag + ".build|" + divisor_shape);
  if (clustered) return spec;
  std::string dividend_shape;
  std::string dividend_fp =
      VersionedFingerprint(op.child(0), catalog, &spec.tables, &dividend_shape);
  if (!dividend_fp.empty()) {
    spec.probe_key = tag + ".probe|" + dividend_fp + "|" + divisor_fp;
    spec.probe_shape = FingerprintHash(tag + ".probe|" + dividend_shape + "|" + divisor_shape);
  }
  return spec;
}

/// Composes a build-side-only RecycleSpec (joins, grouping). `context`
/// captures everything outside the build subtree that shapes the artifact:
/// the probe-side schema names for natural/semi joins (they pick the key
/// columns and bucket projections) and the key columns for equi joins.
RecycleSpec BuildSideRecycleSpec(const std::string& tag, const PlanPtr& build_side,
                                 const std::string& context, const Catalog& catalog,
                                 const PlannerOptions& options) {
  RecycleSpec spec;
  if (options.recycler == nullptr) return spec;
  std::string shape;
  std::string fp = VersionedFingerprint(build_side, catalog, &spec.tables, &shape);
  if (fp.empty()) return spec;
  spec.recycler = options.recycler;
  spec.build_key = tag + "|" + context + "|" + fp;
  spec.build_shape = FingerprintHash(tag + "|" + context + "|" + shape);
  return spec;
}

std::string SchemaNamesContext(const Schema& schema) {
  std::string context;
  FingerprintNames(schema.Names(), &context);
  return context;
}

/// Common-subexpression materialization: rewrite rules deliberately share
/// subplans by pointer (e.g. Laws 11/12 reuse the grouped dividend in the
/// guard and in the result), so any node referenced more than once in the
/// plan DAG is evaluated once and served from a cached relation.
struct BuildContext {
  std::unordered_map<const LogicalOp*, int> use_counts;
  std::unordered_map<const LogicalOp*, std::shared_ptr<const Relation>> materialized;
};

void CountUses(const PlanPtr& plan, std::unordered_map<const LogicalOp*, int>* counts) {
  (*counts)[plan.get()] += 1;
  if ((*counts)[plan.get()] > 1) return;  // children already counted once
  for (const PlanPtr& child : plan->children()) CountUses(child, counts);
}

IterPtr Build(const PlanPtr& plan, const Catalog& catalog, const PlannerOptions& options,
              BuildContext* context);

/// A selection's comparisons on a base table's leading column, absorbed
/// into the span [begin, end) of the table's canonical order: exactly the
/// rows that pass every absorbed conjunct. `residual` keeps the rest.
struct LeadingColumnSpan {
  bool absorbed = false;
  size_t begin = 0;
  size_t end = 0;
  std::vector<ExprPtr> residual;
};

/// `a op b` rewritten as `b op' a`.
CmpOp MirrorCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

bool IsNumericType(ValueType type) {
  return type == ValueType::kInt || type == ValueType::kReal;
}

/// Absorbs every conjunct of σ's predicate of the form `col op literal` or
/// `literal op col`, with op one of = < <= > >=, on the leading column of
/// the base table under σ's ρ chain. A relation is stored sorted by
/// TupleLess, so the sign of ComparePredicateValues(row[0], literal) — the
/// comparison FilterIterator applies — is non-decreasing along storage
/// order, and each bound is one partition point: the span is exact by
/// construction, including int/real mixing and ints beyond 2^53. A
/// conjunct is absorbed only where that comparison cannot throw on a row
/// the span skips, so the Filter's errors are kept where they can occur.
LeadingColumnSpan AbsorbLeadingColumnSpan(const LogicalOp& select, const Catalog& catalog,
                                          const BuildContext& context) {
  LeadingColumnSpan span;
  // A shared ρ is materialized (BuildShared), so only an unshared chain
  // builds down to the catalog scan.
  const LogicalOp* input = select.child(0).get();
  while (input->kind() == LogicalOp::Kind::kRename) {
    auto uses = context.use_counts.find(input);
    if (uses != context.use_counts.end() && uses->second > 1) return span;
    input = input->child(0).get();
  }
  if (input->kind() != LogicalOp::Kind::kScan || select.schema().size() == 0) return span;
  // ρ renames positionally: σ's column 0 is the table's leading column.
  const Attribute& leading = select.schema().attribute(0);
  std::shared_ptr<const Relation> table = catalog.GetShared(input->table());
  const std::vector<Tuple>& rows = table->tuples();
  // NULL sorts first, so the first row tells whether the column holds one;
  // comparing NULL throws, and that error stays with the Filter.
  if (!rows.empty() && rows.front()[0].is_null()) return span;

  size_t begin = 0;
  size_t end = rows.size();
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(select.predicate(), &conjuncts);
  for (ExprPtr& conjunct : conjuncts) {
    const Expr& e = *conjunct;
    auto is_leading = [&](const Expr& side) {
      return side.kind() == Expr::Kind::kColumn && side.column_name() == leading.name;
    };
    const Value* literal = nullptr;
    bool literal_left = false;
    if (e.kind() == Expr::Kind::kCompare && e.cmp_op() != CmpOp::kNe) {
      if (e.right()->kind() == Expr::Kind::kLiteral && is_leading(*e.left())) {
        literal = &e.right()->literal();
      } else if (e.left()->kind() == Expr::Kind::kLiteral && is_leading(*e.right())) {
        literal = &e.left()->literal();
        literal_left = true;
      }
    }
    bool comparable =
        literal != nullptr &&
        ((IsNumericType(leading.type) && IsNumericType(literal->type())) ||
         (leading.type == ValueType::kString && literal->type() == ValueType::kString));
    if (!comparable) {
      span.residual.push_back(std::move(conjunct));
      continue;
    }
    // `literal op col` is evaluated as Compare(literal, col); negating it
    // and mirroring op gives the same verdict as `col op' literal`.
    CmpOp op = literal_left ? MirrorCmp(e.cmp_op()) : e.cmp_op();
    auto sign = [&](const Tuple& row) {
      return literal_left ? -ComparePredicateValues(*literal, row[0])
                          : ComparePredicateValues(row[0], *literal);
    };
    auto first_row = [&](auto&& before) {
      return static_cast<size_t>(
          std::partition_point(rows.begin(), rows.end(),
                               [&](const Tuple& row) { return before(sign(row)); }) -
          rows.begin());
    };
    size_t first_ge = first_row([](int c) { return c < 0; });   // first sign >= 0
    size_t first_gt = first_row([](int c) { return c <= 0; });  // first sign > 0
    switch (op) {
      case CmpOp::kEq:
        begin = std::max(begin, first_ge);
        end = std::min(end, first_gt);
        break;
      case CmpOp::kLt: end = std::min(end, first_ge); break;
      case CmpOp::kLe: end = std::min(end, first_gt); break;
      case CmpOp::kGt: begin = std::max(begin, first_gt); break;
      case CmpOp::kGe: begin = std::max(begin, first_ge); break;
      case CmpOp::kNe: break;  // never absorbed
    }
    span.absorbed = true;
  }
  span.begin = begin;
  span.end = std::max(begin, end);  // contradictory bounds: empty span
  return span;
}

IterPtr BuildShared(const PlanPtr& plan, const Catalog& catalog,
                    const PlannerOptions& options, BuildContext* context) {
  bool shared = context != nullptr && context->use_counts[plan.get()] > 1 &&
                plan->kind() != LogicalOp::Kind::kScan &&
                plan->kind() != LogicalOp::Kind::kValues;
  if (shared) {
    auto it = context->materialized.find(plan.get());
    if (it == context->materialized.end()) {
      IterPtr built = Build(plan, catalog, options, context);
      auto relation = std::make_shared<const Relation>(ExecuteToRelation(*built));
      it = context->materialized.emplace(plan.get(), std::move(relation)).first;
    }
    return std::make_unique<RelationScan>(it->second);
  }
  return Build(plan, catalog, options, context);
}

IterPtr Build(const PlanPtr& plan, const Catalog& catalog, const PlannerOptions& options,
              BuildContext* context) {
  auto child = [&](size_t i) { return BuildShared(plan->child(i), catalog, options, context); };
  const LogicalOp& op = *plan;
  switch (op.kind()) {
    case LogicalOp::Kind::kScan: {
      // Scans read through the catalog's cached per-table dictionary
      // encoding, so repeated queries share encode work across Open()s and
      // morsel workers share one immutable table encoding. The scan holds an OWNING handle to the relation, so a
      // plan built against one catalog snapshot stays valid after DDL
      // publishes a newer one (api/database.hpp). Declared keys join the
      // scan's stream properties, which the operators above it derive
      // theirs from (exec/iterator.hpp).
      auto scan = std::make_unique<RelationScan>(catalog.GetShared(op.table()),
                                                 catalog.Encoding(op.table()));
      const Schema& schema = scan->schema();
      for (const std::vector<std::string>& key : catalog.DeclaredKeys(op.table())) {
        auto known = [&](const std::string& name) { return schema.Contains(name); };
        if (std::all_of(key.begin(), key.end(), known)) {
          scan->DeclareKey(schema.IndicesOfOrThrow(key));
        }
      }
      return scan;
    }
    case LogicalOp::Kind::kValues:
      return std::make_unique<RelationScan>(
          std::make_shared<const Relation>(op.values()));
    case LogicalOp::Kind::kSelect: {
      // σ over ρ*(Scan t) reads only the span its leading-column
      // comparisons select, and the span stays morsel-splittable
      // (exec/pipeline.cpp); a Filter keeps whatever was not absorbed.
      LeadingColumnSpan span = AbsorbLeadingColumnSpan(op, catalog, *context);
      IterPtr input = child(0);
      RelationScan* scan = FindSplittableSource(*input).scan;
      if (!span.absorbed || scan == nullptr) {
        return std::make_unique<FilterIterator>(std::move(input), op.predicate());
      }
      scan->RestrictToSpan(span.begin, span.end);
      if (span.residual.empty()) return input;
      return std::make_unique<FilterIterator>(std::move(input),
                                              Expr::AndAll(std::move(span.residual)));
    }
    case LogicalOp::Kind::kProject:
      return std::make_unique<ProjectIterator>(child(0),
                                               op.columns());
    case LogicalOp::Kind::kUnion:
      return std::make_unique<UnionIterator>(child(0),
                                             child(1));
    case LogicalOp::Kind::kIntersect:
      return std::make_unique<IntersectIterator>(child(0),
                                                 child(1));
    case LogicalOp::Kind::kDifference:
      return std::make_unique<DifferenceIterator>(child(0),
                                                  child(1));
    case LogicalOp::Kind::kProduct:
      return std::make_unique<CrossProductIterator>(child(0),
                                                    child(1));
    case LogicalOp::Kind::kThetaJoin: {
      // Hash on the cross-side equalities and filter the rest above the
      // join; only a condition without any equality runs as a nested loop.
      std::vector<ExprPtr> conjuncts;
      Expr::SplitConjuncts(op.predicate(), &conjuncts);
      EquiJoinSplit split =
          SplitEquiJoin(conjuncts, op.child(0)->schema(), op.child(1)->schema());
      if (split.left_keys.empty()) {
        return std::make_unique<NestedLoopJoinIterator>(child(0), child(1), op.predicate());
      }
      std::string key_context = "keys=";
      FingerprintNames(split.left_keys, &key_context);
      key_context += '/';
      FingerprintNames(split.right_keys, &key_context);
      auto join = std::make_unique<EquiJoinIterator>(
          child(0), child(1), std::move(split.left_keys), std::move(split.right_keys),
          op.child(1)->schema().Names());
      join->SetRecycle(
          BuildSideRecycleSpec("join.equi", op.child(1), key_context, catalog, options));
      if (split.residual.empty()) return join;
      return std::make_unique<FilterIterator>(std::move(join), Expr::AndAll(split.residual));
    }
    case LogicalOp::Kind::kNaturalJoin: {
      // An equi-join on the common names emitting the right-only columns.
      auto join = EquiJoinIterator::Natural(child(0), child(1));
      join->SetRecycle(BuildSideRecycleSpec("join.natural", op.child(1),
                                            SchemaNamesContext(op.child(0)->schema()),
                                            catalog, options));
      return join;
    }
    case LogicalOp::Kind::kSemiJoin:
    case LogicalOp::Kind::kAntiJoin: {
      // Semi and anti joins share one build key: the membership set is
      // identical, only the probe's keep-test differs.
      auto join = std::make_unique<HashSemiJoinIterator>(
          child(0), child(1), /*anti=*/op.kind() == LogicalOp::Kind::kAntiJoin);
      join->SetRecycle(BuildSideRecycleSpec("join.semi", op.child(1),
                                            SchemaNamesContext(op.child(0)->schema()),
                                            catalog, options));
      return join;
    }
    case LogicalOp::Kind::kDivide: {
      auto div = std::make_unique<DivisionIterator>(child(0), child(1));
      div->SetRecycle(DivideRecycleSpec("div", op, catalog, options, div->clustered()));
      return div;
    }
    case LogicalOp::Kind::kGreatDivide: {
      DivisionAttributes attrs = op.division_attributes();
      if (attrs.c.empty()) {
        // Lowered to the same small-divide iterator — and the same "div"
        // keys: with identical children the encoded state is identical, so
        // ÷ and a C-free ÷* share artifacts.
        auto div = std::make_unique<DivisionIterator>(child(0), child(1));
        div->SetRecycle(DivideRecycleSpec("div", op, catalog, options, div->clustered()));
        return div;
      }
      auto gd = std::make_unique<GreatDivideIterator>(child(0), child(1));
      gd->SetRecycle(DivideRecycleSpec("gd", op, catalog, options, gd->clustered()));
      return gd;
    }
    case LogicalOp::Kind::kGroupBy: {
      auto agg = std::make_unique<HashAggregateIterator>(child(0),
                                                         op.group_names(), op.aggs());
      // Fingerprint the GroupBy node itself: the grouping columns and
      // aggregate specs are part of the node's serialization, so no extra
      // context string is needed.
      agg->SetRecycle(BuildSideRecycleSpec("agg", plan, "", catalog, options));
      return agg;
    }
    case LogicalOp::Kind::kRename:
      return std::make_unique<RenameIterator>(child(0),
                                              op.renames());
  }
  throw SchemaError("planner: bad logical operator kind");
}

}  // namespace

IterPtr BuildPhysicalPlan(const PlanPtr& plan, const Catalog& catalog,
                          const PlannerOptions& options, const StatsCache* /*stats*/) {
  BuildContext context;
  CountUses(plan, &context.use_counts);
  return Build(plan, catalog, options, &context);
}

Relation ExecutePlan(const PlanPtr& plan, const Catalog& catalog, const PlannerOptions& options,
                     ExecProfile* profile, QueryContext* context) {
  ScopedQueryContext scope(context != nullptr ? context : CurrentQueryContext());
  IterPtr root = BuildPhysicalPlan(plan, catalog, options);
  Relation result = ExecuteToRelation(*root);
  if (profile != nullptr) {
    profile->total_rows = TotalRowsProduced(*root);
    profile->max_rows = MaxRowsProduced(*root);
    profile->max_dop = MaxPipelineDop(*root);
    profile->explain = ExplainTree(*root);
    profile->pipelines = DescribePipelines(*root);
    if (QueryContext* ctx = CurrentQueryContext()) {
      profile->rows_charged_bytes = ctx->charged_bytes();
      profile->cancelled = ctx->cancelled();
      profile->fault_site = ctx->fault_site();
      profile->spill_partitions = ctx->spill_partitions();
      profile->spill_bytes_written = ctx->spill_bytes_written();
      profile->recycler_hits = ctx->recycler_hits();
      profile->recycler_misses = ctx->recycler_misses();
    }
  }
  return result;
}

}  // namespace quotient
