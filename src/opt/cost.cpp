#include "opt/cost.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace quotient {

namespace {

// Fallbacks for shapes the statistics cannot resolve (computed columns,
// VALUES leaves, non-equality predicates).
constexpr double kDefaultSelectivity = 0.33;    // per predicate conjunct
constexpr double kDefaultContainment = 0.1;     // P(group ⊇ divisor)
constexpr double kDefaultGroupFraction = 0.25;  // |groups| / |input|

/// Bottom-up estimate of one node: output cardinality, cumulative cost,
/// and the estimated distinct-value count of every visible column (the
/// statistic selections, joins, and divisions condition on).
struct NodeEst {
  double card = 0;
  double cost = 0;
  std::map<std::string, double> distinct;
};

double DistinctOr(const NodeEst& e, const std::string& column, double fallback) {
  auto it = e.distinct.find(column);
  return it == e.distinct.end() ? fallback : std::max(1.0, it->second);
}

/// Caps every distinct estimate at the node's cardinality (a column cannot
/// have more distinct values than the relation has rows).
void CapDistinct(NodeEst* e) {
  double cap = std::max(1.0, e->card);
  for (auto& [name, d] : e->distinct) d = std::min(d, cap);
}

/// Product of the distinct counts of `columns`, clamped to [1, cap] — the
/// textbook upper bound on the number of distinct composite keys. Columns
/// without statistics contribute the cap (no reduction claimed).
double CompositeDistinct(const NodeEst& e, const std::vector<std::string>& columns,
                         double cap) {
  cap = std::max(1.0, cap);
  if (columns.empty()) return 1.0;
  double product = 1.0;
  for (const std::string& column : columns) {
    product *= DistinctOr(e, column, cap);
    if (product >= cap) return cap;
  }
  return std::max(1.0, product);
}

/// Selectivity of one conjunct against the input's column statistics.
/// Equality against a literal keeps ~1/distinct of the rows (never more
/// than half, so selection always narrows); inequality keeps the
/// complement; everything else falls back to the default. When the
/// conjunct pins a column to a literal, its name is appended to `pinned`
/// so the caller can collapse that column's distinct count to 1.
double ConjunctSelectivity(const ExprPtr& conjunct, const NodeEst& in,
                           std::vector<std::string>* pinned) {
  if (conjunct == nullptr || conjunct->kind() != Expr::Kind::kCompare) {
    return kDefaultSelectivity;
  }
  const ExprPtr& l = conjunct->left();
  const ExprPtr& r = conjunct->right();
  const bool l_col = l != nullptr && l->kind() == Expr::Kind::kColumn;
  const bool r_col = r != nullptr && r->kind() == Expr::Kind::kColumn;
  switch (conjunct->cmp_op()) {
    case CmpOp::kEq: {
      if (l_col && r_col) {
        double dl = DistinctOr(in, l->column_name(), 3.0);
        double dr = DistinctOr(in, r->column_name(), 3.0);
        return 1.0 / std::max(2.0, std::max(dl, dr));
      }
      const ExprPtr& col = l_col ? l : r;
      if (!l_col && !r_col) return kDefaultSelectivity;
      double d = DistinctOr(in, col->column_name(), 3.0);
      if (pinned != nullptr) pinned->push_back(col->column_name());
      return std::min(0.5, 1.0 / d);
    }
    case CmpOp::kNe: {
      if (l_col == r_col) return kDefaultSelectivity;  // both or neither
      const ExprPtr& col = l_col ? l : r;
      double d = DistinctOr(in, col->column_name(), 3.0);
      return d > 1.0 ? (d - 1.0) / d : 0.5;
    }
    default: return kDefaultSelectivity;
  }
}

NodeEst Estimate_(const PlanPtr& plan, const Catalog& catalog, const StatsCache& stats) {
  const LogicalOp& op = *plan;
  auto child = [&](size_t i) { return Estimate_(op.child(i), catalog, stats); };

  switch (op.kind()) {
    case LogicalOp::Kind::kScan: {
      NodeEst out;
      TableStatsPtr table = stats.Get(catalog, op.table());
      if (table != nullptr) {
        out.card = static_cast<double>(table->rows);
        for (size_t c = 0; c < table->columns.size(); ++c) {
          out.distinct[table->columns[c]] = static_cast<double>(table->distinct[c]);
        }
      } else {
        out.card = static_cast<double>(catalog.Get(op.table()).size());
      }
      out.cost = out.card;
      return out;
    }
    case LogicalOp::Kind::kValues: {
      NodeEst out;
      out.card = static_cast<double>(op.values().size());
      out.cost = out.card;
      // Inline rows are sets, so every column has at most `card` distinct
      // values; claim nothing stronger.
      for (const std::string& name : plan->schema().Names()) out.distinct[name] = out.card;
      return out;
    }
    case LogicalOp::Kind::kSelect: {
      NodeEst in = child(0);
      std::vector<ExprPtr> conjuncts;
      Expr::SplitConjuncts(op.predicate(), &conjuncts);
      double selectivity = 1.0;
      std::vector<std::string> pinned;
      for (const ExprPtr& conjunct : conjuncts) {
        selectivity *= ConjunctSelectivity(conjunct, in, &pinned);
      }
      NodeEst out = in;
      out.card = in.card * selectivity;
      // Predicate evaluation is cheap relative to materializing operators.
      out.cost = in.cost + 0.1 * in.card;
      for (const std::string& column : pinned) out.distinct[column] = 1.0;
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kProject: {
      NodeEst in = child(0);
      NodeEst out;
      // Set semantics: projection deduplicates, so the output is bounded by
      // the number of distinct composite keys over the kept columns.
      out.card = in.card == 0 ? 0 : std::min(in.card, CompositeDistinct(in, op.columns(), in.card));
      out.cost = in.cost + in.card;
      for (const std::string& column : op.columns()) {
        auto it = in.distinct.find(column);
        if (it != in.distinct.end()) out.distinct[column] = it->second;
      }
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kRename: {
      NodeEst in = child(0);
      NodeEst out;
      out.card = in.card;
      out.cost = in.cost;
      out.distinct = in.distinct;
      for (const auto& [from, to] : op.renames()) {
        auto it = out.distinct.find(from);
        if (it == out.distinct.end()) continue;
        double d = it->second;
        out.distinct.erase(it);
        out.distinct[to] = d;
      }
      return out;
    }
    case LogicalOp::Kind::kUnion: {
      NodeEst l = child(0), r = child(1);
      NodeEst out;
      out.card = l.card + r.card;
      out.cost = l.cost + r.cost + l.card + r.card;
      for (const auto& [name, d] : l.distinct) {
        out.distinct[name] = d + DistinctOr(r, name, 0.0);
      }
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kIntersect: {
      NodeEst l = child(0), r = child(1);
      NodeEst out;
      out.card = std::min(l.card, r.card) * 0.5;
      out.cost = l.cost + r.cost + l.card + r.card;
      for (const auto& [name, d] : l.distinct) {
        out.distinct[name] = std::min(d, DistinctOr(r, name, d));
      }
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kDifference: {
      NodeEst l = child(0), r = child(1);
      NodeEst out;
      out.card = l.card * 0.5;
      out.cost = l.cost + r.cost + l.card + r.card;
      out.distinct = l.distinct;
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kProduct: {
      NodeEst l = child(0), r = child(1);
      NodeEst out;
      out.card = l.card * r.card;
      out.cost = l.cost + r.cost + out.card;
      out.distinct = l.distinct;
      out.distinct.insert(r.distinct.begin(), r.distinct.end());
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kThetaJoin: {
      NodeEst l = child(0), r = child(1);
      NodeEst merged;  // both sides visible to the predicate
      merged.card = std::max(l.card, r.card);
      merged.distinct = l.distinct;
      merged.distinct.insert(r.distinct.begin(), r.distinct.end());
      std::vector<ExprPtr> conjuncts;
      Expr::SplitConjuncts(op.predicate(), &conjuncts);
      double selectivity = 1.0;
      for (const ExprPtr& conjunct : conjuncts) {
        selectivity *= ConjunctSelectivity(conjunct, merged, nullptr);
      }
      NodeEst out;
      out.card = l.card * r.card * selectivity;
      // The planner hashes on the cross-side equalities, touching each
      // input once; without one it runs a nested loop over every pair.
      bool hashed = !SplitEquiJoin(conjuncts, op.child(0)->schema(), op.child(1)->schema())
                         .left_keys.empty();
      out.cost = l.cost + r.cost + (hashed ? l.card + r.card + out.card : l.card * r.card);
      out.distinct = merged.distinct;
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kNaturalJoin: {
      NodeEst l = child(0), r = child(1);
      // Classic formula: |L ⋈ R| = |L|·|R| / max distinct of the shared key.
      double denominator = 1.0;
      bool resolved = false;
      for (const Attribute& attr : op.child(0)->schema().attributes()) {
        if (!op.child(1)->schema().Contains(attr.name)) continue;
        auto lit = l.distinct.find(attr.name);
        auto rit = r.distinct.find(attr.name);
        if (lit == l.distinct.end() || rit == r.distinct.end()) continue;
        denominator = std::max(denominator, std::max(lit->second, rit->second));
        resolved = true;
      }
      if (!resolved) denominator = std::max(1.0, std::max(l.card, r.card));
      NodeEst out;
      out.card = l.card * r.card / denominator;
      out.cost = l.cost + r.cost + l.card + r.card + out.card;
      out.distinct = l.distinct;
      out.distinct.insert(r.distinct.begin(), r.distinct.end());
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kSemiJoin:
    case LogicalOp::Kind::kAntiJoin: {
      NodeEst l = child(0), r = child(1);
      // Fraction of left rows whose shared key appears on the right: the
      // most selective shared column bounds it by min(1, d_r / d_l).
      double match = 0.5;
      bool seen_shared = false;
      for (const Attribute& attr : op.child(0)->schema().attributes()) {
        if (!op.child(1)->schema().Contains(attr.name)) continue;
        auto lit = l.distinct.find(attr.name);
        auto rit = r.distinct.find(attr.name);
        if (lit == l.distinct.end() || rit == r.distinct.end()) continue;
        double fraction =
            std::min(1.0, std::max(1.0, rit->second) / std::max(1.0, lit->second));
        match = seen_shared ? std::min(match, fraction) : fraction;
        seen_shared = true;
      }
      double keep = op.kind() == LogicalOp::Kind::kSemiJoin ? match : 1.0 - match;
      NodeEst out;
      out.card = l.card * std::max(0.0, keep);
      out.cost = l.cost + r.cost + l.card + r.card;
      out.distinct = l.distinct;
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kDivide: {
      NodeEst l = child(0), r = child(1);
      DivisionAttributes attrs = op.division_attributes();
      // Quotient candidates = distinct A-keys of the dividend. A group of
      // average size |dividend| / groups covers that fraction of the
      // dividend's B-domain; containing all m divisor values then has
      // probability ≈ coverage^m.
      double groups = l.distinct.empty() ? std::max(1.0, l.card * kDefaultGroupFraction)
                                         : CompositeDistinct(l, attrs.a, l.card);
      double containment = kDefaultContainment;
      if (!l.distinct.empty()) {
        double b_domain = CompositeDistinct(l, attrs.b, l.card);
        double group_size = l.card / std::max(1.0, groups);
        double coverage = std::min(1.0, group_size / std::max(1.0, b_domain));
        containment = std::pow(coverage, std::max(1.0, r.card));
      }
      // Every dividend and divisor tuple is touched once (hash division),
      // plus per-candidate bitmap work proportional to the divisor size.
      double bitmap_work = groups * std::max(1.0, r.card) / 8.0;
      NodeEst out;
      out.card = groups * containment;
      out.cost = l.cost + r.cost + l.card + r.card + bitmap_work;
      for (const std::string& column : attrs.a) {
        out.distinct[column] = DistinctOr(l, column, groups);
      }
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kGreatDivide: {
      NodeEst l = child(0), r = child(1);
      DivisionAttributes attrs = op.division_attributes();
      double groups = l.distinct.empty() ? std::max(1.0, l.card * kDefaultGroupFraction)
                                         : CompositeDistinct(l, attrs.a, l.card);
      double divisor_groups = r.distinct.empty()
                                  ? std::max(1.0, r.card * kDefaultGroupFraction)
                                  : CompositeDistinct(r, attrs.c, r.card);
      double containment = kDefaultContainment;
      if (!l.distinct.empty() && !r.distinct.empty()) {
        double b_domain = CompositeDistinct(l, attrs.b, l.card);
        double group_size = l.card / std::max(1.0, groups);
        double divisor_group_size = r.card / std::max(1.0, divisor_groups);
        double coverage = std::min(1.0, group_size / std::max(1.0, b_domain));
        containment = std::pow(coverage, std::max(1.0, divisor_group_size));
      }
      double counter_work = groups * divisor_groups / 8.0;
      NodeEst out;
      out.card = groups * divisor_groups * containment;
      out.cost = l.cost + r.cost + l.card + r.card + counter_work;
      for (const std::string& column : attrs.a) {
        out.distinct[column] = DistinctOr(l, column, groups);
      }
      for (const std::string& column : attrs.c) {
        out.distinct[column] = DistinctOr(r, column, divisor_groups);
      }
      CapDistinct(&out);
      return out;
    }
    case LogicalOp::Kind::kGroupBy: {
      NodeEst in = child(0);
      NodeEst out;
      if (op.group_names().empty()) {
        out.card = 1.0;  // global aggregate
      } else if (in.card == 0) {
        out.card = 0;
      } else {
        out.card = std::min(in.card, CompositeDistinct(in, op.group_names(), in.card));
      }
      out.cost = in.cost + in.card;
      for (const std::string& column : op.group_names()) {
        auto it = in.distinct.find(column);
        if (it != in.distinct.end()) out.distinct[column] = it->second;
      }
      CapDistinct(&out);
      return out;
    }
  }
  return {};
}

}  // namespace

Estimate EstimatePlan(const PlanPtr& plan, const Catalog& catalog, const StatsCache& stats) {
  NodeEst est = Estimate_(plan, catalog, stats);
  return {est.card, est.cost};
}

Estimate EstimatePlan(const PlanPtr& plan, const Catalog& catalog) {
  StatsCache transient;
  return EstimatePlan(plan, catalog, transient);
}

double EstimateCost(const PlanPtr& plan, const Catalog& catalog, const StatsCache& stats) {
  return EstimatePlan(plan, catalog, stats).cost;
}

double EstimateCost(const PlanPtr& plan, const Catalog& catalog) {
  StatsCache transient;
  return EstimateCost(plan, catalog, transient);
}

}  // namespace quotient
