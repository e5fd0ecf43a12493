#include "core/rules.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "algebra/divide.hpp"
#include "plan/evaluate.hpp"
#include "util/status.hpp"

namespace quotient {

namespace {

using Kind = LogicalOp::Kind;

bool SameNameSet(std::vector<std::string> a, std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

bool PredicateOver(const ExprPtr& p, const std::vector<std::string>& names) {
  return p->RefersOnlyTo(names);
}

/// Evaluates a subplan when that is affordable: inline Values literals are
/// free; everything else — including base-table scans, whose contents an
/// optimizer would not scan at rewrite time — requires
/// allow_runtime_checks (the paper's point that "testing condition c1 can
/// be expensive", §5.1.1). Declared catalog constraints are the cheap path.
std::optional<Relation> EvaluateIfAllowed(const PlanPtr& plan, const RewriteContext& context) {
  if (plan->kind() == Kind::kValues) return plan->values();
  if (context.allow_runtime_checks && context.catalog != nullptr) {
    return Evaluate(plan, *context.catalog);
  }
  return std::nullopt;
}

/// Tries to establish π_attrs(x) ∩ π_attrs(y) = ∅, first from catalog
/// declarations (scan inputs), then from data if allowed.
bool ProvablyDisjoint(const PlanPtr& x, const PlanPtr& y,
                      const std::vector<std::string>& attrs, const RewriteContext& context) {
  if (context.catalog != nullptr && x->kind() == Kind::kScan && y->kind() == Kind::kScan &&
      context.catalog->AreDisjoint(x->table(), y->table(), attrs)) {
    return true;
  }
  std::optional<Relation> rx = EvaluateIfAllowed(x, context);
  std::optional<Relation> ry = EvaluateIfAllowed(y, context);
  if (rx && ry) return Catalog::CheckDisjoint(*rx, *ry, attrs);
  return false;
}

/// Tries to establish π_attrs(from) ⊆ π_attrs(to).
bool ProvablySubset(const PlanPtr& from, const PlanPtr& to,
                    const std::vector<std::string>& attrs, const RewriteContext& context) {
  if (context.catalog != nullptr && from->kind() == Kind::kScan && to->kind() == Kind::kScan &&
      context.catalog->HasForeignKey(from->table(), attrs, to->table())) {
    return true;
  }
  std::optional<Relation> rfrom = EvaluateIfAllowed(from, context);
  std::optional<Relation> rto = EvaluateIfAllowed(to, context);
  if (rfrom && rto) return Catalog::CheckForeignKey(*rfrom, *rto, attrs);
  return false;
}

bool ProvablyNonEmpty(const PlanPtr& plan, const RewriteContext& context) {
  std::optional<Relation> r = EvaluateIfAllowed(plan, context);
  return r && !r->empty();
}

/// A rule defined by a declarative descriptor and a match/build function.
class LambdaRule : public RewriteRule {
 public:
  using Fn = PlanPtr (*)(const PlanPtr&, const RewriteContext&);
  LambdaRule(const RuleInfo& info, Fn fn) : info_(info), fn_(fn) {}
  const RuleInfo& info() const override { return info_; }
  PlanPtr Apply(const PlanPtr& node, const RewriteContext& context) const override {
    return fn_(node, context);
  }

 private:
  RuleInfo info_;
  Fn fn_;
};

RulePtr Rule(const RuleInfo& info, LambdaRule::Fn fn) {
  return std::make_unique<LambdaRule>(info, fn);
}

// ---------------------------------------------------------------- Law 1 ----
PlanPtr ApplyLaw1(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& divisor = node->right();
  if (divisor->kind() != Kind::kUnion) return nullptr;
  const PlanPtr& dividend = node->left();
  // r1 ÷ (r2' ∪ r2'') = (r1 ⋉ (r1 ÷ r2')) ÷ r2''
  PlanPtr inner = LogicalOp::Divide(dividend, divisor->left());
  return LogicalOp::Divide(LogicalOp::SemiJoin(dividend, inner), divisor->right());
}

// ---------------------------------------------------------------- Law 2 ----
PlanPtr ApplyLaw2(const PlanPtr& node, const RewriteContext& context) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& dividend = node->left();
  if (dividend->kind() != Kind::kUnion) return nullptr;
  DivisionAttributes attrs = node->division_attributes();
  // The cheap sufficient condition c2: disjoint quotient-candidate sets.
  if (!ProvablyDisjoint(dividend->left(), dividend->right(), attrs.a, context)) return nullptr;
  return LogicalOp::Union(LogicalOp::Divide(dividend->left(), node->right()),
                          LogicalOp::Divide(dividend->right(), node->right()));
}

// ---------------------------------------------------------------- Law 3 ----
PlanPtr ApplyLaw3(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kSelect) return nullptr;
  const PlanPtr& divide = node->child(0);
  if (divide->kind() != Kind::kDivide) return nullptr;
  // The quotient schema is exactly A, so any valid predicate is p(A).
  return LogicalOp::Divide(LogicalOp::Select(divide->left(), node->predicate()),
                           divide->right());
}

// ---------------------------------------------------------------- Law 4 ----
PlanPtr ApplyLaw4(const PlanPtr& node, const RewriteContext& context) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& divisor = node->right();
  if (divisor->kind() != Kind::kSelect) return nullptr;
  const ExprPtr& p = divisor->predicate();
  // Terminate: skip if the dividend is already filtered by this predicate.
  const PlanPtr& dividend = node->left();
  if (dividend->kind() == Kind::kSelect && dividend->predicate()->Equals(*p)) return nullptr;
  // Erratum guard (see laws.hpp): Law 4 needs σp(r2) ≠ ∅, otherwise the
  // rewrite changes πA(r1) into πA(σp(r1)).
  if (!ProvablyNonEmpty(divisor, context)) return nullptr;
  return LogicalOp::Divide(LogicalOp::Select(dividend, p), divisor);
}

// ------------------------------------------------------------ Example 1 ----
PlanPtr ApplyExample1(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& dividend = node->left();
  if (dividend->kind() != Kind::kSelect) return nullptr;
  DivisionAttributes attrs = node->division_attributes();
  const ExprPtr& p = dividend->predicate();
  if (!PredicateOver(p, attrs.b)) return nullptr;
  const PlanPtr& divisor = node->right();
  // Terminate: if the divisor is already σp(...) this is Law 4's output.
  if (divisor->kind() == Kind::kSelect && divisor->predicate()->Equals(*p)) return nullptr;
  const PlanPtr& base = dividend->child(0);
  PlanPtr matching =
      LogicalOp::Divide(dividend, LogicalOp::Select(divisor, p));
  PlanPtr blocker = LogicalOp::Project(
      LogicalOp::Product(LogicalOp::Project(base, attrs.a),
                         LogicalOp::Select(divisor, Expr::Not(p))),
      attrs.a);
  return LogicalOp::Difference(matching, blocker);
}

// ---------------------------------------------------------------- Law 5 ----
PlanPtr ApplyLaw5(const PlanPtr& node, const RewriteContext& context) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& dividend = node->left();
  if (dividend->kind() != Kind::kIntersect) return nullptr;
  // Erratum guard (see laws.hpp): Law 5 needs r2 ≠ ∅.
  if (!ProvablyNonEmpty(node->right(), context)) return nullptr;
  return LogicalOp::Intersect(LogicalOp::Divide(dividend->left(), node->right()),
                              LogicalOp::Divide(dividend->right(), node->right()));
}

// ---------------------------------------------------------------- Law 6 ----
PlanPtr ApplyLaw6(const PlanPtr& node, const RewriteContext& context) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& dividend = node->left();
  if (dividend->kind() != Kind::kDifference) return nullptr;
  const PlanPtr& minuend = dividend->left();
  const PlanPtr& subtrahend = dividend->right();
  DivisionAttributes attrs = node->division_attributes();
  // The paper's shape: both sides are A-restrictions of the same base
  // relation with σp'' ⊆ σp'.
  if (minuend->kind() != Kind::kSelect || subtrahend->kind() != Kind::kSelect) return nullptr;
  if (!minuend->child(0)->Equals(*subtrahend->child(0))) return nullptr;
  if (!PredicateOver(minuend->predicate(), attrs.a) ||
      !PredicateOver(subtrahend->predicate(), attrs.a)) {
    return nullptr;
  }
  std::optional<Relation> base = EvaluateIfAllowed(minuend->child(0), context);
  if (!base) return nullptr;
  if (!Select(*base, subtrahend->predicate()).SubsetOf(Select(*base, minuend->predicate()))) {
    return nullptr;
  }
  return LogicalOp::Difference(LogicalOp::Divide(minuend, node->right()),
                               LogicalOp::Divide(subtrahend, node->right()));
}

// ---------------------------------------------------------------- Law 7 ----
PlanPtr ApplyLaw7(const PlanPtr& node, const RewriteContext& context) {
  if (node->kind() != Kind::kDifference) return nullptr;
  const PlanPtr& left = node->left();
  const PlanPtr& right = node->right();
  if (left->kind() != Kind::kDivide || right->kind() != Kind::kDivide) return nullptr;
  if (!left->right()->Equals(*right->right())) return nullptr;  // same divisor
  DivisionAttributes attrs = left->division_attributes();
  if (!ProvablyDisjoint(left->left(), right->left(), attrs.a, context)) return nullptr;
  return left;  // (r1' ÷ r2) − (r1'' ÷ r2) = r1' ÷ r2
}

// ---------------------------------------------------------------- Law 8 ----
PlanPtr ApplyLaw8(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& dividend = node->left();
  if (dividend->kind() != Kind::kProduct) return nullptr;
  const PlanPtr& star = dividend->left();
  const PlanPtr& star_star = dividend->right();
  // All divisor attributes must come from the right factor.
  if (!star_star->schema().ContainsAll(node->right()->schema())) return nullptr;
  // The right factor must keep at least one quotient attribute (A2 may be
  // empty in the paper's statement only if A1 covers A; our Divide requires
  // nonempty A on the inner divide, so guard it).
  if (star_star->schema().NamesMinus(node->right()->schema()).empty()) return nullptr;
  return LogicalOp::Product(star, LogicalOp::Divide(star_star, node->right()));
}

// ---------------------------------------------------------------- Law 9 ----
PlanPtr ApplyLaw9(const PlanPtr& node, const RewriteContext& context) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& dividend = node->left();
  if (dividend->kind() != Kind::kProduct) return nullptr;
  const PlanPtr& star = dividend->left();
  const PlanPtr& star_star = dividend->right();
  const PlanPtr& divisor = node->right();
  // r1** must consist solely of divisor attributes (the B2 block) ...
  std::vector<std::string> b2 = star_star->schema().Names();
  if (!divisor->schema().ContainsAll(star_star->schema())) return nullptr;
  std::vector<std::string> b1 = divisor->schema().NamesMinus(star_star->schema());
  if (b1.empty()) return nullptr;   // B1 must be nonempty
  // ... and r1* must hold those B1 attributes (it is the A ∪ B1 block).
  for (const std::string& name : b1) {
    if (!star->schema().Contains(name)) return nullptr;
  }
  // Preconditions: πB2(r2) ⊆ r1** and r1** ≠ ∅.
  if (!ProvablySubset(divisor, star_star, b2, context)) return nullptr;
  if (!ProvablyNonEmpty(star_star, context)) return nullptr;
  return LogicalOp::Divide(star, LogicalOp::Project(divisor, b1));
}

// --------------------------------------------------------------- Law 10 ----
PlanPtr ApplyLaw10(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kSemiJoin) return nullptr;
  const PlanPtr& divide = node->left();
  if (divide->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& r3 = node->right();
  DivisionAttributes attrs = divide->division_attributes();
  // r3's schema must be within A for the semi-join to commute with ÷.
  if (!divide->left()->schema().Project(attrs.a).ContainsAll(r3->schema())) return nullptr;
  return LogicalOp::Divide(LogicalOp::SemiJoin(divide->left(), r3), divide->right());
}

// --------------------------------------------------------------- Law 11 ----
PlanPtr ApplyLaw11(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& grouped = node->left();
  if (grouped->kind() != Kind::kGroupBy) return nullptr;
  DivisionAttributes attrs = node->division_attributes();
  // r1 = Aγ...(r0): the grouping attributes are exactly the quotient
  // attributes, so A is a key of the dividend.
  if (!SameNameSet(grouped->group_names(), attrs.a)) return nullptr;
  const PlanPtr& divisor = node->right();

  // Compile the three-way case analysis into pure algebra using degenerate
  // semi-joins as guards (⋉ with no common attribute keeps the left side
  // iff the right side is nonempty):
  //   result =   (πA(r1) ⋉ σc=0(γcount(r2)))       -- r2 empty
  //            ∪ (πA(r1 ⋉ r2) ⋉ σc=1(γcount(r2)))  -- |r2| = 1
  //   (both guards empty when |r2| > 1 ⇒ result = ∅).
  const std::string count_attr = divisor->schema().attribute(0).name;
  PlanPtr counted =
      LogicalOp::GroupBy(divisor, {}, {{AggFunc::kCount, count_attr, "c$law11"}});
  PlanPtr guard_empty =
      LogicalOp::Select(counted, Expr::ColCmp("c$law11", CmpOp::kEq, Value::Int(0)));
  PlanPtr guard_one =
      LogicalOp::Select(counted, Expr::ColCmp("c$law11", CmpOp::kEq, Value::Int(1)));
  PlanPtr case_empty = LogicalOp::SemiJoin(LogicalOp::Project(grouped, attrs.a), guard_empty);
  PlanPtr case_one = LogicalOp::SemiJoin(
      LogicalOp::Project(LogicalOp::SemiJoin(grouped, divisor), attrs.a), guard_one);
  return LogicalOp::Union(case_empty, case_one);
}

// --------------------------------------------------------------- Law 12 ----
PlanPtr ApplyLaw12(const PlanPtr& node, const RewriteContext& context) {
  if (node->kind() != Kind::kDivide) return nullptr;
  const PlanPtr& grouped = node->left();
  if (grouped->kind() != Kind::kGroupBy) return nullptr;
  DivisionAttributes attrs = node->division_attributes();
  // r1 = Bγ...(r0): grouping attributes are exactly the divisor attributes,
  // so B is a key of the dividend.
  if (!SameNameSet(grouped->group_names(), attrs.b)) return nullptr;
  const PlanPtr& divisor = node->right();
  // Preconditions: r2 ≠ ∅ and r2.B ⊆ πB(r1) = πB(r0).
  if (!ProvablyNonEmpty(divisor, context)) return nullptr;
  if (!ProvablySubset(divisor, grouped->child(0), attrs.b, context)) return nullptr;

  //   e = πA(r1 ⋉ r2);   result = e ⋉ σc=1(γcount(e))
  PlanPtr e = LogicalOp::Project(LogicalOp::SemiJoin(grouped, divisor), attrs.a);
  PlanPtr counted = LogicalOp::GroupBy(e, {}, {{AggFunc::kCount, attrs.a[0], "c$law12"}});
  PlanPtr guard =
      LogicalOp::Select(counted, Expr::ColCmp("c$law12", CmpOp::kEq, Value::Int(1)));
  return LogicalOp::SemiJoin(e, guard);
}

// --------------------------------------------------------------- Law 13 ----
PlanPtr ApplyLaw13(const PlanPtr& node, const RewriteContext& context) {
  if (node->kind() != Kind::kGreatDivide) return nullptr;
  const PlanPtr& divisor = node->right();
  if (divisor->kind() != Kind::kUnion) return nullptr;
  DivisionAttributes attrs = node->division_attributes();
  if (attrs.c.empty()) return nullptr;
  if (!ProvablyDisjoint(divisor->left(), divisor->right(), attrs.c, context)) return nullptr;
  return LogicalOp::Union(LogicalOp::GreatDivide(node->left(), divisor->left()),
                          LogicalOp::GreatDivide(node->left(), divisor->right()));
}

// ------------------------------------------------------- Laws 14, 15 ----
/// Laws 14 and 15 for a conjunction: the conjuncts of σ's predicate `p`
/// that lie over `attrs` go to `push`, which rebuilds the ÷* with them
/// pushed in, and the rest stay in a σ above it. Each law holds per
/// conjunct, so it holds for the conjunction of those that qualify.
/// nullptr when none does.
template <typename Push>
PlanPtr PushConjunctsOver(const ExprPtr& p, const std::vector<std::string>& attrs,
                          Push&& push) {
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(p, &conjuncts);
  std::vector<ExprPtr> over;
  std::vector<ExprPtr> rest;
  for (ExprPtr& c : conjuncts) (PredicateOver(c, attrs) ? over : rest).push_back(std::move(c));
  if (over.empty()) return nullptr;
  if (rest.empty()) return push(p);
  return LogicalOp::Select(push(Expr::AndAll(std::move(over))), Expr::AndAll(std::move(rest)));
}

PlanPtr ApplyLaw14(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kSelect) return nullptr;
  const PlanPtr& gd = node->child(0);
  if (gd->kind() != Kind::kGreatDivide) return nullptr;
  DivisionAttributes attrs = gd->division_attributes();
  return PushConjunctsOver(node->predicate(), attrs.a, [&](const ExprPtr& over) {
    return LogicalOp::GreatDivide(LogicalOp::Select(gd->left(), over), gd->right());
  });
}

PlanPtr ApplyLaw15(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kSelect) return nullptr;
  const PlanPtr& gd = node->child(0);
  if (gd->kind() != Kind::kGreatDivide) return nullptr;
  DivisionAttributes attrs = gd->division_attributes();
  if (attrs.c.empty()) return nullptr;
  return PushConjunctsOver(node->predicate(), attrs.c, [&](const ExprPtr& over) {
    return LogicalOp::GreatDivide(gd->left(), LogicalOp::Select(gd->right(), over));
  });
}

// --------------------------------------------------------------- Law 16 ----
PlanPtr ApplyLaw16(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kGreatDivide) return nullptr;
  const PlanPtr& divisor = node->right();
  if (divisor->kind() != Kind::kSelect) return nullptr;
  DivisionAttributes attrs = node->division_attributes();
  const ExprPtr& p = divisor->predicate();
  if (!PredicateOver(p, attrs.b)) return nullptr;
  const PlanPtr& dividend = node->left();
  if (dividend->kind() == Kind::kSelect && dividend->predicate()->Equals(*p)) return nullptr;
  return LogicalOp::GreatDivide(LogicalOp::Select(dividend, p), divisor);
}

// --------------------------------------------------------------- Law 17 ----
PlanPtr ApplyLaw17(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kGreatDivide) return nullptr;
  const PlanPtr& dividend = node->left();
  if (dividend->kind() != Kind::kProduct) return nullptr;
  const PlanPtr& star = dividend->left();
  const PlanPtr& star_star = dividend->right();
  DivisionAttributes attrs = node->division_attributes();
  // The divisor's B attributes must all come from the right factor.
  for (const std::string& name : attrs.b) {
    if (!star_star->schema().Contains(name)) return nullptr;
  }
  // The right factor must keep a quotient attribute for the inner ÷*.
  bool star_star_has_a = false;
  for (const std::string& name : attrs.a) {
    if (star_star->schema().Contains(name)) star_star_has_a = true;
  }
  if (!star_star_has_a) return nullptr;
  (void)star;
  return LogicalOp::Product(star, LogicalOp::GreatDivide(star_star, node->right()));
}

// ------------------------------------------------------------ Example 4 ----
PlanPtr ApplyExample4(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kThetaJoin) return nullptr;
  const PlanPtr& left = node->left();
  const PlanPtr& gd = node->right();
  if (gd->kind() != Kind::kGreatDivide) return nullptr;
  DivisionAttributes attrs = gd->division_attributes();
  // The join condition may touch only the outer relation and the quotient's
  // A attributes (which come from the dividend) — then the join commutes
  // with ÷* (Laws 17 + 14 composed, Example 4).
  std::vector<std::string> allowed = left->schema().Names();
  allowed.insert(allowed.end(), attrs.a.begin(), attrs.a.end());
  if (!PredicateOver(node->predicate(), allowed)) return nullptr;
  return LogicalOp::GreatDivide(
      LogicalOp::ThetaJoin(left, gd->left(), node->predicate()), gd->right());
}

// ------------------------------------------------------ Join extraction ----
PlanPtr ApplyJoinExtraction(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kSelect) return nullptr;
  const PlanPtr& join = node->child(0);
  if (join->kind() != Kind::kProduct && join->kind() != Kind::kThetaJoin) return nullptr;
  const Schema& left = join->left()->schema();
  const Schema& right = join->right()->schema();
  std::vector<std::string> left_names = left.Names();
  std::vector<std::string> right_names = right.Names();
  // One-side conjuncts move below the join; the cross-side rest splits into
  // hash keys and the residual that stays on top.
  std::vector<ExprPtr> conjuncts, left_only, right_only, cross;
  Expr::SplitConjuncts(node->predicate(), &conjuncts);
  for (const ExprPtr& conjunct : conjuncts) {
    if (PredicateOver(conjunct, left_names)) {
      left_only.push_back(conjunct);
    } else if (PredicateOver(conjunct, right_names)) {
      right_only.push_back(conjunct);
    } else {
      cross.push_back(conjunct);
    }
  }
  EquiJoinSplit split = SplitEquiJoin(cross, left, right);
  if (left_only.empty() && right_only.empty() && split.left_keys.empty()) return nullptr;

  PlanPtr new_left = join->left();
  if (!left_only.empty()) new_left = LogicalOp::Select(new_left, Expr::AndAll(left_only));
  PlanPtr new_right = join->right();
  if (!right_only.empty()) new_right = LogicalOp::Select(new_right, Expr::AndAll(right_only));
  std::vector<ExprPtr> condition;
  if (join->kind() == Kind::kThetaJoin) condition.push_back(join->predicate());
  for (size_t i = 0; i < split.left_keys.size(); ++i) {
    condition.push_back(Expr::ColEqCol(split.left_keys[i], split.right_keys[i]));
  }
  PlanPtr joined = condition.empty()
                       ? LogicalOp::Product(new_left, new_right)
                       : LogicalOp::ThetaJoin(new_left, new_right, Expr::AndAll(condition));
  if (split.residual.empty()) return joined;
  return LogicalOp::Select(joined, Expr::AndAll(split.residual));
}

// ------------------------------------------------- Healy expansion rule ----
PlanPtr ApplyHealyExpansion(const PlanPtr& node, const RewriteContext&) {
  if (node->kind() != Kind::kDivide) return nullptr;
  DivisionAttributes attrs = node->division_attributes();
  PlanPtr pa = LogicalOp::Project(node->left(), attrs.a);
  return LogicalOp::Difference(
      pa, LogicalOp::Project(
              LogicalOp::Difference(LogicalOp::Product(pa, node->right()), node->left()),
              attrs.a));
}

}  // namespace

RulePtr MakeLaw1DivisorUnionRule() {
  static constexpr RuleInfo kInfo{
      "law1-divisor-union", 1, "r1 \u00f7 (s \u222a t)",
      "pipeline the quotient of one divide into the next instead of dividing by the union"};
  return Rule(kInfo, ApplyLaw1);
}
RulePtr MakeLaw2DividendUnionRule() {
  static constexpr RuleInfo kInfo{
      "law2-dividend-union", 2, "(s \u222a t) \u00f7 r2 with c1/c2",
      "divide the branches independently and union the quotients"};
  return Rule(kInfo, ApplyLaw2);
}
RulePtr MakeLaw3SelectionPushdownRule() {
  static constexpr RuleInfo kInfo{
      "law3-selection-pushdown", 3, "\u03c3p(A)(r1 \u00f7 r2)",
      "filter the dividend before dividing: the divide sees only surviving groups"};
  return Rule(kInfo, ApplyLaw3);
}
RulePtr MakeLaw4ReplicateSelectionRule() {
  static constexpr RuleInfo kInfo{
      "law4-replicate-selection", 4, "r1 \u00f7 \u03c3p(B)(r2)",
      "replicate the divisor's B-selection onto the dividend to shrink both inputs"};
  return Rule(kInfo, ApplyLaw4);
}
RulePtr MakeExample1DividendSelectionRule() {
  static constexpr RuleInfo kInfo{
      "example1-dividend-selection", 0, "\u03c3p(B)(r1) \u00f7 r2",
      "reshape a dividend B-selection into a divisor-side form (Example 1's extreme case)"};
  return Rule(kInfo, ApplyExample1);
}
RulePtr MakeLaw5IntersectRule() {
  static constexpr RuleInfo kInfo{
      "law5-intersect", 5, "(s \u2229 t) \u00f7 r2",
      "divide the smaller operand and semi-join the other instead of materializing the intersection"};
  return Rule(kInfo, ApplyLaw5);
}
RulePtr MakeLaw6DifferenceRule() {
  static constexpr RuleInfo kInfo{
      "law6-difference", 6, "(s \u2212 t) \u00f7 r2 with \u03c3' \u2287 \u03c3''",
      "divide s and prune with t's quotient instead of materializing the difference"};
  return Rule(kInfo, ApplyLaw6);
}
RulePtr MakeLaw7DifferencePruneRule() {
  static constexpr RuleInfo kInfo{
      "law7-difference-prune", 7, "(s \u2212 t) \u00f7 r2 with disjoint projections",
      "drop the subtrahend divide entirely: disjointness makes it empty"};
  return Rule(kInfo, ApplyLaw7);
}
RulePtr MakeLaw8ProductRule() {
  static constexpr RuleInfo kInfo{
      "law8-product", 8, "(s \u00d7 t) \u00f7 r2, divisor-free factor",
      "divide only the factor that shares attributes with the divisor"};
  return Rule(kInfo, ApplyLaw8);
}
RulePtr MakeLaw9ProductRule() {
  static constexpr RuleInfo kInfo{
      "law9-product", 9, "(s \u00d7 t) \u00f7 r2, divisor-covered factor",
      "the covered factor divides to its A-projection when the divisor is contained"};
  return Rule(kInfo, ApplyLaw9);
}
RulePtr MakeLaw10SemiJoinRule() {
  static constexpr RuleInfo kInfo{
      "law10-semijoin", 10, "(r1 \u00f7 r2) \u22c9 s",
      "semi-join the dividend first so the divide only groups surviving candidates"};
  return Rule(kInfo, ApplyLaw10);
}
RulePtr MakeLaw11GroupedDividendRule() {
  static constexpr RuleInfo kInfo{
      "law11-grouped-dividend", 11, "r1 \u00f7 r2 with A a key of r1",
      "one-tuple groups make the divide a guarded semi-join"};
  return Rule(kInfo, ApplyLaw11);
}
RulePtr MakeLaw12GroupedDividendRule() {
  static constexpr RuleInfo kInfo{
      "law12-grouped-dividend", 12, "r1 \u00f7 r2 with B a key + FK",
      "the foreign key guarantees containment: the divide becomes a guarded semi-join"};
  return Rule(kInfo, ApplyLaw12);
}
RulePtr MakeLaw13GreatDivisorUnionRule() {
  static constexpr RuleInfo kInfo{
      "law13-great-divisor-union", 13, "r1 \u00f7* (s \u222a t), C-disjoint",
      "partition the great divide by divisor branch and union the results"};
  return Rule(kInfo, ApplyLaw13);
}
RulePtr MakeLaw14SelectionPushdownRule() {
  static constexpr RuleInfo kInfo{
      "law14-selection-pushdown", 14, "\u03c3p(r1 \u00f7* r2), a conjunct of p over A",
      "filter the dividend by p's A-only conjuncts before the great divide sees it"};
  return Rule(kInfo, ApplyLaw14);
}
RulePtr MakeLaw15DivisorSelectionRule() {
  static constexpr RuleInfo kInfo{
      "law15-divisor-selection", 15, "\u03c3p(r1 \u00f7* r2), a conjunct of p over C",
      "filter the divisor's C-groups by p's C-only conjuncts before they are built"};
  return Rule(kInfo, ApplyLaw15);
}
RulePtr MakeLaw16ReplicateSelectionRule() {
  static constexpr RuleInfo kInfo{
      "law16-replicate-selection", 16, "r1 \u00f7* \u03c3p(B)(r2)",
      "replicate the divisor's B-selection onto the dividend to shrink both inputs"};
  return Rule(kInfo, ApplyLaw16);
}
RulePtr MakeLaw17ProductRule() {
  static constexpr RuleInfo kInfo{
      "law17-product", 17, "(s \u00d7 t) \u00f7* r2",
      "divide only the factor sharing attributes with the divisor"};
  return Rule(kInfo, ApplyLaw17);
}
RulePtr MakeExample4JoinPushRule() {
  static constexpr RuleInfo kInfo{
      "example4-join-push", 0, "(r1 \u00f7* r2) \u22c8 s on A",
      "push an equi-join below the great divide to shrink the dividend (Example 4)"};
  return Rule(kInfo, ApplyExample4);
}
RulePtr MakeJoinExtractionRule() {
  static constexpr RuleInfo kInfo{
      "join-extraction", 0, "\u03c3\u03b8(r \u00d7 s) or \u03c3\u03b8(r \u22c8 s)",
      "push one-side conjuncts below the join and hash on cross-side equalities instead of "
      "materializing the product"};
  return Rule(kInfo, ApplyJoinExtraction);
}
RulePtr MakeDivideToHealyExpansionRule() {
  static constexpr RuleInfo kInfo{
      "divide-to-healy-expansion", 0, "r1 \u00f7 r2",
      "baseline: expand into Healy's basic-algebra form (demonstrates why first-class division wins)"};
  return Rule(kInfo, ApplyHealyExpansion);
}

std::vector<RulePtr> DefaultRuleSet() {
  std::vector<RulePtr> rules;
  // Selection pushdowns first: they shrink inputs for everything else.
  rules.push_back(MakeLaw3SelectionPushdownRule());
  rules.push_back(MakeLaw14SelectionPushdownRule());
  rules.push_back(MakeLaw15DivisorSelectionRule());
  rules.push_back(MakeLaw4ReplicateSelectionRule());
  rules.push_back(MakeLaw16ReplicateSelectionRule());
  // Comma joins: σ over × becomes pushed selections plus a hash-joinable ⋈.
  rules.push_back(MakeJoinExtractionRule());
  // Structural rules over products, joins and set operations.
  rules.push_back(MakeLaw9ProductRule());  // before Law 8: strictly stronger when it fires
  rules.push_back(MakeLaw8ProductRule());
  rules.push_back(MakeLaw17ProductRule());
  rules.push_back(MakeLaw10SemiJoinRule());
  rules.push_back(MakeExample4JoinPushRule());
  rules.push_back(MakeLaw7DifferencePruneRule());
  rules.push_back(MakeLaw6DifferenceRule());
  rules.push_back(MakeLaw5IntersectRule());
  rules.push_back(MakeLaw2DividendUnionRule());
  rules.push_back(MakeLaw13GreatDivisorUnionRule());
  // Grouped-dividend special cases (Laws 11/12) replace ÷ by semi-joins.
  rules.push_back(MakeLaw11GroupedDividendRule());
  rules.push_back(MakeLaw12GroupedDividendRule());
  return rules;
}

std::vector<RulePtr> SearchRuleSet() {
  std::vector<RulePtr> rules = DefaultRuleSet();
  // Reshaping laws: excluded from the greedy fixpoint (they trade one shape
  // for another), admitted under cost-guided search where an unprofitable
  // reshape simply never becomes the cheapest candidate.
  rules.push_back(MakeLaw1DivisorUnionRule());
  rules.push_back(MakeExample1DividendSelectionRule());
  return rules;
}

}  // namespace quotient
