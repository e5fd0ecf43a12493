#include "core/laws.hpp"

#include <unordered_map>
#include <unordered_set>

#include "util/status.hpp"

namespace quotient {
namespace laws {

namespace {

/// Empty relation over the A attributes of a division r1 ÷ r2.
Relation EmptyQuotient(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  return Relation(r1.schema().Project(attrs.a));
}

}  // namespace

// ---------------------------------------------------------------- Law 1 ----
Relation Law1Lhs(const Relation& r1, const Relation& r2p, const Relation& r2pp) {
  return Divide(r1, Union(r2p, r2pp));
}

Relation Law1Rhs(const Relation& r1, const Relation& r2p, const Relation& r2pp) {
  return Divide(SemiJoin(r1, Divide(r1, r2p)), r2pp);
}

// ---------------------------------------------------------------- Law 2 ----
bool ConditionC1(const Relation& r1p, const Relation& r1pp, const Relation& r2) {
  DivisionAttributes attrs =
      DivisionAttributeSets(r1p.schema(), r2.schema(), /*allow_c=*/false);
  std::vector<size_t> a_p = r1p.schema().IndicesOfOrThrow(attrs.a);
  std::vector<size_t> b_p = r1p.schema().IndicesOfOrThrow(attrs.b);
  std::vector<size_t> a_pp = r1pp.schema().IndicesOfOrThrow(attrs.a);
  std::vector<size_t> b_pp = r1pp.schema().IndicesOfOrThrow(attrs.b);
  std::vector<size_t> d_idx = r2.schema().IndicesOfOrThrow(attrs.b);

  using ImageMap =
      std::unordered_map<Tuple, std::unordered_set<Tuple, TupleHash, TupleEq>, TupleHash, TupleEq>;
  ImageMap images_p, images_pp;
  for (const Tuple& t : r1p.tuples()) images_p[ProjectTuple(t, a_p)].insert(ProjectTuple(t, b_p));
  for (const Tuple& t : r1pp.tuples())
    images_pp[ProjectTuple(t, a_pp)].insert(ProjectTuple(t, b_pp));

  std::vector<Tuple> divisor;
  for (const Tuple& t : r2.tuples()) divisor.push_back(ProjectTuple(t, d_idx));

  auto covers = [&](const std::unordered_set<Tuple, TupleHash, TupleEq>& image) {
    for (const Tuple& d : divisor)
      if (!image.count(d)) return false;
    return true;
  };

  for (const auto& [a, image_p] : images_p) {
    auto it = images_pp.find(a);
    if (it == images_pp.end()) continue;  // a not in both partitions
    const auto& image_pp = it->second;
    if (covers(image_p) || covers(image_pp)) continue;
    // Neither partition alone covers r2; c1 demands the union not cover it.
    std::unordered_set<Tuple, TupleHash, TupleEq> merged = image_p;
    merged.insert(image_pp.begin(), image_pp.end());
    if (covers(merged)) return false;
  }
  return true;
}

bool ConditionC2(const Relation& r1p, const Relation& r1pp, const Relation& r2) {
  if (!r1p.schema().SameAttributeSet(r1pp.schema())) {
    throw SchemaError("c2 requires both dividend partitions to share a schema");
  }
  DivisionAttributes attrs =
      DivisionAttributeSets(r1p.schema(), r2.schema(), /*allow_c=*/false);
  return Intersect(Project(r1p, attrs.a), Project(r1pp, attrs.a)).empty();
}

Relation Law2Lhs(const Relation& r1p, const Relation& r1pp, const Relation& r2) {
  return Divide(Union(r1p, r1pp), r2);
}

Relation Law2Rhs(const Relation& r1p, const Relation& r1pp, const Relation& r2) {
  return Union(Divide(r1p, r2), Divide(r1pp, r2));
}

// ---------------------------------------------------------------- Law 3 ----
Relation Law3Lhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return Select(Divide(r1, r2), p);
}

Relation Law3Rhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return Divide(Select(r1, p), r2);
}

// ---------------------------------------------------------------- Law 4 ----
Relation Law4Lhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return Divide(r1, Select(r2, p));
}

Relation Law4Rhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return Divide(Select(r1, p), Select(r2, p));
}

bool Law4Precondition(const Relation& r2, const ExprPtr& p) {
  return !Select(r2, p).empty();
}

// ------------------------------------------------------------ Example 1 ----
Relation Example1Lhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return Divide(Select(r1, p), r2);
}

Relation Example1Rhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  Relation matching = Divide(Select(r1, p), Select(r2, p));
  Relation blocker = Project(Product(Project(r1, attrs.a), Select(r2, Expr::Not(p))), attrs.a);
  return Difference(matching, blocker);
}

// ---------------------------------------------------------------- Law 5 ----
Relation Law5Lhs(const Relation& r1p, const Relation& r1pp, const Relation& r2) {
  return Divide(Intersect(r1p, r1pp), r2);
}

Relation Law5Rhs(const Relation& r1p, const Relation& r1pp, const Relation& r2) {
  return Intersect(Divide(r1p, r2), Divide(r1pp, r2));
}

// ---------------------------------------------------------------- Law 6 ----
Relation Law6Lhs(const Relation& r1, const ExprPtr& p_prime, const ExprPtr& p_double_prime,
                 const Relation& r2) {
  return Divide(Difference(Select(r1, p_prime), Select(r1, p_double_prime)), r2);
}

Relation Law6Rhs(const Relation& r1, const ExprPtr& p_prime, const ExprPtr& p_double_prime,
                 const Relation& r2) {
  return Difference(Divide(Select(r1, p_prime), r2), Divide(Select(r1, p_double_prime), r2));
}

bool Law6Precondition(const Relation& r1, const ExprPtr& p_prime,
                      const ExprPtr& p_double_prime) {
  return Select(r1, p_double_prime).SubsetOf(Select(r1, p_prime));
}

// ---------------------------------------------------------------- Law 7 ----
Relation Law7Lhs(const Relation& r1p, const Relation& r1pp, const Relation& r2) {
  return Difference(Divide(r1p, r2), Divide(r1pp, r2));
}

Relation Law7Rhs(const Relation& r1p, const Relation& r1pp, const Relation& r2) {
  return Divide(r1p, r2);
}

// ---------------------------------------------------------------- Law 8 ----
Relation Law8Lhs(const Relation& r1_star, const Relation& r1_star_star, const Relation& r2) {
  return Divide(Product(r1_star, r1_star_star), r2);
}

Relation Law8Rhs(const Relation& r1_star, const Relation& r1_star_star, const Relation& r2) {
  return Product(r1_star, Divide(r1_star_star, r2));
}

// ---------------------------------------------------------------- Law 9 ----
Relation Law9Lhs(const Relation& r1_star, const Relation& r1_star_star, const Relation& r2) {
  return Divide(Product(r1_star, r1_star_star), r2);
}

Relation Law9Rhs(const Relation& r1_star, const Relation& r1_star_star, const Relation& r2) {
  std::vector<std::string> b1 = r2.schema().NamesMinus(r1_star_star.schema());
  return Divide(r1_star, Project(r2, b1));
}

bool Law9Precondition(const Relation& r1_star_star, const Relation& r2) {
  std::vector<std::string> b2 = r1_star_star.schema().Names();
  return !r1_star_star.empty() && Project(r2, b2).SubsetOf(r1_star_star);
}

// ------------------------------------------------------------ Example 2 ----
Relation Example2Lhs(const Relation& r1, const Relation& r2, const Relation& s) {
  return Divide(Product(r1, s), Product(r2, s));
}

Relation Example2Rhs(const Relation& r1, const Relation& r2, const Relation& s) {
  (void)s;
  return Divide(r1, r2);
}

// --------------------------------------------------------------- Law 10 ----
Relation Law10Lhs(const Relation& r1, const Relation& r2, const Relation& r3) {
  return SemiJoin(Divide(r1, r2), r3);
}

Relation Law10Rhs(const Relation& r1, const Relation& r2, const Relation& r3) {
  return Divide(SemiJoin(r1, r3), r2);
}

// --------------------------------------------------------------- Law 11 ----
Relation Law11Lhs(const Relation& r1, const Relation& r2) { return Divide(r1, r2); }

Relation Law11Rhs(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  if (r2.empty()) return Project(r1, attrs.a);
  if (r2.size() == 1) return Project(SemiJoin(r1, r2), attrs.a);
  return EmptyQuotient(r1, r2);
}

bool Law11Precondition(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  return Project(r1, attrs.a).size() == r1.size();  // A is a key of r1
}

// --------------------------------------------------------------- Law 12 ----
Relation Law12Lhs(const Relation& r1, const Relation& r2) { return Divide(r1, r2); }

Relation Law12Rhs(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  Relation e = Project(SemiJoin(r1, r2), attrs.a);
  if (e.size() == 1) return e;
  return EmptyQuotient(r1, r2);
}

bool Law12Precondition(const Relation& r1, const Relation& r2) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2.schema(), /*allow_c=*/false);
  if (r2.empty()) return false;  // implicit in the paper's case analysis
  if (Project(r1, attrs.b).size() != r1.size()) return false;  // B is a key of r1
  return Project(r2, attrs.b).SubsetOf(Project(r1, attrs.b));  // r2.B is an FK into r1
}

// --------------------------------------------------------------- Law 13 ----
Relation Law13Lhs(const Relation& r1, const Relation& r2p, const Relation& r2pp) {
  return GreatDivide(r1, Union(r2p, r2pp));
}

Relation Law13Rhs(const Relation& r1, const Relation& r2p, const Relation& r2pp) {
  return Union(GreatDivide(r1, r2p), GreatDivide(r1, r2pp));
}

bool Law13Precondition(const Relation& r1, const Relation& r2p, const Relation& r2pp) {
  DivisionAttributes attrs = DivisionAttributeSets(r1.schema(), r2p.schema(), /*allow_c=*/true);
  if (attrs.c.empty()) return false;
  return Intersect(Project(r2p, attrs.c), Project(r2pp, attrs.c)).empty();
}

// --------------------------------------------------------------- Law 14 ----
Relation Law14Lhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return Select(GreatDivide(r1, r2), p);
}

Relation Law14Rhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return GreatDivide(Select(r1, p), r2);
}

// --------------------------------------------------------------- Law 15 ----
Relation Law15Lhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return Select(GreatDivide(r1, r2), p);
}

Relation Law15Rhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return GreatDivide(r1, Select(r2, p));
}

// --------------------------------------------------------------- Law 16 ----
Relation Law16Lhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return GreatDivide(r1, Select(r2, p));
}

Relation Law16Rhs(const Relation& r1, const Relation& r2, const ExprPtr& p) {
  return GreatDivide(Select(r1, p), Select(r2, p));
}

// --------------------------------------------------------------- Law 17 ----
Relation Law17Lhs(const Relation& r1_star, const Relation& r1_star_star, const Relation& r2) {
  return GreatDivide(Product(r1_star, r1_star_star), r2);
}

Relation Law17Rhs(const Relation& r1_star, const Relation& r1_star_star, const Relation& r2) {
  return Product(r1_star, GreatDivide(r1_star_star, r2));
}

// ------------------------------------------------------------ Example 3 ----
Relation Example3Lhs(const Relation& r1_star, const Relation& r1_star_star,
                     const Relation& r2) {
  ExprPtr theta = Expr::Compare(CmpOp::kLt, Expr::Column("b1"), Expr::Column("b2"));
  return Divide(ThetaJoin(r1_star, r1_star_star, theta), r2);
}

Relation Example3Rhs(const Relation& r1_star, const Relation& r1_star_star,
                     const Relation& r2) {
  (void)r1_star_star;  // eliminated by the rewrite — that is the point
  ExprPtr lt = Expr::Compare(CmpOp::kLt, Expr::Column("b1"), Expr::Column("b2"));
  ExprPtr ge = Expr::Compare(CmpOp::kGe, Expr::Column("b1"), Expr::Column("b2"));
  Relation left = Divide(r1_star, Project(Select(r2, lt), {"b1"}));
  Relation right = Project(Product(Project(r1_star, {"a"}), Select(r2, ge)), {"a"});
  return Difference(left, right);
}

// ------------------------------------------------------------ Example 4 ----
Relation Example4Lhs(const Relation& r1_star, const Relation& r1_star_star,
                     const Relation& r2) {
  ExprPtr theta = Expr::ColEqCol("a1", "a2");
  return ThetaJoin(r1_star, GreatDivide(r1_star_star, r2), theta);
}

Relation Example4Rhs(const Relation& r1_star, const Relation& r1_star_star,
                     const Relation& r2) {
  ExprPtr theta = Expr::ColEqCol("a1", "a2");
  return GreatDivide(ThetaJoin(r1_star, r1_star_star, theta), r2);
}

}  // namespace laws
}  // namespace quotient
