// EXPLAIN walk-through: how the rewrite engine applies the paper's laws to
// plans containing division operators, with before/after plans, cost
// estimates, and physical-execution row counts.

#include <cstdio>
#include <vector>

#include "algebra/generator.hpp"
#include "api/session.hpp"
#include "core/engine.hpp"
#include "opt/optimizer.hpp"

using namespace quotient;

namespace {

void Explain(const char* title, const PlanPtr& plan, const Catalog& catalog) {
  std::printf("================ %s\noriginal plan:\n%s\n", title, plan->ToString().c_str());
  Optimizer optimizer(catalog);
  OptimizationReport report;
  ExecProfile profile;
  Relation result = optimizer.Run(plan, &profile, &report);
  std::printf("%s\n", report.Explain().c_str());
  std::printf("execution (rows per operator):\n%s", profile.explain.c_str());
  std::printf("result: %zu tuples\n\n", result.size());
}

}  // namespace

int main() {
  DataGen gen(3);
  Catalog catalog;
  Relation r2 = gen.Divisor(/*size=*/6, /*domain=*/24);
  // Plant full-divisor groups so the quotients are nonempty.
  catalog.Put("r1", gen.DividendWithHits(/*groups=*/200, /*hit_groups=*/30, r2,
                                         /*domain=*/24, /*density=*/0.4));
  catalog.Put("r2", r2);
  catalog.Put("star", Relation::Parse("z", "1; 2; 3"));
  catalog.Put("gd", gen.GreatDivisor(/*groups=*/4, /*domain=*/24, /*density=*/0.25));

  // Law 3: selection above a division is pushed into the dividend.
  Explain("Law 3: selection push-down",
          LogicalOp::Select(
              LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"), LogicalOp::Scan(catalog, "r2")),
              Expr::ColCmp("a", CmpOp::kLt, V(20))),
          catalog);

  // Law 8: division of a product pushes to the divisor-carrying factor.
  Explain("Law 8: divide through product",
          LogicalOp::Divide(
              LogicalOp::Product(LogicalOp::Scan(catalog, "star"), LogicalOp::Scan(catalog, "r1")),
              LogicalOp::Scan(catalog, "r2")),
          catalog);

  // Laws 14/15 on the great divide.
  Explain("Law 15: divisor-group selection push-down",
          LogicalOp::Select(LogicalOp::GreatDivide(LogicalOp::Scan(catalog, "r1"),
                                                   LogicalOp::Scan(catalog, "gd")),
                            Expr::ColCmp("c", CmpOp::kEq, V(2))),
          catalog);

  // Law 11: division over a freshly grouped dividend becomes semi-joins.
  catalog.Put("r0", gen.RandomRelation(Schema::Parse("a, x"), 400, 50));
  catalog.Put("one", Relation::Parse("b", "25"));
  Explain("Law 11: grouped dividend",
          LogicalOp::Divide(LogicalOp::GroupBy(LogicalOp::Scan(catalog, "r0"), {"a"},
                                               {{AggFunc::kSum, "x", "b"}}),
                            LogicalOp::Scan(catalog, "one")),
          catalog);

  // Law 4 replicates a divisor selection onto the dividend only when the
  // selected divisor is provably nonempty (condition c1). The optimizer
  // proves preconditions from declared metadata alone; evaluating data for
  // c1 is the §5.1.1 trade-off, shown here on the fixpoint rewrite driver
  // with runtime checks allowed.
  {
    PlanPtr plan = LogicalOp::Divide(
        LogicalOp::Scan(catalog, "r1"),
        LogicalOp::Select(LogicalOp::Scan(catalog, "r2"), Expr::ColCmp("b", CmpOp::kLt, V(12))));
    std::printf("================ Law 4: replicate divisor selection (runtime c1 check)\n"
                "original plan:\n%s\n", plan->ToString().c_str());
    std::vector<RewriteStep> trace;
    PlanPtr rewritten = RewriteEngine::Default().Rewrite(
        plan, RewriteContext{&catalog, /*allow_runtime_checks=*/true}, &trace);
    std::printf("applied rewrites:\n%s\nrewritten plan:\n%s\n", SummarizeRewrites(trace).c_str(),
                rewritten->ToString().c_str());
    std::printf("result: %zu tuples (original plan: %zu)\n\n",
                ExecutePlan(rewritten, catalog).size(), ExecutePlan(plan, catalog).size());
  }

  // The same machinery from SQL: the Session front door runs EXPLAIN as a
  // statement, so clients see the rewrite trace without building plans.
  Session session;
  session.CreateTable("r1", catalog.Get("r1"));
  session.CreateTable("r2", catalog.Get("r2"));
  Result<QueryResult> explained = session.Execute(
      "EXPLAIN SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b WHERE a < 20");
  if (explained.ok()) {
    std::printf("================ the same Law 3 pushdown, via SQL EXPLAIN\n");
    for (const Tuple& line : explained.value().rows.tuples()) {
      std::printf("%s\n", line[1].ToString().c_str());
    }
  }
  return 0;
}
