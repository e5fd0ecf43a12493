#include "core/engine.hpp"

#include <functional>

namespace quotient {

RewriteEngine RewriteEngine::Default() { return RewriteEngine(DefaultRuleSet()); }

PlanPtr RewriteEngine::RewriteOnce(const PlanPtr& node, const RewriteContext& context,
                                   RewriteStep* step) const {
  for (const RulePtr& rule : rules_) {
    PlanPtr replacement = rule->Apply(node, context);
    if (replacement != nullptr) {
      if (step != nullptr) {
        step->rule = rule->name();
        step->before = node->ToString();
        step->after = replacement->ToString();
      }
      return replacement;
    }
  }
  // No rule fired here; recurse into children (pre-order).
  const std::vector<PlanPtr>& children = node->children();
  for (size_t i = 0; i < children.size(); ++i) {
    PlanPtr rewritten = RewriteOnce(children[i], context, step);
    if (rewritten != nullptr) {
      std::vector<PlanPtr> new_children = children;
      new_children[i] = std::move(rewritten);
      return node->WithChildren(std::move(new_children));
    }
  }
  return nullptr;
}

PlanPtr RewriteEngine::Rewrite(const PlanPtr& plan, const RewriteContext& context,
                               std::vector<RewriteStep>* trace, size_t max_steps,
                               bool* budget_exhausted) const {
  if (budget_exhausted != nullptr) *budget_exhausted = false;
  PlanPtr current = plan;
  for (size_t i = 0;; ++i) {
    RewriteStep step;
    PlanPtr next = RewriteOnce(current, context, trace != nullptr ? &step : nullptr);
    if (next == nullptr) break;  // converged
    if (i >= max_steps) {
      // A rewrite is still available but the budget is spent: surface it —
      // a silently truncated fixpoint looks exactly like convergence.
      if (budget_exhausted != nullptr) *budget_exhausted = true;
      if (trace != nullptr) trace->push_back({kRewriteBudgetExhausted, "", "", 0});
      break;
    }
    if (trace != nullptr) trace->push_back(std::move(step));
    current = std::move(next);
  }
  return current;
}

std::vector<RewriteAlternative> RewriteEngine::Enumerate(const PlanPtr& plan,
                                                         const RewriteContext& context) const {
  std::vector<RewriteAlternative> out;
  // Recursive walk: at every node try every rule; a match is spliced back
  // into a full root plan through the accumulated rebuild closure.
  std::function<void(const PlanPtr&, const std::function<PlanPtr(PlanPtr)>&)> walk =
      [&](const PlanPtr& node, const std::function<PlanPtr(PlanPtr)>& rebuild) {
        for (const RulePtr& rule : rules_) {
          PlanPtr replacement = rule->Apply(node, context);
          if (replacement == nullptr) continue;
          RewriteAlternative alt;
          alt.step.rule = rule->name();
          alt.before = node;
          alt.after = replacement;
          alt.plan = rebuild(std::move(replacement));
          out.push_back(std::move(alt));
        }
        const std::vector<PlanPtr>& children = node->children();
        for (size_t i = 0; i < children.size(); ++i) {
          auto child_rebuild = [&rebuild, &node, &children, i](PlanPtr p) {
            std::vector<PlanPtr> new_children = children;
            new_children[i] = std::move(p);
            return rebuild(node->WithChildren(std::move(new_children)));
          };
          walk(children[i], child_rebuild);
        }
      };
  walk(plan, [](PlanPtr p) { return p; });
  return out;
}

std::string SummarizeRewrites(const std::vector<RewriteStep>& trace) {
  if (trace.empty()) return "  (none)\n";
  std::string out;
  for (size_t i = 0; i < trace.size(); ++i) {
    out += "  " + std::to_string(i + 1) + ". " + trace[i].rule + "\n";
  }
  return out;
}

}  // namespace quotient
