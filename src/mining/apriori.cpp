#include "mining/apriori.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "algebra/divide.hpp"
#include "exec/exec_great_divide.hpp"
#include "algebra/ops.hpp"
#include "sql/interp.hpp"
#include "util/status.hpp"

namespace quotient {
namespace mining {

const char* SupportCountingName(SupportCounting method) {
  switch (method) {
    case SupportCounting::kGreatDivide: return "GreatDivide";
    case SupportCounting::kHashProbe: return "HashProbe";
    case SupportCounting::kSqlDivide: return "SqlDivide";
  }
  return "?";
}

Apriori::Apriori(Relation transactions, int64_t min_support, SupportCounting method)
    : transactions_(std::move(transactions)), min_support_(min_support), method_(method) {
  if (transactions_.schema().size() != 2 ||
      transactions_.schema().attribute(0).name != "tid" ||
      transactions_.schema().attribute(1).name != "item") {
    throw SchemaError("Apriori expects a transactions(tid, item) relation");
  }
}

std::vector<std::vector<int64_t>> Apriori::GenerateCandidates(
    const std::vector<std::vector<int64_t>>& frequent_previous) {
  // Classic Apriori-gen: join L_{k-1} pairs sharing the first k-2 items,
  // then prune candidates with an infrequent (k-1)-subset.
  std::vector<std::vector<int64_t>> candidates;
  std::set<std::vector<int64_t>> previous(frequent_previous.begin(), frequent_previous.end());
  for (size_t i = 0; i < frequent_previous.size(); ++i) {
    for (size_t j = i + 1; j < frequent_previous.size(); ++j) {
      const std::vector<int64_t>& a = frequent_previous[i];
      const std::vector<int64_t>& b = frequent_previous[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1)) continue;
      std::vector<int64_t> merged = a;
      merged.push_back(b.back());
      if (merged[merged.size() - 2] > merged.back()) {
        std::swap(merged[merged.size() - 2], merged[merged.size() - 1]);
      }
      // Prune: every (k-1)-subset must be frequent.
      bool all_frequent = true;
      for (size_t drop = 0; drop + 2 < merged.size() && all_frequent; ++drop) {
        std::vector<int64_t> subset;
        for (size_t m = 0; m < merged.size(); ++m) {
          if (m != drop) subset.push_back(merged[m]);
        }
        all_frequent = previous.count(subset) > 0;
      }
      if (all_frequent) candidates.push_back(std::move(merged));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  return candidates;
}

Relation Apriori::CandidatesRelation(const std::vector<std::vector<int64_t>>& candidates) {
  std::vector<Tuple> rows;
  for (size_t c = 0; c < candidates.size(); ++c) {
    for (int64_t item : candidates[c]) {
      rows.push_back({Value::Int(item), Value::Int(static_cast<int64_t>(c))});
    }
  }
  return Relation(Schema::Parse("item, itemset"), std::move(rows));
}

std::vector<int64_t> Apriori::CountViaGreatDivide(
    const std::vector<std::vector<int64_t>>& candidates) {
  // §3: quotient = transactions ÷* candidates, then count tids per itemset.
  // Uses the physical hash great divide (one dividend pass) rather than the
  // definitional group-at-a-time evaluator.
  Relation quotient = ExecGreatDivide(transactions_, CandidatesRelation(candidates));
  Relation counts = GroupBy(quotient, {"itemset"}, {{AggFunc::kCount, "tid", "support"}});
  std::vector<int64_t> support(candidates.size(), 0);
  size_t itemset_idx = counts.schema().IndexOfOrThrow("itemset");
  size_t support_idx = counts.schema().IndexOfOrThrow("support");
  for (const Tuple& t : counts.tuples()) {
    support[static_cast<size_t>(t[itemset_idx].as_int())] = t[support_idx].as_int();
  }
  return support;
}

std::vector<int64_t> Apriori::CountViaHashProbe(
    const std::vector<std::vector<int64_t>>& candidates) {
  // Baseline: materialize each transaction's item set, probe each candidate.
  std::unordered_map<int64_t, std::unordered_set<int64_t>> baskets;
  for (const Tuple& t : transactions_.tuples()) {
    baskets[t[0].as_int()].insert(t[1].as_int());
  }
  std::vector<int64_t> support(candidates.size(), 0);
  for (const auto& [tid, basket] : baskets) {
    for (size_t c = 0; c < candidates.size(); ++c) {
      bool contains = true;
      for (int64_t item : candidates[c]) {
        if (!basket.count(item)) {
          contains = false;
          break;
        }
      }
      if (contains) support[c] += 1;
    }
  }
  return support;
}

std::vector<int64_t> Apriori::CountViaSql(
    const std::vector<std::vector<int64_t>>& candidates) {
  Catalog catalog;
  catalog.Put("transactions", transactions_);
  catalog.Put("candidates", CandidatesRelation(candidates));
  // The §3/§4 query, verbatim shape:
  Result<Relation> counts = sql::ExecuteSql(
      "SELECT itemset, COUNT(tid) AS support "
      "FROM (SELECT tid, itemset FROM transactions AS t DIVIDE BY candidates AS c "
      "      ON t.item = c.item) AS q "
      "GROUP BY itemset",
      catalog);
  if (!counts.ok()) throw SchemaError("mining SQL failed: " + counts.error());
  std::vector<int64_t> support(candidates.size(), 0);
  const Relation& r = counts.value();
  size_t itemset_idx = r.schema().IndexOfOrThrow("itemset");
  size_t support_idx = r.schema().IndexOfOrThrow("support");
  for (const Tuple& t : r.tuples()) {
    support[static_cast<size_t>(t[itemset_idx].as_int())] = t[support_idx].as_int();
  }
  return support;
}

std::vector<int64_t> Apriori::CountSupport(
    const std::vector<std::vector<int64_t>>& candidates) {
  if (candidates.empty()) return {};
  switch (method_) {
    case SupportCounting::kGreatDivide: return CountViaGreatDivide(candidates);
    case SupportCounting::kHashProbe: return CountViaHashProbe(candidates);
    case SupportCounting::kSqlDivide: return CountViaSql(candidates);
  }
  return {};
}

std::vector<FrequentItemset> Apriori::Run() {
  std::vector<FrequentItemset> result;

  // Level 1: plain item frequencies.
  std::map<int64_t, int64_t> item_counts;
  for (const Tuple& t : transactions_.tuples()) item_counts[t[1].as_int()] += 1;
  std::vector<std::vector<int64_t>> frequent;
  for (const auto& [item, count] : item_counts) {
    if (count >= min_support_) {
      frequent.push_back({item});
      result.push_back({{item}, count});
    }
  }

  // Levels k >= 2: generate, count, filter.
  while (!frequent.empty()) {
    std::vector<std::vector<int64_t>> candidates = GenerateCandidates(frequent);
    if (candidates.empty()) break;
    std::vector<int64_t> support = CountSupport(candidates);
    std::vector<std::vector<int64_t>> next;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (support[c] >= min_support_) {
        next.push_back(candidates[c]);
        result.push_back({candidates[c], support[c]});
      }
    }
    frequent = std::move(next);
  }

  std::sort(result.begin(), result.end(), [](const FrequentItemset& a, const FrequentItemset& b) {
    if (a.items.size() != b.items.size()) return a.items.size() < b.items.size();
    return a.items < b.items;
  });
  return result;
}

}  // namespace mining
}  // namespace quotient
