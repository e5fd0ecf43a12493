#include "exec/iterator.hpp"

#include <numeric>

#include "exec/query_context.hpp"

namespace quotient {

StreamProperties StreamProperties::Set(size_t width) {
  StreamProperties p;
  p.keys.emplace_back(width);
  std::iota(p.keys[0].begin(), p.keys[0].end(), size_t{0});
  return p;
}

void StreamProperties::AddKey(std::vector<size_t> key) {
  std::sort(key.begin(), key.end());
  if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(std::move(key));
}

bool StreamProperties::HoldsKey(const std::vector<size_t>& columns) const {
  return std::any_of(keys.begin(), keys.end(), [&](const std::vector<size_t>& key) {
    return std::all_of(key.begin(), key.end(), [&](size_t c) {
      return std::find(columns.begin(), columns.end(), c) != columns.end();
    });
  });
}

bool StreamProperties::GroupedOn(const std::vector<size_t>& columns) const {
  return columns.size() <= clustering.size() &&
         std::is_permutation(columns.begin(), columns.end(), clustering.begin());
}

StreamProperties StreamProperties::Map(const std::vector<size_t>& from, size_t width) const {
  StreamProperties out = Set(width);
  // Output position of input column c, or from.size() when it is dropped.
  auto to = [&](size_t c) {
    return static_cast<size_t>(std::find(from.begin(), from.end(), c) - from.begin());
  };
  for (const std::vector<size_t>& key : keys) {
    std::vector<size_t> mapped;
    for (size_t c : key) {
      if (to(c) == from.size()) break;
      mapped.push_back(to(c));
    }
    if (mapped.size() == key.size()) out.AddKey(std::move(mapped));
  }
  for (size_t c : clustering) {
    if (to(c) == from.size()) break;
    out.clustering.push_back(to(c));
  }
  return out;
}

void DrainRows(Iterator& it, std::vector<Tuple>* rows) {
  Batch batch;
  Tuple t;
  while (it.NextBatch(&batch)) {
    GovernorPoll();
    GovernorFaultPoint("pipeline.drain");
    for (size_t i = 0; i < batch.ActiveRows(); ++i) {
      batch.ToTuple(batch.RowAt(i), &t);
      rows->push_back(std::move(t));
    }
  }
}

Relation ExecuteToRelation(Iterator& it) {
  it.Open();
  std::vector<Tuple> tuples;
  DrainRows(it, &tuples);
  it.Close();
  return Relation(it.schema(), std::move(tuples));
}

size_t TotalRowsProduced(Iterator& root) {
  size_t total = root.rows_produced();
  for (Iterator* child : root.InputIterators()) total += TotalRowsProduced(*child);
  return total;
}

size_t MaxRowsProduced(Iterator& root) {
  size_t max_rows = root.rows_produced();
  for (Iterator* child : root.InputIterators()) {
    max_rows = std::max(max_rows, MaxRowsProduced(*child));
  }
  return max_rows;
}

size_t MaxPipelineDop(Iterator& root) {
  size_t max_dop = root.pipeline_dop();
  for (Iterator* child : root.InputIterators()) {
    max_dop = std::max(max_dop, MaxPipelineDop(*child));
  }
  return max_dop;
}

namespace {

void Render(Iterator& it, std::string* out, int indent) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += it.name();
  *out += "  rows=" + std::to_string(it.rows_produced());
  // Degree of parallelism of this operator's pipeline drains (recorded by
  // the pipeline executor; 0 = streaming operator).
  if (it.pipeline_dop() > 0) *out += "  dop=" + std::to_string(it.pipeline_dop());
  if (const char* note = it.ExplainNote()) *out += std::string("  ") + note;
  *out += "  " + it.schema().ToString() + "\n";
  for (Iterator* child : it.InputIterators()) Render(*child, out, indent + 1);
}

}  // namespace

std::string ExplainTree(Iterator& root) {
  std::string out;
  Render(root, &out, 0);
  return out;
}

}  // namespace quotient
