#include "exec/exec_agg.hpp"

#include <numeric>

#include "exec/batch.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"

namespace quotient {

namespace {

/// The grouping state of one aggregation: group keys numbered densely by
/// their keyer (the group number is the key id), plus the flat per-(group,
/// spec) AggState array.
struct GroupState {
  explicit GroupState(size_t group_cols) : keys(group_cols) {}

  BatchIncrementalKeyer keys;
  std::vector<AggState> states;
};

/// Grouping sink for RunPipeline: numbers each batch's group keys and folds
/// the rows' arguments into their groups' states.
class AggregateSink : public PipelineSink {
 public:
  AggregateSink(GroupState* target, const std::vector<AggSpec>* aggs,
                const std::vector<size_t>* group_indices,
                const std::vector<size_t>* arg_indices)
      : target_(target), aggs_(aggs), group_indices_(group_indices), arg_indices_(arg_indices) {}

  void Consume(const Batch& batch) override {
    GovernorFaultPoint("sink.aggregate");
    const size_t na = aggs_->size();
    // The per-batch key scratch is transient; only group-state growth is
    // retained: the keyer charges the new keys, this sink their states.
    ScopedCharge transient;
    transient.Add(batch.ActiveRows() * (group_indices_->size() + na) * 8);
    GroupState& gs = *target_;
    size_t before = gs.keys.size();
    gs.keys.Keys(batch, group_indices_, &gids_);
    gs.states.resize(gs.keys.size() * na);
    size_t n = batch.ActiveRows();
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = batch.RowAt(i);
      for (size_t j = 0; j < na; ++j) {
        AggAccumulate((*aggs_)[j], batch.At(row, (*arg_indices_)[j]),
                      &gs.states[size_t{gids_[i]} * na + j]);
      }
    }
    GovernorCharge((gs.keys.size() - before) * na * 8);
  }

 private:
  GroupState* target_;
  const std::vector<AggSpec>* aggs_;
  const std::vector<size_t>* group_indices_;
  const std::vector<size_t>* arg_indices_;
  std::vector<uint32_t> gids_;
};

}  // namespace

HashAggregateIterator::HashAggregateIterator(IterPtr child, std::vector<std::string> group_names,
                                             std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_names_(std::move(group_names)),
      aggs_(std::move(aggs)),
      schema_(GroupByOutputSchema(child_->schema(), group_names_, aggs_)) {
  for (const std::string& name : group_names_) {
    group_indices_.push_back(child_->schema().IndexOfOrThrow(name));
  }
  arg_indices_ = AggArgIndices(child_->schema(), aggs_);
  // One row per group, group columns first: they are a key (an empty one,
  // at most one row, for a global aggregate).
  properties_ = StreamProperties::Set(schema_.size());
  std::vector<size_t> groups(group_indices_.size());
  std::iota(groups.begin(), groups.end(), size_t{0});
  properties_.AddKey(std::move(groups));
}

std::shared_ptr<GroupingArtifact> HashAggregateIterator::BuildArtifact() {
  auto art = std::make_shared<GroupingArtifact>();
  child_->Open();

  // Online hash aggregation: group keys are incrementally dictionary-encoded
  // and interned to dense group numbers; per-group aggregate states live in
  // one flat array. Nothing is materialized but the output.
  GroupState groups(group_indices_.size());
  const size_t na = aggs_.size();
  AggregateSink sink(&groups, &aggs_, &group_indices_, &arg_indices_);
  RecordPipelineDop(RunPipeline(*child_, sink).dop);

  size_t num_groups = groups.keys.size();
  // Mirror the sink's retained group-state charge so publication can hand
  // it from the building query to the recycler's budget.
  art->extra_charge = num_groups * (group_indices_.size() + na) * 8;
  if (group_names_.empty() && num_groups == 0) {
    // GγF with no group attributes produces one global row even for empty
    // input (count = 0, sum/min/max/avg NULL).
    Tuple global;
    for (size_t j = 0; j < na; ++j) global.push_back(AggFinish(aggs_[j], AggState{}));
    art->rows.push_back(std::move(global));
    return art;
  }
  art->rows.reserve(num_groups);
  for (uint32_t gid = 0; gid < num_groups; ++gid) {
    Tuple t;
    t.reserve(group_indices_.size() + na);
    groups.keys.Decode(gid, &t);
    for (size_t j = 0; j < na; ++j) {
      t.push_back(AggFinish(aggs_[j], groups.states[size_t{gid} * na + j]));
    }
    art->rows.push_back(std::move(t));
  }
  return art;
}

void HashAggregateIterator::Open() {
  ResetCount();
  position_ = 0;
  grouping_.reset();
  // Adopt-or-build; a hit skips the child entirely (it is never opened —
  // Close() on an unopened child is a no-op in every iterator).
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.build_shape, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildArtifact(); });
    if (cached) grouping_ = std::static_pointer_cast<const GroupingArtifact>(cached);
  }
  if (!grouping_) grouping_ = BuildArtifact();
}

bool HashAggregateIterator::NextBatch(Batch* out) {
  if (!EmitResultBatch(grouping_->rows, &position_, out)) return false;
  CountRows(out->ActiveRows());
  return true;
}

void HashAggregateIterator::Close() {
  child_->Close();
  grouping_.reset();
}

}  // namespace quotient
