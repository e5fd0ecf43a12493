#include "exec/exec_agg.hpp"

#include "exec/batch.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"

namespace quotient {

namespace {

/// The grouping state of one aggregation: incrementally encoded group keys
/// interned to dense group numbers, plus the flat per-(group, spec) AggState
/// array. The global state and each parallel chunk's partial hold one.
struct GroupState {
  explicit GroupState(size_t group_cols) : encoder(group_cols) {}

  size_t num_groups() const {
    return encoder.fits64() ? groups64.size() : groups_spill.size();
  }

  IncrementalKeyEncoder encoder;
  KeyInterner<uint64_t> groups64;
  KeyInterner<SmallByteKey> groups_spill;
  std::vector<AggState> states;
};

/// Folds one batch's rows into `gs` using its pre-resolved group keys.
void FoldBatch(const Batch& batch, const std::vector<uint64_t>& keys64,
               const std::vector<SmallByteKey>& keys_spill, const std::vector<AggSpec>& aggs,
               const std::vector<size_t>& arg_indices, GroupState* gs) {
  const size_t na = aggs.size();
  const bool fits64 = gs->encoder.fits64();
  size_t n = batch.ActiveRows();
  for (size_t i = 0; i < n; ++i) {
    uint32_t gid = fits64 ? gs->groups64.Intern(keys64[i]) : gs->groups_spill.Intern(keys_spill[i]);
    if (size_t{gid} * na >= gs->states.size()) gs->states.resize(gs->states.size() + na);
    uint32_t row = batch.RowAt(i);
    for (size_t j = 0; j < na; ++j) {
      AggAccumulate(aggs[j], batch.At(row, arg_indices[j]), &gs->states[size_t{gid} * na + j]);
    }
  }
}

/// Grouping sink for RunPipeline: chunks aggregate into local GroupStates,
/// and the merge re-interns each chunk's groups (in local first-seen order,
/// chunks in index order — i.e. global row order) into the target state,
/// AggMerge-ing the partial accumulators. Refuses to parallelize when a
/// sum/avg argument is floating point, where re-associated addition could
/// diverge from the serial fold.
class AggregateSink : public PipelineSink {
 public:
  AggregateSink(GroupState* target, const std::vector<AggSpec>* aggs,
                const std::vector<size_t>* group_indices,
                const std::vector<size_t>* arg_indices, bool exact)
      : target_(target),
        aggs_(aggs),
        group_indices_(group_indices),
        arg_indices_(arg_indices),
        exact_(exact),
        serial_keyer_(&target->encoder, group_indices->size()) {}

  bool AllowParallel() const override { return exact_; }

  void ConsumeSerial(const Batch& batch) override {
    GovernorFaultPoint("sink.aggregate");
    const size_t width = (group_indices_->size() + aggs_->size()) * 8;
    // The per-batch key scratch is transient; only group-state growth is
    // retained, so only that delta stays charged after the fold.
    ScopedCharge transient;
    transient.Add(batch.ActiveRows() * width);
    serial_keyer_.Keys(batch, group_indices_, &keys64_, &keys_spill_);
    size_t before = target_->num_groups();
    FoldBatch(batch, keys64_, keys_spill_, *aggs_, *arg_indices_, target_);
    GovernorCharge((target_->num_groups() - before) * width);
  }

  std::unique_ptr<SinkChunk> MakeChunk(size_t /*rows*/) override {
    return std::make_unique<Chunk>(group_indices_->size());
  }

  void Consume(SinkChunk& chunk, const Batch& batch) override {
    GovernorFaultPoint("sink.aggregate");
    Chunk& c = static_cast<Chunk&>(chunk);
    const size_t width = (group_indices_->size() + aggs_->size()) * 8;
    ScopedCharge transient;
    transient.Add(batch.ActiveRows() * width);
    c.keyer.Keys(batch, group_indices_, &c.keys64, &c.keys_spill);
    size_t before = c.part.num_groups();
    FoldBatch(batch, c.keys64, c.keys_spill, *aggs_, *arg_indices_, &c.part);
    // Chunk-local partials live until Merge folds them into the target;
    // their charge is scoped to the chunk and released there.
    c.part_charge.Add((c.part.num_groups() - before) * width);
  }

  void Merge(SinkChunk& chunk) override {
    Chunk& c = static_cast<Chunk&>(chunk);
    const size_t na = aggs_->size();
    const size_t nc = group_indices_->size();
    // Both encoders are built over the same group columns, so they always
    // agree on the key representation.
    const bool fits64 = target_->encoder.fits64();
    size_t local_groups = c.part.num_groups();
    // Lazy per-column translation of chunk-local dictionary ids into the
    // target encoder's id space — one Value intern per distinct chunk
    // value, an array load per group key id afterwards.
    std::vector<std::vector<uint32_t>> xlat(nc);
    for (size_t col = 0; col < nc; ++col) {
      xlat[col].assign(c.part.encoder.dict(col).size(), ValueDict::kNotFound);
    }
    std::vector<uint32_t> ids(nc);
    SmallByteKey spill;
    size_t target_before = target_->num_groups();
    for (uint32_t gid = 0; gid < local_groups; ++gid) {
      for (size_t col = 0; col < nc; ++col) {
        uint32_t local_id =
            fits64 ? static_cast<uint32_t>(c.part.groups64.At(gid) >> (32 * col))
                   : c.part.groups_spill.At(gid).IdAt(col);
        uint32_t& slot = xlat[col][local_id];
        if (slot == ValueDict::kNotFound) {
          slot = target_->encoder.InternValue(col, c.part.encoder.dict(col).At(local_id));
        }
        ids[col] = slot;
      }
      uint32_t global;
      if (fits64) {
        global = target_->groups64.Intern(target_->encoder.PackIds(ids.data()));
      } else {
        target_->encoder.SpillFromIds(ids.data(), &spill);
        global = target_->groups_spill.Intern(spill);
      }
      if (size_t{global} * na >= target_->states.size()) {
        target_->states.resize(target_->states.size() + na);
      }
      for (size_t j = 0; j < na; ++j) {
        AggMerge(c.part.states[size_t{gid} * na + j],
                 &target_->states[size_t{global} * na + j]);
      }
    }
    GovernorCharge((target_->num_groups() - target_before) * (nc + na) * 8);
    c.part_charge.ReleaseNow();
  }

 private:
  struct Chunk : SinkChunk {
    explicit Chunk(size_t group_cols) : part(group_cols), keyer(&part.encoder, group_cols) {}
    GroupState part;
    BatchIncrementalKeyer keyer;
    std::vector<uint64_t> keys64;
    std::vector<SmallByteKey> keys_spill;
    ScopedCharge part_charge;
  };

  GroupState* target_;
  const std::vector<AggSpec>* aggs_;
  const std::vector<size_t>* group_indices_;
  const std::vector<size_t>* arg_indices_;
  bool exact_;
  BatchIncrementalKeyer serial_keyer_;
  std::vector<uint64_t> keys64_;
  std::vector<SmallByteKey> keys_spill_;
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
}

std::shared_ptr<GroupingArtifact> HashAggregateIterator::BuildArtifact() {
  auto art = std::make_shared<GroupingArtifact>();
  child_->Open();

  // Online hash aggregation: group keys are incrementally dictionary-encoded
  // and interned to dense group numbers; per-group aggregate states live in
  // one flat array. Nothing is materialized but the output. Serial and
  // chunked drains resolve group keys through translation arrays into the
  // same encoder id space, so grouping is identical at every thread count.
  GroupState groups(group_indices_.size());
  const size_t na = aggs_.size();
  // Parallel merges re-associate additions; only exact (integer) sums may
  // take the chunked path.
  bool exact = true;
  for (size_t j = 0; j < na; ++j) {
    if (aggs_[j].fn != AggFunc::kSum && aggs_[j].fn != AggFunc::kAvg) continue;
    if (child_->schema().attribute(arg_indices_[j]).type != ValueType::kInt) exact = false;
  }
  AggregateSink sink(&groups, &aggs_, &group_indices_, &arg_indices_, exact);
  RecordPipelineDop(RunPipeline(*child_, sink).dop);

  size_t num_groups = groups.num_groups();
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
    if (groups.encoder.fits64()) {
      groups.encoder.Decode(groups.groups64.At(gid), &t);
    } else {
      groups.encoder.Decode(groups.groups_spill.At(gid), &t);
    }
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
