#include "exec/exec_join.hpp"

#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"

namespace quotient {

namespace {

/// Batched probe of the hash equi-join: the pairing kernel over the
/// build buckets, resolving each fresh left batch's keys in one pass
/// (BatchKeyProbe). Oversized buckets resume via the cursor's match index.
size_t JoinEmitBatch(Iterator& left, BatchKeyProbe& probe, PairCursor& st,
                     const std::vector<std::vector<Tuple>>& buckets, size_t num_left,
                     size_t num_right, Batch* out) {
  return EmitPairs(
      left, st, num_left, num_right,
      [&](PairCursor& c) {
        c.keys.clear();
        probe.Resolve(c.in, &c.keys);
      },
      [&](size_t i) -> const std::vector<Tuple>* {
        uint32_t key = st.keys[i];
        return key == KeyNumbering::kNotFound ? nullptr : &buckets[key];
      },
      [](const Batch&, uint32_t, const Tuple&) { return true; }, out);
}

}  // namespace

NestedLoopJoinIterator::NestedLoopJoinIterator(IterPtr left, IterPtr right, ExprPtr condition)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())),
      condition_(std::move(condition)) {
  properties_ = PairedProperties(*left_, schema_.size());
}

void NestedLoopJoinIterator::Open() {
  ResetCount();
  left_->Open();
  right_->Open();
  bound_ = std::make_unique<BoundExpr>(condition_, schema_);
  right_rows_.clear();
  right_rows_.reserve(right_->EstimatedRows());
  DrainRows(*right_, &right_rows_);
  GovernorCharge(right_rows_.size() * (right_->schema().size() + 2) * 8);
  cursor_.Reset();
}

bool NestedLoopJoinIterator::NextBatch(Batch* out) {
  if (right_rows_.empty()) return false;
  const size_t num_left = left_->schema().size();
  size_t emitted = EmitPairs(
      *left_, cursor_, num_left, right_->schema().size(), [](PairCursor&) {},
      [&](size_t) { return &right_rows_; },
      [&](const Batch& in, uint32_t row, const Tuple& right) {
        candidate_.resize(num_left);
        for (size_t c = 0; c < num_left; ++c) candidate_[c] = in.At(row, c);
        candidate_.insert(candidate_.end(), right.begin(), right.end());
        return bound_->EvalBool(candidate_);
      },
      out);
  if (emitted == 0) return false;
  CountRows(emitted);
  return true;
}

void NestedLoopJoinIterator::Close() {
  left_->Close();
  right_->Close();
  right_rows_.clear();
}

EquiJoinIterator::EquiJoinIterator(IterPtr left, IterPtr right,
                                   std::vector<std::string> left_keys,
                                   std::vector<std::string> right_keys,
                                   std::vector<std::string> right_out)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema().Project(right_out))),
      left_key_(left_->schema().IndicesOfOrThrow(left_keys)),
      right_key_(right_->schema().IndicesOfOrThrow(right_keys)),
      right_out_(right_->schema().IndicesOfOrThrow(right_out)),
      whole_right_rows_(right_out == right_->schema().Names()) {
  properties_ = PairedProperties(*left_, schema_.size());
  // A left row meets at most one right row when the right key columns
  // hold a right key, so the left keys stay keys; symmetrically for the
  // right keys. A right key column the join does not emit (a natural
  // join's common names) equals its left partner, so maps to it.
  const StreamProperties& lp = left_->properties();
  const StreamProperties& rp = right_->properties();
  if (rp.HoldsKey(right_key_)) {
    for (const std::vector<size_t>& key : lp.keys) properties_.AddKey(key);
  }
  if (lp.HoldsKey(left_key_)) {
    std::vector<size_t> from(schema_.size(), SIZE_MAX);
    for (size_t i = 0; i < left_key_.size(); ++i) from[left_key_[i]] = right_key_[i];
    for (size_t j = 0; j < right_out_.size(); ++j) from[left_->schema().size() + j] = right_out_[j];
    for (std::vector<size_t>& key : rp.Map(from, schema_.size()).keys) {
      properties_.AddKey(std::move(key));
    }
  }
}

std::unique_ptr<EquiJoinIterator> EquiJoinIterator::Natural(IterPtr left, IterPtr right) {
  std::vector<std::string> common = left->schema().CommonNames(right->schema());
  std::vector<std::string> right_only = right->schema().NamesMinus(left->schema());
  return std::make_unique<EquiJoinIterator>(std::move(left), std::move(right), common, common,
                                            std::move(right_only));
}

std::shared_ptr<JoinBuildArtifact> EquiJoinIterator::BuildArtifact() {
  auto art = std::make_shared<JoinBuildArtifact>();
  right_->Open();
  art->codec = KeyCodec(right_key_.size());
  art->codec.Reserve(right_->EstimatedRows());
  std::vector<Tuple> right_rows;
  right_rows.reserve(right_->EstimatedRows());
  // Build pipeline: key columns into the codec plus each build row's
  // emitted columns (whole rows when every right column is emitted).
  JoinBuildSink sink(&art->codec, &right_key_, whole_right_rows_ ? nullptr : &right_out_,
                     &right_rows);
  PipelineStats stats = RunPipeline(*right_, sink);
  RecordPipelineDop(stats.dop);
  // Mirror the sink's materialized-tuple charge so publication can hand
  // it from the building query to the recycler's budget.
  art->extra_charge = stats.rows * (right_out_.size() + 2) * 8;
  art->codec.Seal();
  art->numbering.Build(art->codec);
  art->buckets.assign(art->numbering.count(), {});
  for (size_t i = 0; i < right_rows.size(); ++i) {
    art->buckets[art->numbering.row_ids()[i]].push_back(std::move(right_rows[i]));
  }
  return art;
}

void EquiJoinIterator::Open() {
  ResetCount();
  left_->Open();
  build_.reset();
  // Adopt-or-build the right side; a hit skips the right child entirely
  // (it is never opened — Close() on an unopened child is a no-op).
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.build_shape, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildArtifact(); });
    if (cached) build_ = std::static_pointer_cast<const JoinBuildArtifact>(cached);
  }
  if (!build_) build_ = BuildArtifact();
  probe_.Bind(&build_->numbering, &build_->codec, &left_key_);
  cursor_.Reset();
}

bool EquiJoinIterator::NextBatch(Batch* out) {
  size_t emitted = JoinEmitBatch(*left_, probe_, cursor_, build_->buckets,
                                 left_->schema().size(), right_out_.size(), out);
  if (emitted == 0) return false;
  CountRows(emitted);
  return true;
}

void EquiJoinIterator::Close() {
  left_->Close();
  right_->Close();
  build_.reset();
}

HashSemiJoinIterator::HashSemiJoinIterator(IterPtr left, IterPtr right, bool anti)
    : left_(std::move(left)), right_(std::move(right)), anti_(anti) {
  std::vector<std::string> common = left_->schema().CommonNames(right_->schema());
  left_key_ = left_->schema().IndicesOfOrThrow(common);
  right_key_ = right_->schema().IndicesOfOrThrow(common);
  properties_ = left_->properties();  // a subsequence of the left stream
}

std::shared_ptr<JoinBuildArtifact> HashSemiJoinIterator::BuildArtifact() {
  auto art = std::make_shared<JoinBuildArtifact>();
  right_->Open();
  art->codec = KeyCodec(right_key_.size());
  art->codec.Reserve(right_->EstimatedRows());
  // Build pipeline: the key codec doubles as the membership set.
  CodecAppendSink sink(&art->codec, &right_key_);
  PipelineStats stats = RunPipeline(*right_, sink);
  RecordPipelineDop(stats.dop);
  art->right_empty = stats.rows == 0;
  art->codec.Seal();
  art->numbering.Build(art->codec);
  return art;
}

void HashSemiJoinIterator::Open() {
  ResetCount();
  left_->Open();
  build_.reset();
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.build_shape, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildArtifact(); });
    if (cached) build_ = std::static_pointer_cast<const JoinBuildArtifact>(cached);
  }
  if (!build_) build_ = BuildArtifact();
  probe_.Bind(&build_->numbering, &build_->codec, &left_key_);
}

bool HashSemiJoinIterator::NextBatch(Batch* out) {
  while (left_->NextBatch(out)) {
    if (left_key_.empty()) {
      // Appendix A degenerate form: keep everything iff the right side is
      // nonempty (flipped for the anti join).
      if (build_->right_empty != anti_) continue;
    } else {
      batch_keys_.clear();
      probe_.Resolve(*out, &batch_keys_);
      out->Narrow([&](size_t i, uint32_t) {
        return (batch_keys_[i] != KeyNumbering::kNotFound) != anti_;
      });
    }
    if (out->ActiveRows() > 0) {
      CountRows(out->ActiveRows());
      return true;
    }
  }
  return false;
}

void HashSemiJoinIterator::Close() {
  left_->Close();
  right_->Close();
  build_.reset();
}

}  // namespace quotient
