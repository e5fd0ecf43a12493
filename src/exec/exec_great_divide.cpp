#include "exec/exec_great_divide.hpp"

#include <algorithm>

#include "exec/division_runs.hpp"
#include "exec/exec_basic.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "util/status.hpp"

namespace quotient {

GreatDivideIterator::GreatDivideIterator(IterPtr dividend, IterPtr divisor)
    : dividend_(std::move(dividend)), divisor_(std::move(divisor)) {
  DivisionAttributes attrs =
      DivisionAttributeSets(dividend_->schema(), divisor_->schema(), /*allow_c=*/true);
  if (attrs.c.empty()) {
    throw SchemaError(
        "GreatDivideIterator requires divisor group attributes C; use DivisionIterator for the "
        "small divide");
  }
  schema_ = dividend_->schema().Project(attrs.a).Concat(divisor_->schema().Project(attrs.c));
  a_idx_ = dividend_->schema().IndicesOfOrThrow(attrs.a);
  b_idx_ = dividend_->schema().IndicesOfOrThrow(attrs.b);
  divisor_b_idx_ = divisor_->schema().IndicesOfOrThrow(attrs.b);
  divisor_c_idx_ = divisor_->schema().IndicesOfOrThrow(attrs.c);
  clustered_ = dividend_->properties().GroupedOn(a_idx_);
  properties_ = StreamProperties::Set(schema_.size());
}

std::shared_ptr<GreatDivideBuildArtifact> GreatDivideIterator::BuildDivisorArtifact() {
  // Build pipeline: dictionary-encode the divisor's B and C columns (one
  // pass feeding both codecs) and number both key spaces densely
  // (exec/pipeline.hpp).
  auto art = std::make_shared<GreatDivideBuildArtifact>();
  divisor_->Open();
  art->b_codec = KeyCodec(divisor_b_idx_.size());
  art->c_codec = KeyCodec(divisor_c_idx_.size());
  size_t divisor_expected = divisor_->EstimatedRows();
  art->b_codec.Reserve(divisor_expected);
  art->c_codec.Reserve(divisor_expected);
  CodecAppendSink sink(&art->b_codec, &divisor_b_idx_);
  sink.AddTarget(&art->c_codec, &divisor_c_idx_);
  RecordPipelineDop(RunPipeline(*divisor_, sink).dop);
  art->b_codec.Seal();
  art->c_codec.Seal();

  art->b.Build(art->b_codec);
  art->c.Build(art->c_codec);
  art->group_sizes.assign(art->c.count(), 0);
  art->member_begin.assign(art->b.count() + 2, 0);
  for (size_t i = 0; i < art->b_codec.rows(); ++i) {
    art->group_sizes[art->c.row_ids()[i]] += 1;
    art->member_begin[art->b.row_ids()[i] + 1] += 1;
  }
  for (size_t j = 1; j < art->member_begin.size(); ++j) {
    art->member_begin[j] += art->member_begin[j - 1];
  }
  art->member_groups.resize(art->b_codec.rows());
  std::vector<uint32_t> fill(art->member_begin.begin(), art->member_begin.end() - 1);
  for (size_t i = 0; i < art->b_codec.rows(); ++i) {
    art->member_groups[fill[art->b.row_ids()[i]]++] = art->c.row_ids()[i];
  }
  return art;
}

std::shared_ptr<const GreatDivideBuildArtifact> GreatDivideIterator::AdoptDivisorArtifact() {
  if (recycle_.recycler == nullptr || recycle_.build_key.empty()) return nullptr;
  ArtifactPtr cached = recycle_.recycler->GetOrBuild(
      recycle_.build_key, recycle_.build_shape, recycle_.tables,
      [&]() -> std::shared_ptr<RecycledArtifact> { return BuildDivisorArtifact(); });
  return std::static_pointer_cast<const GreatDivideBuildArtifact>(cached);
}

std::shared_ptr<GreatDivideProbeArtifact> GreatDivideIterator::BuildProbeArtifact() {
  auto art = std::make_shared<GreatDivideProbeArtifact>();

  // Divisor side first: adopt a cached build artifact or build (and keep)
  // a private one — the kernel reads it, so the probe artifact pins it.
  art->build = AdoptDivisorArtifact();
  if (!art->build) {
    art->owned_build = BuildDivisorArtifact();
    art->build = art->owned_build;
  }

  // Probe pipeline: drain the dividend once, interning A keys and
  // resolving each row's B columns to a divisor B number (or a miss).
  dividend_->Open();
  art->a_codec = KeyCodec(a_idx_.size());
  size_t expected = dividend_->EstimatedRows();
  art->a_codec.Reserve(expected);
  art->row_b.Reserve(expected);
  ProbeAppendSink sink(&art->a_codec, &a_idx_, &art->build->b, &art->build->b_codec, &b_idx_,
                       &art->row_b);
  RecordPipelineDop(RunPipeline(*dividend_, sink).dop);
  art->a_codec.Seal();
  art->a.Build(art->a_codec);
  return art;
}

void GreatDivideIterator::Open() {
  ResetCount();
  results_.clear();
  position_ = 0;

  if (clustered_) {
    std::shared_ptr<const GreatDivideBuildArtifact> build = AdoptDivisorArtifact();
    if (!build) build = BuildDivisorArtifact();
    GovernorFaultPoint("divide.bitmap_fill");
    dividend_->Open();
    DivisionRunSink sink(*build, &a_idx_, &b_idx_, &results_);
    RecordPipelineDop(RunPipeline(*dividend_, sink).dop);
    sink.Finish();
    return;
  }

  // Adopt-or-build the full encoded probe state; a probe hit skips both
  // child drains (the children are never opened — Close() on an unopened
  // child is a no-op in every iterator).
  if (recycle_.recycler && !recycle_.probe_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.probe_key, recycle_.probe_shape, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildProbeArtifact(); });
    probe_ = cached ? std::static_pointer_cast<const GreatDivideProbeArtifact>(cached)
                    : BuildProbeArtifact();
  } else {
    probe_ = BuildProbeArtifact();
  }

  RunHash(*probe_->build, *probe_);
}

void GreatDivideIterator::RunHash(const GreatDivideBuildArtifact& build,
                                  const GreatDivideProbeArtifact& probe) {
  // One pass over the dividend maintaining a (candidate × group) match-count
  // matrix; each divisor B number knows which C groups it belongs to.
  size_t k = build.c.count();
  size_t candidates = probe.a.count();
  if (k == 0) return;  // empty divisor: no C groups, empty result
  GovernorFaultPoint("divide.bitmap_fill");
  GovernorCharge(candidates * k * sizeof(uint32_t));  // the match-count matrix
  std::vector<uint32_t> counts(candidates * k, 0);
  const uint32_t* begin = build.member_begin.data();
  const uint32_t* members = build.member_groups.data();
  size_t misses = build.b.count();  // the empty member range
  GovernorTicker ticker;
  for (size_t i = 0; i < probe.row_b.rows(); ++i) {
    ticker.Tick();
    size_t b = std::min<size_t>(probe.row_b.At(i), misses);
    uint32_t* row = &counts[size_t{probe.a.row_ids()[i]} * k];
    for (uint32_t j = begin[b]; j < begin[b + 1]; ++j) row[members[j]] += 1;
  }
  for (uint32_t cand = 0; cand < candidates; ++cand) {
    const uint32_t* row = &counts[size_t{cand} * k];
    Tuple a_tuple;  // decoded lazily: most candidates qualify for no group
    for (size_t gid = 0; gid < k; ++gid) {
      if (row[gid] != build.group_sizes[gid]) continue;
      if (a_tuple.empty()) a_tuple = probe.a.KeyTuple(cand);
      results_.push_back(ConcatTuples(a_tuple, build.c.KeyTuple(static_cast<uint32_t>(gid))));
    }
  }
}

bool GreatDivideIterator::NextBatch(Batch* out) {
  if (!EmitResultBatch(results_, &position_, out)) return false;
  CountRows(out->ActiveRows());
  return true;
}

void GreatDivideIterator::Close() {
  dividend_->Close();
  divisor_->Close();
  results_.clear();
  probe_.reset();
}

Relation ExecGreatDivide(const Relation& dividend, const Relation& divisor) {
  GreatDivideIterator it(std::make_unique<RelationScan>(BorrowRelation(dividend)),
                         std::make_unique<RelationScan>(BorrowRelation(divisor)));
  return ExecuteToRelation(it);
}

}  // namespace quotient
