#include "exec/exec_great_divide.hpp"

#include <algorithm>

#include "exec/exec_basic.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "util/status.hpp"

namespace quotient {

namespace {

std::vector<size_t> IndicesOf(const Schema& schema, const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) indices.push_back(schema.IndexOfOrThrow(name));
  return indices;
}

uint64_t SetSignature(const std::vector<Value>& elements) {
  uint64_t signature = 0;
  for (const Value& v : elements) signature |= uint64_t{1} << (v.Hash() & 63);
  return signature;
}

}  // namespace

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
  a_idx_ = IndicesOf(dividend_->schema(), attrs.a);
  b_idx_ = IndicesOf(dividend_->schema(), attrs.b);
  divisor_b_idx_ = IndicesOf(divisor_->schema(), attrs.b);
  divisor_c_idx_ = IndicesOf(divisor_->schema(), attrs.c);
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
  art->member_of.assign(art->b.count(), {});
  for (size_t i = 0; i < art->b_codec.rows(); ++i) {
    uint32_t gid = art->c.row_ids()[i];
    art->group_sizes[gid] += 1;
    art->member_of[art->b.row_ids()[i]].push_back(gid);
  }
  return art;
}

std::shared_ptr<GreatDivideProbeArtifact> GreatDivideIterator::BuildProbeArtifact() {
  auto art = std::make_shared<GreatDivideProbeArtifact>();

  // Divisor side first: adopt a cached build artifact or build (and keep)
  // a private one — the kernel reads it, so the probe artifact pins it.
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.build_shape, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildDivisorArtifact(); });
    if (cached) art->build = std::static_pointer_cast<const GreatDivideBuildArtifact>(cached);
  }
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
  GovernorTicker ticker;
  for (size_t i = 0; i < probe.row_b.rows(); ++i) {
    ticker.Tick();
    uint32_t b = probe.row_b.At(i);
    if (b == KeyNumbering::kNotFound) continue;
    uint32_t* row = &counts[size_t{probe.a.row_ids()[i]} * k];
    for (uint32_t gid : build.member_of[b]) row[gid] += 1;
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

Relation ExecGreatDivide(const Relation& dividend, const Relation& divisor,
                         TableEncodingPtr dividend_enc, TableEncodingPtr divisor_enc) {
  GreatDivideIterator it(
      std::make_unique<RelationScan>(BorrowRelation(dividend), std::move(dividend_enc)),
      std::make_unique<RelationScan>(BorrowRelation(divisor), std::move(divisor_enc)));
  return ExecuteToRelation(it);
}

Relation GreatDividePartitioned(const Relation& dividend, const Relation& divisor,
                                size_t threads, TableEncodingPtr dividend_enc) {
  if (threads == 0) throw SchemaError("GreatDividePartitioned needs threads >= 1");
  DivisionAttributes attrs =
      DivisionAttributeSets(dividend.schema(), divisor.schema(), /*allow_c=*/true);
  if (attrs.c.empty()) throw SchemaError("GreatDividePartitioned requires C attributes");

  // Hash-partition the divisor on C. Projections of the partitions on C are
  // disjoint, so by Law 13 the union of the partial results is the answer.
  std::vector<size_t> c_idx = IndicesOf(divisor.schema(), attrs.c);
  std::vector<std::vector<Tuple>> parts(threads);
  TupleHash hasher;
  for (const Tuple& t : divisor.tuples()) {
    parts[hasher(ProjectTuple(t, c_idx)) % threads].push_back(t);
  }

  // One shared dividend encoding: workers translate from it instead of each
  // re-encoding the full dividend (read-only after Build, so no locking).
  if (dividend_enc == nullptr) {
    dividend_enc = TableEncoding::Build(dividend);
  }

  // Partitions run as tasks on the shared worker pool (exec/scheduler.hpp);
  // the per-partition divisions detect they are on a pool worker and drain
  // inline, so the partitioned strategy composes with the morsel-parallel
  // pipelines without re-entering the pool.
  std::vector<Relation> partial(threads);
  ParallelFor(threads, [&](size_t i) {
    Relation part(divisor.schema(), std::move(parts[i]));
    if (part.empty()) {
      partial[i] = Relation(dividend.schema().Project(attrs.a).Concat(
          divisor.schema().Project(attrs.c)));
    } else {
      partial[i] = ExecGreatDivide(dividend, part, dividend_enc);
    }
  });

  std::vector<Tuple> all;
  for (const Relation& r : partial) {
    all.insert(all.end(), r.tuples().begin(), r.tuples().end());
  }
  return Relation(dividend.schema().Project(attrs.a).Concat(divisor.schema().Project(attrs.c)),
                  std::move(all));
}

SetContainmentJoinIterator::SetContainmentJoinIterator(IterPtr left, std::string left_set_attr,
                                                       IterPtr right,
                                                       std::string right_set_attr)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())),
      left_idx_(left_->schema().IndexOfOrThrow(left_set_attr)),
      right_idx_(right_->schema().IndexOfOrThrow(right_set_attr)) {
  if (left_->schema().attribute(left_idx_).type != ValueType::kSet ||
      right_->schema().attribute(right_idx_).type != ValueType::kSet) {
    throw SchemaError("SetContainmentJoinIterator requires set-valued join attributes");
  }
}

void SetContainmentJoinIterator::Open() {
  ResetCount();
  results_.clear();
  position_ = 0;
  left_->Open();
  right_->Open();

  std::vector<Tuple> lhs;
  DrainRows(*left_, &lhs);
  std::vector<Tuple> rhs;
  DrainRows(*right_, &rhs);
  std::vector<uint64_t> rhs_sigs;
  rhs_sigs.reserve(rhs.size());
  for (const Tuple& t2 : rhs) rhs_sigs.push_back(SetSignature(t2[right_idx_].as_set()));

  for (const Tuple& t1 : lhs) {
    const std::vector<Value>& s1 = t1[left_idx_].as_set();
    uint64_t sig1 = SetSignature(s1);
    for (size_t j = 0; j < rhs.size(); ++j) {
      const Tuple& t2 = rhs[j];
      uint64_t sig2 = rhs_sigs[j];
      // Signature filter: containment implies sig2's bits ⊆ sig1's bits.
      if ((sig1 & sig2) != sig2) continue;
      const std::vector<Value>& s2 = t2[right_idx_].as_set();
      if (std::includes(s1.begin(), s1.end(), s2.begin(), s2.end())) {
        results_.push_back(ConcatTuples(t1, t2));
      }
    }
  }
}

bool SetContainmentJoinIterator::NextBatch(Batch* out) {
  if (!EmitResultBatch(results_, &position_, out)) return false;
  CountRows(out->ActiveRows());
  return true;
}

void SetContainmentJoinIterator::Close() {
  left_->Close();
  right_->Close();
  results_.clear();
}

}  // namespace quotient
