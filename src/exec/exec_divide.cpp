#include "exec/exec_divide.hpp"

#include <type_traits>

#include "exec/division_runs.hpp"
#include "exec/exec_basic.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "util/bitmap.hpp"
#include "util/status.hpp"

namespace quotient {

namespace {

/// r1 ÷ ∅ = πA(r1): emit every distinct candidate.
template <typename AView, typename Numbering>
void EmitDistinctCandidates(const AView& aview, Numbering& candidates, size_t rows,
                            std::vector<Tuple>* results) {
  for (size_t i = 0; i < rows; ++i) candidates.Intern(aview.RowKey(i));
  for (uint32_t id = 0; id < candidates.size(); ++id) {
    results->push_back(aview.codec->DecodeTuple(candidates.At(id)));
  }
}

// Hash-division: divisor tuples are numbered 0..n-1; each quotient candidate
// keeps a bitmap of the divisor numbers seen in its group. Candidates are
// numbered densely (identity when A is a single dictionary column, interned
// otherwise), so the bitmaps live in one contiguous matrix.
template <typename AView, typename Numbering>
void RunHash(const AView& aview, Numbering& candidates, const SpilledU32Store& row_b,
             size_t rows, size_t n, std::vector<Tuple>* results) {
  GovernorFaultPoint("divide.bitmap_fill");
  // The seen-bitmap matrix. Dense numbering knows every candidate up front;
  // an interner learns them in the loop, so rows past the pre-charged ones
  // are charged as they are added.
  size_t row_bytes = (n + 7) / 8;
  size_t charged_rows = candidates.size();
  GovernorCharge(charged_rows * row_bytes);
  BitmapMatrix seen(n);
  seen.Reserve(charged_rows);
  GovernorTicker ticker;
  for (size_t i = 0; i < rows; ++i) {
    ticker.Tick();
    uint32_t b = row_b.At(i);
    if (b == KeyNumbering::kNotFound) continue;  // b not in divisor: cannot help
    uint32_t cand = candidates.Intern(aview.RowKey(i));
    while (cand >= seen.rows()) {
      if (seen.rows() == charged_rows) {
        GovernorCharge(row_bytes);
        ++charged_rows;
      }
      seen.AddRow();
    }
    seen.Set(cand, b);
  }
  for (uint32_t id = 0; id < seen.rows(); ++id) {
    if (seen.RowAll(id)) results->push_back(aview.codec->DecodeTuple(candidates.At(id)));
  }
}

}  // namespace

DivisionIterator::DivisionIterator(IterPtr dividend, IterPtr divisor)
    : dividend_(std::move(dividend)), divisor_(std::move(divisor)) {
  DivisionAttributes attrs =
      DivisionAttributeSets(dividend_->schema(), divisor_->schema(), /*allow_c=*/false);
  schema_ = dividend_->schema().Project(attrs.a);
  a_idx_ = dividend_->schema().IndicesOfOrThrow(attrs.a);
  b_idx_ = dividend_->schema().IndicesOfOrThrow(attrs.b);
  divisor_idx_ = divisor_->schema().IndicesOfOrThrow(attrs.b);
  clustered_ = dividend_->properties().GroupedOn(a_idx_);
  properties_ = StreamProperties::Set(schema_.size());
}

std::shared_ptr<DivisionBuildArtifact> DivisionIterator::BuildDivisorArtifact() {
  // Build pipeline: dictionary-encode the divisor's B tuples
  // (exec/pipeline.hpp).
  auto art = std::make_shared<DivisionBuildArtifact>();
  divisor_->Open();
  art->codec = KeyCodec(divisor_idx_.size());
  art->codec.Reserve(divisor_->EstimatedRows());
  CodecAppendSink sink(&art->codec, &divisor_idx_);
  RecordPipelineDop(RunPipeline(*divisor_, sink).dop);
  art->codec.Seal();
  art->numbers.Build(art->codec);
  return art;
}

std::shared_ptr<const DivisionBuildArtifact> DivisionIterator::GetDivisorArtifact() {
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.build_shape, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildDivisorArtifact(); });
    if (cached) return std::static_pointer_cast<const DivisionBuildArtifact>(cached);
  }
  return BuildDivisorArtifact();
}

std::shared_ptr<DivisionProbeArtifact> DivisionIterator::BuildProbeArtifact(
    const DivisionBuildArtifact& build) {
  // Probe pipeline: drain the dividend once, interning A keys and
  // resolving each row's B columns to a divisor number (kNotFound when any
  // value never occurs in the divisor).
  auto art = std::make_shared<DivisionProbeArtifact>();
  dividend_->Open();
  art->a_codec = KeyCodec(a_idx_.size());
  size_t expected = dividend_->EstimatedRows();
  art->a_codec.Reserve(expected);
  art->row_b.Reserve(expected);
  ProbeAppendSink sink(&art->a_codec, &a_idx_, &build.numbers, &build.codec, &b_idx_,
                       &art->row_b);
  RecordPipelineDop(RunPipeline(*dividend_, sink).dop);
  art->a_codec.Seal();
  art->divisor_count = build.numbers.count();
  return art;
}

void DivisionIterator::Open() {
  ResetCount();
  results_.clear();
  position_ = 0;

  if (clustered_) {
    std::shared_ptr<const DivisionBuildArtifact> build = GetDivisorArtifact();
    GovernorFaultPoint("divide.bitmap_fill");
    dividend_->Open();
    DivisionRunSink sink(*build, &a_idx_, &b_idx_, &results_);
    RecordPipelineDop(RunPipeline(*dividend_, sink).dop);
    sink.Finish();
    return;
  }

  // Adopt-or-build both encoded phases. A probe-artifact hit skips BOTH
  // child drains (the children are never opened; Close() on an unopened
  // child is a no-op in every iterator). A build hit still drains the
  // dividend, probing against the shared divisor table.
  if (recycle_.recycler && !recycle_.probe_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.probe_key, recycle_.probe_shape, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> {
          return BuildProbeArtifact(*GetDivisorArtifact());
        });
    probe_ = cached ? std::static_pointer_cast<const DivisionProbeArtifact>(cached)
                    : BuildProbeArtifact(*GetDivisorArtifact());
  } else {
    probe_ = BuildProbeArtifact(*GetDivisorArtifact());
  }

  const KeyCodec& a_codec = probe_->a_codec;
  const SpilledU32Store& row_b = probe_->row_b;
  size_t rows = a_codec.rows();
  size_t n = probe_->divisor_count;
  WithKeyView(a_codec, [&](auto aview) {
    using K = typename decltype(aview)::Key;
    auto run = [&](auto& candidates) {
      if (n == 0) {
        // r1 ÷ ∅ = πA(r1) under Codd's semantics.
        EmitDistinctCandidates(aview, candidates, rows, &results_);
        return;
      }
      RunHash(aview, candidates, row_b, rows, n, &results_);
    };
    if constexpr (std::is_same_v<K, uint64_t>) {
      if (a_codec.keys_are_dense_ids()) {
        DenseNumbering candidates{a_codec.dict(0).size()};
        run(candidates);
        return;
      }
    }
    KeyInterner<K> candidates;
    run(candidates);
  });
}

bool DivisionIterator::NextBatch(Batch* out) {
  if (!EmitResultBatch(results_, &position_, out)) return false;
  CountRows(out->ActiveRows());
  return true;
}

void DivisionIterator::Close() {
  dividend_->Close();
  divisor_->Close();
  results_.clear();
  probe_.reset();
}

Relation ExecDivide(const Relation& dividend, const Relation& divisor,
                    TableEncodingPtr dividend_enc, TableEncodingPtr divisor_enc) {
  DivisionIterator it(
      std::make_unique<RelationScan>(BorrowRelation(dividend), std::move(dividend_enc)),
      std::make_unique<RelationScan>(BorrowRelation(divisor), std::move(divisor_enc)));
  return ExecuteToRelation(it);
}

}  // namespace quotient
