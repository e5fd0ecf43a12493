#include "exec/exec_divide.hpp"

#include "exec/division_runs.hpp"
#include "exec/exec_basic.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "util/bitmap.hpp"
#include "util/status.hpp"

namespace quotient {

namespace {

// Hash-division: divisor keys are numbered 0..n-1; each quotient candidate
// keeps a bitmap of the divisor numbers seen in its group. Candidates are
// numbered densely as the dividend drained (row_a), so the bitmaps live in
// one contiguous matrix, in candidate order.
void RunHash(const DivisionProbeArtifact& probe, std::vector<Tuple>* results) {
  const IncrementalKeyEncoder& a = probe.a;
  const size_t n = probe.divisor_count;
  if (n == 0) {
    // r1 ÷ ∅ = πA(r1) under Codd's semantics: every row's candidate was
    // numbered.
    for (uint32_t id = 0; id < a.size(); ++id) results->push_back(a.KeyTuple(id));
    return;
  }
  GovernorFaultPoint("divide.bitmap_fill");
  GovernorCharge(a.size() * ((n + 7) / 8));  // the seen-bitmap matrix
  BitmapMatrix seen(n, a.size());
  GovernorTicker ticker;
  for (size_t i = 0; i < probe.row_b.rows(); ++i) {
    ticker.Tick();
    uint32_t b = probe.row_b.At(i);
    if (b == IncrementalKeyEncoder::kNotFound) continue;  // b not in divisor: cannot help
    seen.Set(probe.row_a.At(i), b);
  }
  for (uint32_t id = 0; id < seen.rows(); ++id) {
    if (seen.RowAll(id)) results->push_back(a.KeyTuple(id));
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
  // Build pipeline: number the divisor's B keys (exec/pipeline.hpp).
  auto art = std::make_shared<DivisionBuildArtifact>();
  divisor_->Open();
  BatchIncrementalKeyer keyer(divisor_idx_.size());
  KeyerSink sink(&keyer, &divisor_idx_);
  RecordPipelineDop(RunPipeline(*divisor_, sink).dop);
  art->keys = keyer.TakeEncoder();
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
  // Probe pipeline: drain the dividend once, resolving each row's B
  // columns to a divisor number (kNotFound when it is no divisor key) and
  // numbering its A key. Over a nonempty divisor only rows that hit number
  // a candidate (a one-column A numbers each value as its dictionary does).
  auto art = std::make_shared<DivisionProbeArtifact>();
  dividend_->Open();
  art->divisor_count = build.keys.size();
  size_t expected = dividend_->EstimatedRows();
  art->row_a.Reserve(expected);
  art->row_b.Reserve(expected);
  BatchIncrementalKeyer keyer(a_idx_.size());
  ProbeAppendSink sink(&keyer, &a_idx_, /*a_hits_only=*/art->divisor_count > 0, &build.keys,
                       &b_idx_, &art->row_a, &art->row_b);
  RecordPipelineDop(RunPipeline(*dividend_, sink).dop);
  art->a = keyer.TakeEncoder();
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

  RunHash(*probe_, &results_);
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
