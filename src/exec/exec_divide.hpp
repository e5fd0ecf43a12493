#pragma once

#include <memory>

#include "algebra/divide.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"
#include "exec/recycler.hpp"

namespace quotient {

/// Hash-division (Graefe/Cole [16]): divisor tuples are numbered densely
/// and every quotient candidate keeps a bitmap of the divisor numbers seen
/// in its group; a candidate qualifies when its bitmap is full. Blocking:
/// both inputs are materialized on Open(), then the quotient streams out.
/// Implements Codd's semantics including r1 ÷ ∅ = πA(r1).
///
/// Input streams are assumed duplicate-free (set semantics); every operator
/// in this engine preserves that invariant.
///
/// Execution is key-encoded (see docs/key_encoding.md): Open() dictionary-
/// encodes the divisor's B tuples and numbers them densely 0..n-1, then
/// drains the dividend once, interning each row's A key and resolving its B
/// columns to a divisor number (or a miss). The bitmaps are then filled from
/// two flat arrays — per-row A keys and per-row divisor numbers — instead of
/// hash tables keyed by materialized Tuples.
///
/// Both drains consume encoded batches: dictionary ids from the scans
/// translate into the division's codecs through per-column translation
/// arrays (see docs/batched_execution.md), so the per-row probe cost is an
/// array load, not a Value hash. Each drain is a serial pipeline
/// (exec/pipeline.hpp).
///
/// A dividend grouped on A (a prefix of its clustering, exec/iterator.hpp:
/// e.g. a scan whose leading columns are A, under σ, ρ, ⋉ or a join's
/// probe side) skips the A codec, the per-row store and the matrix: it is
/// divided run by run in one streaming pass (exec/division_runs.hpp).
/// EXPLAIN ANALYZE shows which path ran.
class DivisionIterator : public Iterator {
 public:
  DivisionIterator(IterPtr dividend, IterPtr divisor);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "HashDivision"; }
  const char* ExplainNote() const override {
    return clustered_ ? "path=clustered" : "path=matrix";
  }
  std::vector<Iterator*> InputIterators() override {
    return {dividend_.get(), divisor_.get()};
  }
  std::vector<size_t> BlockingInputs() override { return {0, 1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp):
  /// Open() then adopts cached divisor/probe state instead of draining the
  /// children, or publishes what it builds.
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

  /// True when the dividend is divided run by run (no probe state).
  bool clustered() const { return clustered_; }

 private:
  std::shared_ptr<DivisionBuildArtifact> BuildDivisorArtifact();
  std::shared_ptr<DivisionProbeArtifact> BuildProbeArtifact(
      const DivisionBuildArtifact& build);
  /// Adopt-or-build for the divisor side (consults the recycler when keyed).
  std::shared_ptr<const DivisionBuildArtifact> GetDivisorArtifact();

  IterPtr dividend_;
  IterPtr divisor_;
  Schema schema_;
  std::vector<size_t> a_idx_;        // A positions in the dividend
  std::vector<size_t> b_idx_;        // B positions in the dividend
  std::vector<size_t> divisor_idx_;  // B positions in the divisor
  bool clustered_ = false;
  RecycleSpec recycle_;

  std::vector<Tuple> results_;
  size_t position_ = 0;
  // Encoded state (valid between Open and Close), possibly shared with
  // concurrent executions through the recycler: the dividend's per-row A
  // keys + divisor numbers, and the divisor build table behind them.
  std::shared_ptr<const DivisionProbeArtifact> probe_;
};

/// Convenience: divide materialized relations. Optional pre-built table
/// encodings (TableEncoding::Build or a catalog cache) let repeated calls
/// skip re-encoding the inputs.
Relation ExecDivide(const Relation& dividend, const Relation& divisor,
                    TableEncodingPtr dividend_enc = nullptr,
                    TableEncodingPtr divisor_enc = nullptr);

}  // namespace quotient
