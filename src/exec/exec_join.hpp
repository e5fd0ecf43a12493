#pragma once

#include <memory>

#include "algebra/predicate.hpp"
#include "exec/batch.hpp"
#include "exec/exec_basic.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"
#include "exec/recycler.hpp"

namespace quotient {

/// Nested-loop theta join (right side materialized); handles arbitrary
/// conditions. Output schema: attrs(left) ++ attrs(right) (disjoint names).
/// NextBatch() runs the × pairing kernel, evaluating the condition on each
/// candidate (left row, right row) before emitting it.
class NestedLoopJoinIterator : public Iterator {
 public:
  NestedLoopJoinIterator(IterPtr left, IterPtr right, ExprPtr condition);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "NestedLoopJoin"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

 private:
  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  ExprPtr condition_;
  std::unique_ptr<BoundExpr> bound_;
  std::vector<Tuple> right_rows_;
  PairCursor cursor_;
  Tuple candidate_;  // scratch (left row ++ right row) for the condition
};

/// Hash equi-join on explicit key columns (build on the right, probe with
/// the left). Output schema attrs(left) ++ `right_out`: a theta join whose
/// condition is a conjunction of left-column = right-column equalities
/// emits every right column (both key columns are preserved); a natural
/// join (Natural()) keys on the common names and emits only the right-only
/// columns. With no key columns it degenerates to a cross product.
///
/// The build side is key-encoded: right keys are dictionary-compressed and
/// numbered densely, so the "hash table" is a plain bucket vector indexed by
/// key number, and probes are dictionary lookups (a probe value unseen
/// during build cannot match). NextBatch() probes a whole left batch at a
/// time and emits columnar output: left columns stay dictionary-encoded
/// when the input batch is, right columns are copied Values.
class EquiJoinIterator : public Iterator {
 public:
  EquiJoinIterator(IterPtr left, IterPtr right, std::vector<std::string> left_keys,
                   std::vector<std::string> right_keys, std::vector<std::string> right_out);

  /// Natural join on the common attribute names: attrs(left) ++
  /// (attrs(right) − common).
  static std::unique_ptr<EquiJoinIterator> Natural(IterPtr left, IterPtr right);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "EquiJoin"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp):
  /// Open() then adopts the cached build side — the codec, numbering, and
  /// per-key buckets of emitted right rows — instead of draining the right
  /// child.
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

 private:
  std::shared_ptr<JoinBuildArtifact> BuildArtifact();

  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  std::vector<size_t> left_key_;
  std::vector<size_t> right_key_;
  std::vector<size_t> right_out_;
  bool whole_right_rows_;  // right_out_ is every right column, in order
  RecycleSpec recycle_;
  // The build side: codec, numbering, and per right-key number the matching
  // rows' right_out_ projections (projected once at build, not per emitted
  // row). Possibly shared with concurrent executions through the recycler.
  std::shared_ptr<const JoinBuildArtifact> build_;
  BatchKeyProbe probe_;
  PairCursor cursor_;
};

/// Hash semi-join r1 ⋉ r2 on the common attribute names. With no common
/// attributes it degenerates per Appendix A: keeps everything iff the right
/// side is nonempty (used to compile Laws 11/12's guards).
class HashSemiJoinIterator : public Iterator {
 public:
  HashSemiJoinIterator(IterPtr left, IterPtr right, bool anti = false);

  const Schema& schema() const override { return left_->schema(); }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return anti_ ? "HashAntiJoin" : "HashSemiJoin"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp).
  /// Semi and anti joins share one build key: the membership set is
  /// identical, only the probe's keep-test differs.
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

 private:
  std::shared_ptr<JoinBuildArtifact> BuildArtifact();

  IterPtr left_;
  IterPtr right_;
  bool anti_;
  std::vector<size_t> left_key_;
  std::vector<size_t> right_key_;
  RecycleSpec recycle_;
  // The key numbering doubles as the membership set: a probe hit means the
  // left key equals some right key. Buckets stay empty for semi joins.
  std::shared_ptr<const JoinBuildArtifact> build_;
  BatchKeyProbe probe_;
  std::vector<uint32_t> batch_keys_;
};

}  // namespace quotient
