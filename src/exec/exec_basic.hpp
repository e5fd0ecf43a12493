#pragma once

#include "algebra/predicate.hpp"
#include "exec/batch.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"

namespace quotient {

/// Non-owning shared_ptr view of a caller-owned Relation, for wiring scans
/// in convenience wrappers (ExecDivide & friends) without deep-copying the
/// relation. The caller must keep `r` alive while the iterator lives.
inline std::shared_ptr<const Relation> BorrowRelation(const Relation& r) {
  return std::shared_ptr<const Relation>(std::shared_ptr<const Relation>(), &r);
}

/// Resume cursor of the pairing kernel shared by × and the joins: the
/// current left batch, its per-active-row right-bucket ids (hash joins
/// only), and where emission stopped — so one left row may span several
/// output batches.
struct PairCursor {
  Batch in;                    // current left batch
  std::vector<uint32_t> keys;  // right-bucket id per active row (hash joins)
  size_t pos = 0;              // next active-row index to emit from
  size_t match_pos = 0;        // next right candidate for that row
  bool valid = false;          // `in` holds an undrained batch

  void Reset() {
    pos = 0;
    match_pos = 0;
    valid = false;
  }
};

/// The record of the pairing kernel's output, `width` columns of which the
/// left input's come first: left rows arrive in order, so the left
/// clustering holds. Keys beyond the full column set are the join's to add.
inline StreamProperties PairedProperties(const Iterator& left, size_t width) {
  StreamProperties p = StreamProperties::Set(width);
  p.clustering = left.properties().clustering;
  return p;
}

/// The pairing kernel: pulls left batches (running `prepare(cursor)` on each
/// fresh one), and emits (left row × right tuple) pairs into a columnar
/// output batch of at most GetBatchRows() rows. `rights(i)` gives the right
/// candidates of active row i (nullptr = none); `keep(batch, row, right)`
/// filters each candidate. Left columns stay dictionary-encoded when the
/// input batch is; right tuples are appended as Value columns. Returns the
/// rows emitted (0 = end of stream).
template <typename Prepare, typename Rights, typename Keep>
size_t EmitPairs(Iterator& left, PairCursor& st, size_t num_left, size_t num_right,
                 Prepare&& prepare, Rights&& rights, Keep&& keep, Batch* out) {
  const size_t target = GetBatchRows();
  std::vector<const uint32_t*> src_ids(num_left);
  while (true) {
    if (!st.valid) {
      if (!left.NextBatch(&st.in)) return 0;
      prepare(st);
      st.pos = 0;
      st.match_pos = 0;
      st.valid = true;
    }
    // Bind the output layout to this input batch (per-batch, so mixed
    // row-view and columnar left streams stay consistent), hoisting each
    // encoded column's id array out of the emit loop.
    out->Reset(num_left + num_right);
    for (size_t c = 0; c < num_left; ++c) {
      const BatchColumn* enc = st.in.EncodedColumn(c);
      src_ids[c] = enc != nullptr ? enc->ids.data() : nullptr;
      if (enc != nullptr) out->column(c).dict = enc->dict;
    }
    size_t emitted = 0;
    size_t active = st.in.ActiveRows();
    while (st.pos < active && emitted < target) {
      const std::vector<Tuple>* candidates = rights(st.pos);
      size_t count = candidates != nullptr ? candidates->size() : 0;
      uint32_t row = st.in.RowAt(st.pos);
      while (st.match_pos < count && emitted < target) {
        const Tuple& right = (*candidates)[st.match_pos++];
        if (!keep(st.in, row, right)) continue;
        for (size_t c = 0; c < num_left; ++c) {
          BatchColumn& ocol = out->column(c);
          if (src_ids[c] != nullptr) {
            ocol.ids.push_back(src_ids[c][row]);
          } else {
            ocol.values.push_back(st.in.At(row, c));
          }
        }
        for (size_t c = 0; c < num_right; ++c) {
          out->column(num_left + c).values.push_back(right[c]);
        }
        ++emitted;
      }
      if (st.match_pos >= count) {
        ++st.pos;
        st.match_pos = 0;
      }
    }
    out->set_rows(emitted);
    if (st.pos >= active) st.Reset();
    if (emitted > 0) return emitted;
  }
}

/// Scans a materialized relation (base table or intermediate). With a
/// TableEncoding attached (the catalog cache, or an explicitly shared
/// encoding), NextBatch() emits dictionary-id columns by copying id spans;
/// otherwise batches are zero-copy row views into the relation's storage.
///
/// A scan may be restricted to a contiguous span [begin, end) of the
/// relation's canonical (TupleLess) order: the planner turns comparisons on
/// a base table's leading column into such a span (opt/planner.cpp). Row
/// positions seen by NextBatch, FillSpan and TotalRows are then relative to
/// the span, and EXPLAIN names the operator "RangeScan".
///
/// Canonical order is sorted and duplicate-free, so the stream is
/// clustered on its columns in order; a span keeps that.
class RelationScan : public Iterator {
 public:
  explicit RelationScan(std::shared_ptr<const Relation> relation,
                        TableEncodingPtr encoding = nullptr);

  /// Restricts the scan to storage rows [begin, end); call before Open().
  void RestrictToSpan(size_t begin, size_t end);
  /// Adds a key the relation is declared to have (trusted, like the
  /// catalog metadata the rewrite rules read); call before building
  /// operators over the scan.
  void DeclareKey(std::vector<size_t> columns) { properties_.AddKey(std::move(columns)); }

  const Schema& schema() const override { return relation_->schema(); }
  void Open() override {
    ResetCount();
    position_ = 0;
  }
  bool NextBatch(Batch* out) override;
  void Close() override {}
  const char* name() const override { return ranged_ ? "RangeScan" : "Scan"; }
  std::vector<Iterator*> InputIterators() override { return {}; }
  size_t EstimatedRows() const override { return TotalRows(); }

  /// Morsel interface for the pipeline executor (exec/pipeline.hpp): rows
  /// in the span, and a positionless read of `count` rows starting `begin`
  /// rows into the span. FillSpan is const and touches only the immutable
  /// relation/encoding, so concurrent workers may read disjoint (or even
  /// overlapping) spans. Does not count rows — the executor credits the
  /// bypassed chain once per pipeline.
  size_t TotalRows() const { return end_ - begin_; }
  void FillSpan(size_t begin, size_t count, Batch* out) const;

 private:
  std::shared_ptr<const Relation> relation_;
  TableEncodingPtr encoding_;
  size_t begin_ = 0;  // span of storage rows this scan reads
  size_t end_ = 0;
  bool ranged_ = false;
  size_t position_ = 0;  // next row, relative to begin_
};

/// σ: emits child tuples satisfying the predicate.
///
/// Batched: predicates are evaluated into a selection vector over the
/// child's batch. Conjuncts that reference a single column are evaluated
/// once per distinct dictionary value (a verdict byte per id), so filtering
/// an encoded column is one array load per row; remaining conjuncts fall
/// back to row-at-a-time evaluation.
class FilterIterator : public Iterator {
 public:
  FilterIterator(IterPtr child, ExprPtr predicate);

  const Schema& schema() const override { return child_->schema(); }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override { child_->Close(); }
  const char* name() const override { return "Filter"; }
  std::vector<Iterator*> InputIterators() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 private:
  /// A conjunct referencing exactly one column, with its per-dictionary
  /// verdict cache (filled lazily when a batch binds the dictionary).
  struct ColumnConjunct {
    ExprPtr expr;
    size_t col = 0;
    Schema col_schema;                 // one-attribute schema for evaluation
    const ValueDict* dict = nullptr;   // dictionary the verdicts are for
    std::vector<uint8_t> pass;         // verdict per dictionary id
  };

  bool RowPasses(const Batch& batch, uint32_t row);

  IterPtr child_;
  ExprPtr predicate_;
  std::unique_ptr<BoundExpr> bound_;
  // Batch path state.
  std::vector<ColumnConjunct> column_conjuncts_;
  ExprPtr residual_;  // conjunction of multi-column conjuncts (may be null)
  std::unique_ptr<BoundExpr> residual_bound_;
  Tuple scratch_row_;
  Tuple scratch_cell_;
};

/// π with duplicate elimination (set semantics), paid only where the
/// input's properties allow duplicates. The constructor picks one path,
/// which EXPLAIN ANALYZE shows as `dedup=`:
///  * pass — the columns hold a key of the input, so no two rows agree on
///    them: batches pass through, their columns remapped when needed;
///  * runs — the columns are a clustering prefix of the input, so equal
///    keys arrive contiguously: a row is kept where its key changes
///    (MarkKeyChanges);
///  * ids — otherwise: a row is kept iff its dense key id
///    (BatchIncrementalKeyer) is the next unseen one.
/// Every path keeps each key's first occurrence, in stream order, and only
/// ids builds (and charges) key state.
class ProjectIterator : public Iterator {
 public:
  ProjectIterator(IterPtr child, std::vector<std::string> columns);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "Project"; }
  const char* ExplainNote() const override;
  std::vector<Iterator*> InputIterators() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 private:
  enum class Dedup { kPass, kRuns, kIds };

  IterPtr child_;
  Schema schema_;
  std::vector<size_t> indices_;
  Dedup dedup_;
  bool forward_;  // pass, keeping every column in order: batches untouched
  Batch in_batch_;
  std::vector<uint32_t> picks_;
  // runs: the key of the last row seen, and per-row run starts.
  Tuple last_key_;
  bool has_last_ = false;
  std::vector<uint8_t> starts_;
  // ids: a row is emitted iff its key id is the next unseen one.
  BatchIncrementalKeyer keyer_;
  uint32_t next_id_ = 0;
  std::vector<uint32_t> ids_;
};

/// ρ: pass-through with a renamed schema.
class RenameIterator : public Iterator {
 public:
  /// Keys and clustering are by position, so they pass through as well.
  RenameIterator(IterPtr child, std::vector<std::pair<std::string, std::string>> renames);

  const Schema& schema() const override { return schema_; }
  void Open() override {
    ResetCount();
    child_->Open();
  }
  bool NextBatch(Batch* out) override {
    // Renaming is schema-only; batches pass through untouched.
    if (!child_->NextBatch(out)) return false;
    CountRows(out->ActiveRows());
    return true;
  }
  void Close() override { child_->Close(); }
  const char* name() const override { return "Rename"; }
  std::vector<Iterator*> InputIterators() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 private:
  IterPtr child_;
  Schema schema_;
};

/// ∪ with duplicate elimination.
class UnionIterator : public Iterator {
 public:
  UnionIterator(IterPtr left, IterPtr right);

  const Schema& schema() const override { return left_->schema(); }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "Union"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  size_t EstimatedRows() const override {
    return left_->EstimatedRows() + right_->EstimatedRows();
  }

 private:
  bool EmitFresh(const Batch& in, const std::vector<size_t>* col_map, Batch* out);

  IterPtr left_;
  IterPtr right_;
  std::vector<size_t> right_reorder_;  // empty when schemas align positionally
  bool on_right_ = false;
  // Streaming dedup on dense key ids, shared by both inputs.
  BatchIncrementalKeyer keyer_;
  uint32_t next_id_ = 0;
  Batch in_batch_;
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> picks_;
};

/// ∩ and − (hash build on the right input). Open() numbers the right
/// input's distinct keys 0..build_keys-1; the left input shares that
/// numbering, so a left key is a member iff its id is below build_keys.
/// ∩ keeps each member once (a flag per build key); − keeps each
/// non-member once (its id is the next unseen one past build_keys).
class SetMembershipIterator : public Iterator {
 public:
  const Schema& schema() const override { return left_->schema(); }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }
  size_t EstimatedRows() const override { return left_->EstimatedRows(); }

 protected:
  SetMembershipIterator(IterPtr left, IterPtr right, bool keep_members);

 private:
  IterPtr left_;
  IterPtr right_;
  std::vector<size_t> right_reorder_;
  bool keep_members_;  // ∩: true, −: false
  BatchIncrementalKeyer keyer_;
  uint32_t build_keys_ = 0;
  uint32_t next_id_ = 0;          // −: next unseen non-member id
  std::vector<uint8_t> emitted_;  // ∩: build key already emitted
  std::vector<uint32_t> ids_;
};

/// ∩ (hash build on the right input).
class IntersectIterator final : public SetMembershipIterator {
 public:
  IntersectIterator(IterPtr left, IterPtr right)
      : SetMembershipIterator(std::move(left), std::move(right), /*keep_members=*/true) {}
  const char* name() const override { return "Intersect"; }
};

/// − (hash build on the right input).
class DifferenceIterator final : public SetMembershipIterator {
 public:
  DifferenceIterator(IterPtr left, IterPtr right)
      : SetMembershipIterator(std::move(left), std::move(right), /*keep_members=*/false) {}
  const char* name() const override { return "Difference"; }
};

/// × (right side materialized). NextBatch() pairs each left row of the
/// current left batch with every right row into columnar output batches of
/// at most GetBatchRows() rows; left columns stay dictionary-encoded when
/// the input batch is, right columns are copied Values. A resume cursor
/// lets one left row span several output batches.
class CrossProductIterator : public Iterator {
 public:
  CrossProductIterator(IterPtr left, IterPtr right);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "CrossProduct"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

 private:
  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  std::vector<Tuple> right_rows_;
  PairCursor cursor_;
};

}  // namespace quotient
