#pragma once

// Batched columnar execution (see docs/batched_execution.md).
//
// A Batch carries ~1024 rows between operators as columns of uint32_t
// dictionary ids (plus a Value spill representation for attributes that are
// not dictionary-encoded), so the hot operators — division, great divide,
// joins, grouping, deduplication — run tight per-batch array loops instead
// of one virtual call per tuple. Dictionary ids come from per-table
// column dictionaries (TableEncoding, cached by plan/catalog), and batch-
// level key packing reuses the key_codec machinery of PR 1: translation
// arrays map a table dictionary's ids straight into an operator's KeyCodec /
// IncrementalKeyEncoder id space, replacing a Value hash per row with an
// array load per row.
//
// NextBatch() is the only pull contract between operators; the pipeline
// executor (exec/pipeline.hpp) drains breakers serially, except a clustered
// division's dividend, which may fan out, and ResultCursor (api/session.hpp)
// is the one row adapter, at the API edge.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "algebra/relation.hpp"
#include "exec/key_codec.hpp"

namespace quotient {

/// Target rows per batch (default 1024). Property tests shrink this to probe
/// batch-boundary edge cases; values are clamped to >= 1.
size_t GetBatchRows();
void SetBatchRows(size_t rows);

/// RAII guard so tests can sweep batch sizes without leaking state;
/// non-copyable like the other Scoped* knob guards, so an accidental copy
/// cannot restore twice.
struct ScopedBatchRows {
  explicit ScopedBatchRows(size_t rows) : saved(GetBatchRows()) { SetBatchRows(rows); }
  ~ScopedBatchRows() { SetBatchRows(saved); }
  ScopedBatchRows(const ScopedBatchRows&) = delete;
  ScopedBatchRows& operator=(const ScopedBatchRows&) = delete;
  size_t saved;
};

/// Dictionary encoding of one base-table column: the dictionary of its
/// distinct Values plus the per-row ids, column-major.
struct ColumnEncoding {
  ValueDict dict;
  std::vector<uint32_t> ids;  // ids[row] in storage (canonical) row order
};

/// Per-relation dictionary encoding, built once and shared: scans emit
/// encoded batches by copying id spans out of it. plan/catalog caches one
/// per base table so repeated queries (and the Law 13 partitioned great
/// divide) stop rebuilding encodings on every Open().
struct TableEncoding {
  static std::shared_ptr<const TableEncoding> Build(const Relation& relation);

  size_t rows = 0;
  std::vector<ColumnEncoding> columns;
};

using TableEncodingPtr = std::shared_ptr<const TableEncoding>;

/// One output column of a Batch: either dictionary-encoded (`dict` set, one
/// uint32 id per row) or a plain Value vector (the representation used for
/// computed and join-copied attributes).
struct BatchColumn {
  const ValueDict* dict = nullptr;  // non-owning; owner outlives the batch
  std::vector<uint32_t> ids;
  std::vector<Value> values;

  bool encoded() const { return dict != nullptr; }
  const Value& At(size_t row) const { return dict ? dict->At(ids[row]) : values[row]; }
  void Clear() {
    dict = nullptr;
    ids.clear();
    values.clear();
  }
};

/// A batch of rows flowing between operators. Two layouts:
///
///  * columnar — num_columns() BatchColumns, each encoded or Value-typed;
///  * row view — pointers to Tuples in stable storage (a materialized
///    Relation or an operator's results vector).
///
/// A selection vector filters either layout without moving data: filters
/// and semi joins mark qualifying physical row indices instead of copying
/// survivors. Consumers iterate `for i in [0, ActiveRows()): r = RowAt(i)`.
class Batch {
 public:
  /// Clears to columnar layout with `num_cols` empty columns.
  void Reset(size_t num_cols) {
    row_mode_ = false;
    rows_ = 0;
    columns_.resize(num_cols);
    for (BatchColumn& c : columns_) c.Clear();
    row_refs_.clear();
    ClearSelection();
  }

  /// Clears to row-view layout.
  void ResetRows() {
    row_mode_ = true;
    rows_ = 0;
    columns_.clear();
    row_refs_.clear();
    ClearSelection();
  }

  bool row_mode() const { return row_mode_; }
  size_t rows() const { return rows_; }
  /// Finalizes a columnar fill (callers fill columns_ then set the count).
  void set_rows(size_t n) { rows_ = n; }

  size_t num_columns() const { return columns_.size(); }
  BatchColumn& column(size_t c) { return columns_[c]; }
  const BatchColumn& column(size_t c) const { return columns_[c]; }

  /// The column as an encoded column, or nullptr when this batch is a row
  /// view / the column is Value-typed. The fast paths key off this.
  const BatchColumn* EncodedColumn(size_t c) const {
    if (row_mode_ || c >= columns_.size() || !columns_[c].encoded()) return nullptr;
    return &columns_[c];
  }

  const Value& At(size_t row, size_t col) const {
    return row_mode_ ? (*row_refs_[row])[col] : columns_[col].At(row);
  }
  /// The whole row as a Tuple pointer (row views only, else nullptr).
  const Tuple* RowRef(size_t row) const { return row_mode_ ? row_refs_[row] : nullptr; }

  /// Appends a pointer to a tuple in caller-owned stable storage.
  void AppendRowRef(const Tuple* t) {
    row_refs_.push_back(t);
    ++rows_;
  }

  /// Copies physical row `row` out as a Tuple (clears `out` first).
  void ToTuple(size_t row, Tuple* out) const;

  // --- selection vector ----------------------------------------------------
  bool has_selection() const { return has_sel_; }
  void ClearSelection() {
    sel_.clear();
    has_sel_ = false;
  }
  /// Narrows the active rows, in place and in order, to those for which
  /// `keep(i, row)` holds, where `row` is RowAt(i). The selection buffer is
  /// reused, so narrowing allocates nothing once it has grown.
  template <typename Keep>
  void Narrow(Keep&& keep) {
    const size_t n = ActiveRows();
    if (has_sel_) {
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t row = sel_[i];
        if (keep(i, row)) sel_[kept++] = row;
      }
      sel_.resize(kept);
    } else {
      sel_.clear();
      for (uint32_t i = 0; i < n; ++i) {
        if (keep(size_t{i}, i)) sel_.push_back(i);
      }
      has_sel_ = true;
    }
  }
  /// Rows surviving the selection (== rows() when none is set).
  size_t ActiveRows() const { return has_sel_ ? sel_.size() : rows_; }
  /// Physical index of the i-th active row.
  uint32_t RowAt(size_t i) const { return has_sel_ ? sel_[i] : static_cast<uint32_t>(i); }

 private:
  bool row_mode_ = true;
  size_t rows_ = 0;
  std::vector<BatchColumn> columns_;
  std::vector<const Tuple*> row_refs_;
  std::vector<uint32_t> sel_;
  bool has_sel_ = false;
};

/// Lazily-filled mapping from one dictionary's dense ids to another id
/// space: the core of batch-level key packing. The first time a source id is
/// seen its Value is resolved through the supplied callback (an intern or a
/// find against the operator's codec); afterwards the per-row cost is one
/// array load. Rebinding to a different source dictionary clears the cache.
class IdTranslator {
 public:
  /// Binds the source dictionary once per batch; Lookup then maps its ids
  /// without re-checking the binding per row.
  void Bind(const ValueDict& source) {
    if (&source != source_) {
      source_ = &source;
      map_.clear();
    }
    if (map_.size() < source.size()) map_.resize(source.size(), kUnfilled);
  }

  /// Maps an id of the bound dictionary.
  template <typename Resolve>
  uint32_t Lookup(uint32_t src_id, Resolve&& resolve) {
    uint32_t& slot = map_[src_id];
    if (slot == kUnfilled) slot = resolve(source_->At(src_id));
    return slot;
  }

 private:
  // Target ids are dense (dictionary sizes are bounded by row counts), so
  // UINT32_MAX-1 can never be a real id; UINT32_MAX itself is the shared
  // kNotFound/miss sentinel and a legitimate cached result.
  static constexpr uint32_t kUnfilled = UINT32_MAX - 1;
  const ValueDict* source_ = nullptr;
  std::vector<uint32_t> map_;
};

/// Appends a batch's key columns into a building (unsealed) KeyCodec:
/// encoded columns go through per-column translation arrays, Value columns
/// fall back to one dictionary intern per row.
class BatchCodecAppender {
 public:
  BatchCodecAppender(KeyCodec* codec, const std::vector<size_t>* indices)
      : codec_(codec), indices_(indices), xlat_(indices->size()) {}

  void Append(const Batch& batch);

 private:
  KeyCodec* codec_;
  const std::vector<size_t>* indices_;
  std::vector<IdTranslator> xlat_;
  std::vector<uint32_t> scratch_;  // row-major ids, ActiveRows x num key cols
};

/// Resolves each batch row's key columns to the dense id of a sealed,
/// numbered build side (divisor numbers, join keys, semi-join membership):
/// per-column translate/find, then a packed probe. Misses yield
/// KeyNumbering::kNotFound, exactly like KeyNumbering::Probe on a Tuple.
class BatchKeyProbe {
 public:
  void Bind(const KeyNumbering* numbering, const KeyCodec* codec,
            const std::vector<size_t>* indices) {
    numbering_ = numbering;
    codec_ = codec;
    indices_ = indices;
    xlat_.assign(indices->size(), IdTranslator{});
  }

  /// Appends one dense id (or kNotFound) per active row to `out`.
  void Resolve(const Batch& batch, std::vector<uint32_t>* out);

 private:
  const KeyNumbering* numbering_ = nullptr;
  const KeyCodec* codec_ = nullptr;
  const std::vector<size_t>* indices_ = nullptr;
  std::vector<IdTranslator> xlat_;
  std::vector<uint32_t> scratch_;
  std::vector<uint8_t> miss_;
};

/// Dense per-row key ids in an IncrementalKeyEncoder's numbering (the one
/// dedup and grouping discipline): translation arrays for encoded columns,
/// per-row interning otherwise, then IncrementalKeyEncoder::InternKey. The
/// ids are canonical — identical to interning each row's values with
/// InternValue and numbering them with InternKey — so batches of mixed
/// provenance (dictionaries, row views) dedup consistently. Ids are numbered
/// in first-seen order, so a row is the first occurrence of its key in the
/// stream iff its id is the next unseen one.
class BatchIncrementalKeyer {
 public:
  explicit BatchIncrementalKeyer(size_t num_cols = 0) : encoder_(num_cols), xlat_(num_cols) {}

  /// Writes one key id per active row of `batch` into `ids` (resized to
  /// ActiveRows()). `col_map` maps encoder column c to batch column
  /// (*col_map)[c]; nullptr means the identity. Charges the governor 8
  /// bytes per key column for every key numbered here.
  void Keys(const Batch& batch, const std::vector<size_t>* col_map, std::vector<uint32_t>* ids);

  /// Distinct keys numbered so far; ids run 0..size()-1.
  size_t size() const { return encoder_.size(); }

  /// Appends the column Values of key `id` to `out`.
  void Decode(uint32_t id, Tuple* out) const { encoder_.DecodeKey(id, out); }

 private:
  IncrementalKeyEncoder encoder_;
  std::vector<IdTranslator> xlat_;
  std::vector<uint32_t> scratch_;  // row-major ids, ActiveRows x num key cols
};

/// Marks each active row of `batch` whose key — the columns `cols` —
/// differs from the previous active row's: (*starts)[i] is 1 where a run
/// of equal keys starts. Row 0 compares against `prev`, the key that ended
/// the previous batch (nullptr: none, so row 0 starts a run). Within one
/// batch an encoded column has one dictionary, whose equal values share
/// an id, so rows compare by id; Value columns and `prev` compare Values.
/// The one run-boundary test of π and of the clustered division.
void MarkKeyChanges(const Batch& batch, const std::vector<size_t>& cols, const Tuple* prev,
                    std::vector<uint8_t>* starts);

/// Emits `results[*position ..]` as row-view batches of at most
/// GetBatchRows() rows; the shared tail of every blocking operator
/// (divisions, aggregation, set containment join). Returns false at end.
bool EmitResultBatch(const std::vector<Tuple>& results, size_t* position, Batch* out);

}  // namespace quotient
