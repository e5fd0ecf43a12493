#include "exec/batch.hpp"

#include <atomic>

#include "exec/query_context.hpp"

namespace quotient {

namespace {

constexpr size_t kDefaultBatchRows = 1024;

std::atomic<size_t>& BatchRowsFlag() {
  static std::atomic<size_t> rows{kDefaultBatchRows};
  return rows;
}

}  // namespace

size_t GetBatchRows() { return BatchRowsFlag().load(std::memory_order_relaxed); }
void SetBatchRows(size_t rows) {
  BatchRowsFlag().store(rows == 0 ? 1 : rows, std::memory_order_relaxed);
}

std::shared_ptr<const TableEncoding> TableEncoding::Build(const Relation& relation) {
  auto encoding = std::make_shared<TableEncoding>();
  encoding->rows = relation.size();
  size_t num_cols = relation.schema().size();
  encoding->columns.resize(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    ColumnEncoding& col = encoding->columns[c];
    col.dict.Reserve(relation.size() / 4 + 8);
    col.ids.reserve(relation.size());
    for (const Tuple& t : relation.tuples()) col.ids.push_back(col.dict.GetOrAdd(t[c]));
  }
  return encoding;
}

void Batch::ToTuple(size_t row, Tuple* out) const {
  if (row_mode_) {
    *out = *row_refs_[row];
    return;
  }
  out->clear();
  out->reserve(columns_.size());
  for (const BatchColumn& col : columns_) out->push_back(col.At(row));
}

void BatchIncrementalKeyer::Keys(const Batch& batch, const std::vector<size_t>* col_map,
                                 std::vector<uint32_t>* ids, const uint32_t* gate) {
  const size_t n = batch.ActiveRows();
  const size_t nc = encoder_.num_cols();
  const size_t before = encoder_.ChargedBytes();
  // A one-column key's dictionary id is its key id: resolve straight into
  // `ids`. Wider keys gather row-major per-column ids first.
  uint32_t* base;
  if (nc == 1) {
    ids->resize(n);
    base = ids->data();
  } else {
    scratch_.resize(n * nc);
    base = scratch_.data();
  }
  for (size_t c = 0; c < nc; ++c) {
    size_t col = col_map ? (*col_map)[c] : c;
    uint32_t* dst = base + c;
    auto intern = [&](const Value& v) { return encoder_.InternValue(c, v); };
    if (const BatchColumn* enc = batch.EncodedColumn(col)) {
      const uint32_t* src = enc->ids.data();
      IdTranslator& xlat = xlat_[c];
      xlat.Bind(*enc->dict);
      if (batch.has_selection()) {
        for (size_t i = 0; i < n; ++i, dst += nc) *dst = xlat.Lookup(src[batch.RowAt(i)], intern);
      } else {
        for (size_t i = 0; i < n; ++i, dst += nc) *dst = xlat.Lookup(src[i], intern);
      }
    } else {
      for (size_t i = 0; i < n; ++i, dst += nc) *dst = intern(batch.At(batch.RowAt(i), col));
    }
  }
  if (nc != 1) {
    ids->resize(n);
    uint32_t* out = ids->data();
    if (gate == nullptr) {
      for (size_t i = 0; i < n; ++i) out[i] = encoder_.InternKey(base + i * nc);
    } else {
      for (size_t i = 0; i < n; ++i) {
        out[i] = gate[i] == IncrementalKeyEncoder::kNotFound
                     ? IncrementalKeyEncoder::kNotFound
                     : encoder_.InternKey(base + i * nc);
      }
    }
  }
  GovernorCharge(encoder_.ChargedBytes() - before);
}

void BatchKeyProbe::Resolve(const Batch& batch, std::vector<uint32_t>* out) {
  const size_t n = batch.ActiveRows();
  if (n == 0) return;
  const size_t nc = indices_->size();
  const size_t at = out->size();
  out->resize(at + n);
  uint32_t* keys = out->data() + at;
  // A one-column key's dictionary id is its key id (the dominant case):
  // resolve straight into `out`. Wider keys gather row-major per-column ids
  // first.
  uint32_t* base;
  if (nc == 1) {
    base = keys;
  } else {
    scratch_.resize(n * nc);
    base = scratch_.data();
  }
  for (size_t c = 0; c < nc; ++c) {
    size_t col = (*indices_)[c];
    uint32_t* dst = base + c;
    const ValueDict& dict = keys_->dict(c);
    auto find = [&](const Value& v) { return dict.Find(v); };
    if (const BatchColumn* enc = batch.EncodedColumn(col)) {
      const uint32_t* src = enc->ids.data();
      IdTranslator& xlat = xlat_[c];
      xlat.Bind(*enc->dict);
      if (batch.has_selection()) {
        for (size_t i = 0; i < n; ++i, dst += nc) *dst = xlat.Lookup(src[batch.RowAt(i)], find);
      } else {
        for (size_t i = 0; i < n; ++i, dst += nc) *dst = xlat.Lookup(src[i], find);
      }
    } else {
      for (size_t i = 0; i < n; ++i, dst += nc) *dst = find(batch.At(batch.RowAt(i), col));
    }
  }
  if (nc == 1) return;
  // A miss in any column disqualifies the row; the others find whole keys.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t* ids = base + i * nc;
    bool miss = false;
    for (size_t c = 0; c < nc; ++c) miss |= ids[c] == IncrementalKeyEncoder::kNotFound;
    keys[i] = miss ? IncrementalKeyEncoder::kNotFound : keys_->FindKey(ids);
  }
}

void MarkKeyChanges(const Batch& batch, const std::vector<size_t>& cols, const Tuple* prev,
                    std::vector<uint8_t>* starts) {
  // Column at a time: row i starts a run when any key column differs from
  // row i-1's.
  const size_t n = batch.ActiveRows();
  starts->assign(n, 0);
  uint8_t* s = starts->data();
  bool first = prev == nullptr;
  const uint32_t row0 = batch.RowAt(0);
  for (size_t c = 0; c < cols.size(); ++c) {
    const size_t col = cols[c];
    if (prev != nullptr && batch.At(row0, col) != (*prev)[c]) first = true;
    if (const BatchColumn* enc = batch.EncodedColumn(col)) {
      const uint32_t* ids = enc->ids.data();
      uint32_t last = ids[row0];
      for (size_t i = 1; i < n; ++i) {
        const uint32_t id = ids[batch.RowAt(i)];
        s[i] |= static_cast<uint8_t>(id != last);
        last = id;
      }
    } else {
      for (size_t i = 1; i < n; ++i) {
        s[i] |= static_cast<uint8_t>(batch.At(batch.RowAt(i), col) !=
                                     batch.At(batch.RowAt(i - 1), col));
      }
    }
  }
  s[0] = static_cast<uint8_t>(first);
}

bool EmitResultBatch(const std::vector<Tuple>& results, size_t* position, Batch* out) {
  if (*position >= results.size()) return false;
  size_t take = std::min(GetBatchRows(), results.size() - *position);
  out->ResetRows();
  for (size_t i = 0; i < take; ++i) out->AppendRowRef(&results[*position + i]);
  *position += take;
  return true;
}

}  // namespace quotient
