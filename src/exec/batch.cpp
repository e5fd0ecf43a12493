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

void BatchCodecAppender::Append(const Batch& batch) {
  size_t n = batch.ActiveRows();
  if (n == 0) return;
  size_t nc = indices_->size();
  scratch_.resize(n * nc);
  for (size_t c = 0; c < nc; ++c) {
    size_t col = (*indices_)[c];
    uint32_t* dst = scratch_.data() + c;
    if (const BatchColumn* enc = batch.EncodedColumn(col)) {
      const uint32_t* src = enc->ids.data();
      IdTranslator& xlat = xlat_[c];
      xlat.Bind(*enc->dict);
      for (size_t i = 0; i < n; ++i, dst += nc) {
        *dst = xlat.Lookup(src[batch.RowAt(i)],
                           [&](const Value& v) { return codec_->InternValue(c, v); });
      }
    } else {
      for (size_t i = 0; i < n; ++i, dst += nc) {
        *dst = codec_->InternValue(c, batch.At(batch.RowAt(i), col));
      }
    }
  }
  codec_->AppendRows(scratch_.data(), n);
}

void BatchKeyProbe::Resolve(const Batch& batch, std::vector<uint32_t>* out) {
  size_t n = batch.ActiveRows();
  if (n == 0) return;
  size_t nc = indices_->size();

  // Single-column keys (the dominant case) go straight from source ids to
  // dense numbers through one translation array.
  if (nc == 1) {
    size_t col = (*indices_)[0];
    if (const BatchColumn* enc = batch.EncodedColumn(col)) {
      const uint32_t* src = enc->ids.data();
      IdTranslator& xlat = xlat_[0];
      xlat.Bind(*enc->dict);
      size_t base = out->size();
      out->resize(base + n);
      uint32_t* dst = out->data() + base;
      auto resolve = [&](const Value& v) {
        uint32_t cid = codec_->FindValue(0, v);
        if (cid == ValueDict::kNotFound) return KeyNumbering::kNotFound;
        return numbering_->ProbeIds(&cid);
      };
      if (batch.has_selection()) {
        for (size_t i = 0; i < n; ++i) dst[i] = xlat.Lookup(src[batch.RowAt(i)], resolve);
      } else {
        for (size_t i = 0; i < n; ++i) dst[i] = xlat.Lookup(src[i], resolve);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        uint32_t cid = codec_->FindValue(0, batch.At(batch.RowAt(i), col));
        out->push_back(cid == ValueDict::kNotFound ? KeyNumbering::kNotFound
                                                   : numbering_->ProbeIds(&cid));
      }
    }
    return;
  }

  // Multi-column keys: resolve per column into a row-major scratch (a miss
  // in any column disqualifies the row), then probe the packed key.
  scratch_.resize(n * nc);
  miss_.assign(n, 0);
  for (size_t c = 0; c < nc; ++c) {
    size_t col = (*indices_)[c];
    uint32_t* dst = scratch_.data() + c;
    if (const BatchColumn* enc = batch.EncodedColumn(col)) {
      const uint32_t* src = enc->ids.data();
      IdTranslator& xlat = xlat_[c];
      xlat.Bind(*enc->dict);
      for (size_t i = 0; i < n; ++i, dst += nc) {
        uint32_t id = xlat.Lookup(src[batch.RowAt(i)],
                                  [&](const Value& v) { return codec_->FindValue(c, v); });
        *dst = id;
        miss_[i] |= (id == ValueDict::kNotFound);
      }
    } else {
      for (size_t i = 0; i < n; ++i, dst += nc) {
        uint32_t id = codec_->FindValue(c, batch.At(batch.RowAt(i), col));
        *dst = id;
        miss_[i] |= (id == ValueDict::kNotFound);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    out->push_back(miss_[i] ? KeyNumbering::kNotFound
                            : numbering_->ProbeIds(scratch_.data() + i * nc));
  }
}

void BatchIncrementalKeyer::Keys(const Batch& batch, const std::vector<size_t>* col_map,
                                 std::vector<uint32_t>* ids) {
  const size_t n = batch.ActiveRows();
  const size_t nc = encoder_.num_cols();
  const size_t before = encoder_.size();
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
    for (size_t i = 0; i < n; ++i) (*ids)[i] = encoder_.InternKey(base + i * nc);
  }
  GovernorCharge((encoder_.size() - before) * nc * 8);
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
