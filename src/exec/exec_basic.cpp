#include "exec/exec_basic.hpp"

#include <numeric>
#include <stdexcept>

#include "exec/query_context.hpp"
#include "util/status.hpp"

namespace quotient {

namespace {

/// Index mapping that reorders `from` tuples into `to` attribute order;
/// empty when the schemas already align positionally.
std::vector<size_t> ReorderIndices(const Schema& to, const Schema& from) {
  if (!to.SameAttributeSet(from)) {
    throw SchemaError("set operation requires union-compatible schemas, got " + to.ToString() +
                      " and " + from.ToString());
  }
  if (to == from) return {};
  std::vector<size_t> indices;
  indices.reserve(to.size());
  for (const Attribute& a : to.attributes()) indices.push_back(from.IndexOfOrThrow(a.name));
  return indices;
}

/// Copies the active-position rows `picks` of `in` into a compact columnar
/// `out` with `num_cols` columns; out column c reads in column
/// (col_map ? (*col_map)[c] : c). Encoded columns stay encoded (the ids are
/// copied, the dictionary is shared), so downstream operators keep their
/// translation-array fast paths across π / ∪.
void CopyPickedRows(const Batch& in, const std::vector<uint32_t>& picks,
                    const std::vector<size_t>* col_map, size_t num_cols, Batch* out) {
  out->Reset(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    size_t col = col_map ? (*col_map)[c] : c;
    BatchColumn& ocol = out->column(c);
    if (const BatchColumn* enc = in.EncodedColumn(col)) {
      ocol.dict = enc->dict;
      ocol.ids.reserve(picks.size());
      for (uint32_t i : picks) ocol.ids.push_back(enc->ids[in.RowAt(i)]);
    } else {
      ocol.values.reserve(picks.size());
      for (uint32_t i : picks) ocol.values.push_back(in.At(in.RowAt(i), col));
    }
  }
  out->set_rows(picks.size());
}

/// Active indices of the rows whose key id is the next unseen one — each
/// key's first occurrence, since ids are numbered in first-seen order —
/// advancing `*next_id` past them: the shared dedup step of π and ∪.
void FreshPicks(const std::vector<uint32_t>& ids, uint32_t* next_id,
                std::vector<uint32_t>* picks) {
  picks->clear();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == *next_id) {
      picks->push_back(static_cast<uint32_t>(i));
      ++*next_id;
    }
  }
}

}  // namespace

RelationScan::RelationScan(std::shared_ptr<const Relation> relation, TableEncodingPtr encoding)
    : relation_(std::move(relation)), encoding_(std::move(encoding)), end_(relation_->size()) {
  properties_ = StreamProperties::Set(relation_->schema().size());
  properties_.clustering = properties_.keys[0];
}

void RelationScan::RestrictToSpan(size_t begin, size_t end) {
  if (begin > end || end > relation_->size()) {
    throw std::out_of_range("scan span [" + std::to_string(begin) + ", " +
                            std::to_string(end) + ") is outside the relation's " +
                            std::to_string(relation_->size()) + " rows");
  }
  begin_ = begin;
  end_ = end;
  ranged_ = true;
}

bool RelationScan::NextBatch(Batch* out) {
  size_t n = TotalRows();
  if (position_ >= n) return false;
  size_t take = std::min(GetBatchRows(), n - position_);
  FillSpan(position_, take, out);
  position_ += take;
  CountRows(take);
  return true;
}

void RelationScan::FillSpan(size_t begin, size_t count, Batch* out) const {
  // Use the encoding only when its shape matches this relation exactly — a
  // stale or mis-wired encoding (e.g. swapped dividend/divisor arguments)
  // must degrade to the row view, not emit another table's dictionary ids.
  size_t first = begin_ + begin;  // storage row of the read's first row
  if (encoding_ != nullptr && encoding_->rows == relation_->size() &&
      encoding_->columns.size() == relation_->schema().size()) {
    out->Reset(relation_->schema().size());
    for (size_t c = 0; c < encoding_->columns.size(); ++c) {
      const ColumnEncoding& src = encoding_->columns[c];
      BatchColumn& col = out->column(c);
      col.dict = &src.dict;
      col.ids.assign(src.ids.begin() + first, src.ids.begin() + first + count);
    }
    out->set_rows(count);
  } else {
    // No (or stale) encoding: a zero-copy row view into canonical storage.
    out->ResetRows();
    for (size_t i = 0; i < count; ++i) out->AppendRowRef(&relation_->tuples()[first + i]);
  }
}

FilterIterator::FilterIterator(IterPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  properties_ = child_->properties();
}

void FilterIterator::Open() {
  ResetCount();
  child_->Open();
  bound_ = std::make_unique<BoundExpr>(predicate_, child_->schema());

  // Split the predicate for the batch path: single-column conjuncts get
  // per-dictionary verdict caches, everything else lands in the residual.
  column_conjuncts_.clear();
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(predicate_, &conjuncts);
  std::vector<ExprPtr> residual;
  for (ExprPtr& conjunct : conjuncts) {
    std::set<std::string> cols = conjunct->Columns();
    if (cols.size() == 1) {
      size_t idx = child_->schema().IndexOfOrThrow(*cols.begin());
      ColumnConjunct cc;
      cc.expr = std::move(conjunct);
      cc.col = idx;
      cc.col_schema = Schema({child_->schema().attribute(idx)});
      column_conjuncts_.push_back(std::move(cc));
    } else {
      residual.push_back(std::move(conjunct));
    }
  }
  residual_ = residual.empty() ? nullptr : Expr::AndAll(std::move(residual));
  residual_bound_ =
      residual_ ? std::make_unique<BoundExpr>(residual_, child_->schema()) : nullptr;
}

bool FilterIterator::RowPasses(const Batch& batch, uint32_t row) {
  for (ColumnConjunct& cc : column_conjuncts_) {
    const BatchColumn* enc = batch.EncodedColumn(cc.col);
    if (enc != nullptr) {
      if (!cc.pass[enc->ids[row]]) return false;
    } else {
      scratch_cell_.clear();
      scratch_cell_.push_back(batch.At(row, cc.col));
      if (!cc.expr->EvalBool(cc.col_schema, scratch_cell_)) return false;
    }
  }
  if (residual_bound_ != nullptr) {
    batch.ToTuple(row, &scratch_row_);
    if (!residual_bound_->EvalBool(scratch_row_)) return false;
  }
  return true;
}

bool FilterIterator::NextBatch(Batch* out) {
  while (child_->NextBatch(out)) {
    if (out->row_mode()) {
      // Row views carry whole tuples: evaluate the bound predicate in place,
      // exactly the tuple-at-a-time cost, no copies.
      out->Narrow([&](size_t, uint32_t r) { return bound_->EvalBool(*out->RowRef(r)); });
    } else {
      // Columnar: (re)fill verdict caches for this batch's dictionaries —
      // one predicate evaluation per distinct value, then a byte load per
      // row. Dictionaries are stable per stream, so this fills once.
      for (ColumnConjunct& cc : column_conjuncts_) {
        const BatchColumn* enc = out->EncodedColumn(cc.col);
        if (enc != nullptr && (enc->dict != cc.dict || cc.pass.size() < enc->dict->size())) {
          cc.dict = enc->dict;
          cc.pass.assign(cc.dict->size(), 0);
          Tuple cell(1);
          for (uint32_t id = 0; id < cc.pass.size(); ++id) {
            cell[0] = cc.dict->At(id);
            cc.pass[id] = cc.expr->EvalBool(cc.col_schema, cell);
          }
        }
      }
      out->Narrow([&](size_t, uint32_t r) { return RowPasses(*out, r); });
    }
    if (out->ActiveRows() > 0) {
      CountRows(out->ActiveRows());
      return true;
    }
  }
  return false;
}

ProjectIterator::ProjectIterator(IterPtr child, std::vector<std::string> columns)
    : child_(std::move(child)),
      schema_(child_->schema().Project(columns)),
      indices_(child_->schema().IndicesOfOrThrow(columns)) {
  const StreamProperties& in = child_->properties();
  properties_ = in.Map(indices_, indices_.size());
  dedup_ = in.HoldsKey(indices_) ? Dedup::kPass
           : in.GroupedOn(indices_) ? Dedup::kRuns
                                    : Dedup::kIds;
  std::vector<size_t> all(child_->schema().size());
  std::iota(all.begin(), all.end(), size_t{0});
  forward_ = dedup_ == Dedup::kPass && indices_ == all;
}

const char* ProjectIterator::ExplainNote() const {
  static constexpr const char* kNotes[] = {"dedup=pass", "dedup=runs", "dedup=ids"};
  return kNotes[static_cast<size_t>(dedup_)];
}

void ProjectIterator::Open() {
  ResetCount();
  child_->Open();
  has_last_ = false;
  if (dedup_ == Dedup::kIds) keyer_ = BatchIncrementalKeyer(indices_.size());
  next_id_ = 0;
}

bool ProjectIterator::NextBatch(Batch* out) {
  if (forward_) {
    if (!child_->NextBatch(out)) return false;
    CountRows(out->ActiveRows());
    return true;
  }
  while (child_->NextBatch(&in_batch_)) {
    const size_t n = in_batch_.ActiveRows();
    if (dedup_ == Dedup::kPass) {
      picks_.resize(n);
      std::iota(picks_.begin(), picks_.end(), uint32_t{0});
    } else if (dedup_ == Dedup::kRuns) {
      MarkKeyChanges(in_batch_, indices_, has_last_ ? &last_key_ : nullptr, &starts_);
      picks_.clear();
      for (uint32_t i = 0; i < n; ++i) {
        if (starts_[i]) picks_.push_back(i);
      }
      const uint32_t last = in_batch_.RowAt(n - 1);
      last_key_.resize(indices_.size());
      for (size_t c = 0; c < indices_.size(); ++c) last_key_[c] = in_batch_.At(last, indices_[c]);
      has_last_ = true;
    } else {
      keyer_.Keys(in_batch_, &indices_, &ids_);
      FreshPicks(ids_, &next_id_, &picks_);
    }
    if (picks_.empty()) continue;
    CopyPickedRows(in_batch_, picks_, &indices_, indices_.size(), out);
    CountRows(picks_.size());
    return true;
  }
  return false;
}

void ProjectIterator::Close() {
  child_->Close();
  keyer_ = BatchIncrementalKeyer();
}

RenameIterator::RenameIterator(IterPtr child,
                               std::vector<std::pair<std::string, std::string>> renames)
    : child_(std::move(child)) {
  std::vector<Attribute> attributes = child_->schema().attributes();
  for (const auto& [from, to] : renames) {
    attributes[child_->schema().IndexOfOrThrow(from)].name = to;
  }
  schema_ = Schema(std::move(attributes));
  properties_ = child_->properties();
}

UnionIterator::UnionIterator(IterPtr left, IterPtr right)
    : left_(std::move(left)),
      right_(std::move(right)),
      right_reorder_(ReorderIndices(left_->schema(), right_->schema())) {
  properties_ = StreamProperties::Set(left_->schema().size());
}

void UnionIterator::Open() {
  ResetCount();
  left_->Open();
  right_->Open();
  on_right_ = false;
  keyer_ = BatchIncrementalKeyer(left_->schema().size());
  next_id_ = 0;
}

bool UnionIterator::EmitFresh(const Batch& in, const std::vector<size_t>* col_map, Batch* out) {
  keyer_.Keys(in, col_map, &ids_);
  FreshPicks(ids_, &next_id_, &picks_);
  if (picks_.empty()) return false;
  CopyPickedRows(in, picks_, col_map, left_->schema().size(), out);
  CountRows(picks_.size());
  return true;
}

bool UnionIterator::NextBatch(Batch* out) {
  while (!on_right_) {
    if (!left_->NextBatch(&in_batch_)) {
      on_right_ = true;
      break;
    }
    if (EmitFresh(in_batch_, nullptr, out)) return true;
  }
  const std::vector<size_t>* col_map = right_reorder_.empty() ? nullptr : &right_reorder_;
  while (right_->NextBatch(&in_batch_)) {
    if (EmitFresh(in_batch_, col_map, out)) return true;
  }
  return false;
}

void UnionIterator::Close() {
  left_->Close();
  right_->Close();
  keyer_ = BatchIncrementalKeyer();
}

SetMembershipIterator::SetMembershipIterator(IterPtr left, IterPtr right, bool keep_members)
    : left_(std::move(left)),
      right_(std::move(right)),
      right_reorder_(ReorderIndices(left_->schema(), right_->schema())),
      keep_members_(keep_members) {
  properties_ = left_->properties();  // a subsequence of the left stream
}

void SetMembershipIterator::Open() {
  ResetCount();
  left_->Open();
  right_->Open();
  keyer_ = BatchIncrementalKeyer(left_->schema().size());
  const std::vector<size_t>* reorder = right_reorder_.empty() ? nullptr : &right_reorder_;
  Batch batch;
  while (right_->NextBatch(&batch)) {
    GovernorPoll();
    GovernorFaultPoint("pipeline.drain");
    keyer_.Keys(batch, reorder, &ids_);
  }
  build_keys_ = static_cast<uint32_t>(keyer_.size());
  next_id_ = build_keys_;
  emitted_.assign(keep_members_ ? build_keys_ : 0, 0);
  GovernorCharge(emitted_.size());
}

bool SetMembershipIterator::NextBatch(Batch* out) {
  while (left_->NextBatch(out)) {
    keyer_.Keys(*out, nullptr, &ids_);
    out->Narrow([&](size_t i, uint32_t) {
      const uint32_t id = ids_[i];
      if (id < build_keys_) {
        if (!keep_members_ || emitted_[id]) return false;
        emitted_[id] = 1;
        return true;
      }
      if (keep_members_ || id != next_id_) return false;
      ++next_id_;
      return true;
    });
    if (out->ActiveRows() > 0) {
      CountRows(out->ActiveRows());
      return true;
    }
  }
  return false;
}

void SetMembershipIterator::Close() {
  left_->Close();
  right_->Close();
  keyer_ = BatchIncrementalKeyer();
  emitted_.clear();
}

CrossProductIterator::CrossProductIterator(IterPtr left, IterPtr right)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())) {
  properties_ = PairedProperties(*left_, schema_.size());
}

void CrossProductIterator::Open() {
  ResetCount();
  left_->Open();
  right_->Open();
  right_rows_.clear();
  right_rows_.reserve(right_->EstimatedRows());
  DrainRows(*right_, &right_rows_);
  GovernorCharge(right_rows_.size() * (right_->schema().size() + 2) * 8);
  cursor_.Reset();
}

bool CrossProductIterator::NextBatch(Batch* out) {
  if (right_rows_.empty()) return false;
  size_t emitted = EmitPairs(
      *left_, cursor_, left_->schema().size(), right_->schema().size(), [](PairCursor&) {},
      [&](size_t) { return &right_rows_; },
      [](const Batch&, uint32_t, const Tuple&) { return true; }, out);
  if (emitted == 0) return false;
  CountRows(emitted);
  return true;
}

void CrossProductIterator::Close() {
  left_->Close();
  right_->Close();
  right_rows_.clear();
}

}  // namespace quotient
