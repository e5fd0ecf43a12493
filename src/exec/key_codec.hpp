#pragma once

// Key-encoded execution: dictionary-compressed flat keys for hash-based
// operators (division, great divide, joins, grouping, set operations).
//
// Keying a hash table by a full Tuple (vector<variant>) makes every probe
// re-walk variants and strings and every projected key a fresh heap
// allocation. Instead, each operator Open() dictionary-encodes the distinct
// Values of its key columns into dense uint32_t ids and packs a
// multi-attribute key into one flat 64-bit integer, so the hot hash tables
// are flat open-addressing tables of uint64_t keys (FlatInterner) with
// trivial hash/equality and zero per-probe allocation. When the per-column id widths do not fit in 64 bits
// the codec spills to SmallByteKey, an inline byte string of the raw ids.
//
// Two encoding disciplines are provided (see docs/key_encoding.md):
//   KeyCodec               — two-phase "build then probe": ingest all build
//                            rows, Seal() to fix per-column bit widths, then
//                            read back packed keys and probe foreign tuples
//                            (a probe value unseen during build cannot match
//                            any built key, so TryEncode may simply fail).
//   IncrementalKeyEncoder  — growable dictionaries with fixed 32-bit fields
//                            and a dense numbering of whole keys, for
//                            streaming deduplication and grouping where keys
//                            must be numbered before the input is exhausted.

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "algebra/tuple.hpp"
#include "exec/spill.hpp"

namespace quotient {

/// Spill key: the raw little-endian uint32 ids of a key, stored inline up to
/// kInlineBytes (8 attributes) with a heap fallback for wider keys. Totally
/// ordered (bytewise) so sort-based algorithms work on spilled keys too.
class SmallByteKey {
 public:
  static constexpr size_t kInlineBytes = 32;

  SmallByteKey() = default;
  SmallByteKey(const SmallByteKey& other) { *this = other; }
  SmallByteKey(SmallByteKey&& other) noexcept = default;
  SmallByteKey& operator=(const SmallByteKey& other) {
    if (this == &other) return *this;
    size_ = other.size_;
    if (other.heap_) {
      heap_ = std::make_unique<uint8_t[]>(size_);
      heap_cap_ = size_;
      std::memcpy(heap_.get(), other.heap_.get(), size_);
    } else {
      heap_.reset();
      heap_cap_ = 0;
      inline_ = other.inline_;
    }
    return *this;
  }
  SmallByteKey& operator=(SmallByteKey&& other) noexcept = default;

  size_t size() const { return size_; }
  size_t num_ids() const { return size_ / sizeof(uint32_t); }
  const uint8_t* data() const { return heap_ ? heap_.get() : inline_.data(); }

  void PushId(uint32_t id) {
    uint8_t* dst = EnsureCapacity(size_ + sizeof(uint32_t));
    std::memcpy(dst + size_, &id, sizeof(uint32_t));
    size_ += sizeof(uint32_t);
  }

  uint32_t IdAt(size_t i) const {
    uint32_t id;
    std::memcpy(&id, data() + i * sizeof(uint32_t), sizeof(uint32_t));
    return id;
  }

  void Clear() {
    size_ = 0;
    heap_.reset();
    heap_cap_ = 0;
  }

  bool operator==(const SmallByteKey& other) const {
    return size_ == other.size_ && std::memcmp(data(), other.data(), size_) == 0;
  }
  bool operator!=(const SmallByteKey& other) const { return !(*this == other); }
  bool operator<(const SmallByteKey& other) const {
    size_t n = size_ < other.size_ ? size_ : other.size_;
    int c = std::memcmp(data(), other.data(), n);
    if (c != 0) return c < 0;
    return size_ < other.size_;
  }

  /// FNV-1a over the key bytes.
  size_t Hash() const {
    uint64_t h = 0xcbf29ce484222325ull;
    const uint8_t* p = data();
    for (size_t i = 0; i < size_; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
    return static_cast<size_t>(h);
  }

 private:
  uint8_t* EnsureCapacity(size_t needed) {
    if (!heap_) {
      if (needed <= kInlineBytes) return inline_.data();
      heap_cap_ = static_cast<uint32_t>(needed * 2);
      heap_ = std::make_unique<uint8_t[]>(heap_cap_);
      std::memcpy(heap_.get(), inline_.data(), size_);
      return heap_.get();
    }
    if (needed <= heap_cap_) return heap_.get();
    heap_cap_ = static_cast<uint32_t>(needed * 2);
    auto grown = std::make_unique<uint8_t[]>(heap_cap_);
    std::memcpy(grown.get(), heap_.get(), size_);
    heap_ = std::move(grown);
    return heap_.get();
  }

  uint32_t size_ = 0;
  uint32_t heap_cap_ = 0;
  std::array<uint8_t, kInlineBytes> inline_{};
  std::unique_ptr<uint8_t[]> heap_;
};

/// Hash functor usable for both flat-key representations. The uint64_t path
/// applies a full-avalanche mix (murmur3 fmix64) because packed keys are
/// dense in the low bits.
struct FlatKeyHash {
  size_t operator()(uint64_t k) const {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return static_cast<size_t>(k);
  }
  size_t operator()(const SmallByteKey& k) const { return k.Hash(); }
};

/// Interns keys into dense uint32 ids via an open-addressing table (linear
/// probing, power-of-two capacity). Hashes are computed once per key and
/// cached, so growth and collision checks never re-hash; only the dense id
/// and the cached hash live in the probe path, which keeps it allocation-
/// free and cache-friendly — this is what makes encoded probes cheap.
template <typename K, typename Hash>
class FlatInterner {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  FlatInterner() = default;
  explicit FlatInterner(size_t expected) { Reserve(expected); }

  /// Id of `key`, inserting it if new. Ids are dense, in first-seen order.
  uint32_t Intern(const K& key) {
    if (keys_.size() + 1 > (slots_.size() >> 1) + (slots_.size() >> 2)) Grow();
    size_t h = Hash{}(key);
    size_t mask = slots_.size() - 1;
    size_t idx = h & mask;
    while (slots_[idx] != 0) {
      uint32_t id = slots_[idx] - 1;
      if (hashes_[id] == h && keys_[id] == key) return id;
      idx = (idx + 1) & mask;
    }
    uint32_t id = static_cast<uint32_t>(keys_.size());
    slots_[idx] = id + 1;
    keys_.push_back(key);
    hashes_.push_back(h);
    return id;
  }

  /// Id of `key` if present, kNotFound otherwise. Never inserts.
  uint32_t Find(const K& key) const {
    if (slots_.empty()) return kNotFound;
    size_t h = Hash{}(key);
    size_t mask = slots_.size() - 1;
    size_t idx = h & mask;
    while (slots_[idx] != 0) {
      uint32_t id = slots_[idx] - 1;
      if (hashes_[id] == h && keys_[id] == key) return id;
      idx = (idx + 1) & mask;
    }
    return kNotFound;
  }

  const K& At(uint32_t id) const { return keys_[id]; }
  size_t size() const { return keys_.size(); }

  void Reserve(size_t expected) {
    keys_.reserve(expected);
    hashes_.reserve(expected);
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

 private:
  void Grow() { Rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  void Rehash(size_t cap) {
    slots_.assign(cap, 0);
    size_t mask = cap - 1;
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      size_t idx = hashes_[id] & mask;
      while (slots_[idx] != 0) idx = (idx + 1) & mask;
      slots_[idx] = id + 1;
    }
  }

  std::vector<uint32_t> slots_;  // open-addressing table of id+1 (0 = empty)
  std::vector<K> keys_;          // id -> key
  std::vector<size_t> hashes_;   // id -> cached hash
};

/// Dense dictionary of the distinct Values of one key column.
class ValueDict {
 public:
  static constexpr uint32_t kNotFound = FlatInterner<Value, ValueHash>::kNotFound;

  /// Id of `v`, inserting it if new. Ids are dense, assigned in first-seen
  /// order.
  uint32_t GetOrAdd(const Value& v) { return interner_.Intern(v); }

  /// Id of `v` if present, kNotFound otherwise. Never inserts.
  uint32_t Find(const Value& v) const { return interner_.Find(v); }

  const Value& At(uint32_t id) const { return interner_.At(id); }
  size_t size() const { return interner_.size(); }
  void Reserve(size_t n) { interner_.Reserve(n); }

 private:
  FlatInterner<Value, ValueHash> interner_;
};

/// Two-phase key codec for blocking build sides.
///
/// Build phase: Add() every build row (interns each key column's Value and
/// records the id row-major). Seal() then assigns each column the minimal
/// bit width for its dictionary and lays the columns out in one uint64_t;
/// if the widths sum past 64 bits the codec is `spilled()` and keys are
/// SmallByteKeys of the raw ids instead.
///
/// Probe phase (after Seal): TryEncode() encodes a foreign tuple against the
/// frozen dictionaries; it fails iff some column value was never seen during
/// build, in which case the key cannot equal any built key.
class KeyCodec {
 public:
  KeyCodec() = default;
  explicit KeyCodec(size_t num_cols) : dicts_(num_cols), ids_(num_cols) {}

  size_t num_cols() const { return dicts_.size(); }
  size_t rows() const { return num_rows_; }
  bool sealed() const { return sealed_; }
  bool spilled() const { return spilled_; }
  const ValueDict& dict(size_t col) const { return dicts_[col]; }

  /// True when packed keys coincide with dense dictionary ids (single key
  /// column): the id space is exactly 0..dict(0).size()-1, so consumers can
  /// index arrays by key directly instead of interning.
  bool keys_are_dense_ids() const { return dicts_.size() == 1 && !spilled_; }

  void Reserve(size_t expected_rows) { ids_.Reserve(expected_rows); }

  /// Ingests the key columns of `t` selected by `indices` (build phase).
  void Add(const Tuple& t, const std::vector<size_t>& indices) {
    scratch_.clear();
    for (size_t c = 0; c < dicts_.size(); ++c) {
      scratch_.push_back(dicts_[c].GetOrAdd(t[indices[c]]));
    }
    ids_.Append(scratch_.data(), 1);
    ++num_rows_;
  }

  /// Ingests an already-projected key tuple (all positions, in order).
  void AddKey(const Tuple& key) {
    scratch_.clear();
    for (size_t c = 0; c < dicts_.size(); ++c) scratch_.push_back(dicts_[c].GetOrAdd(key[c]));
    ids_.Append(scratch_.data(), 1);
    ++num_rows_;
  }

  /// Batch build path: interns `v` into column `c`'s dictionary without
  /// appending a row (BatchCodecAppender resolves ids per column, then
  /// appends whole rows of pre-resolved ids via AppendRows).
  uint32_t InternValue(size_t c, const Value& v) { return dicts_[c].GetOrAdd(v); }

  /// Batch probe path: id of `v` in column `c`'s dictionary, or
  /// ValueDict::kNotFound.
  uint32_t FindValue(size_t c, const Value& v) const { return dicts_[c].Find(v); }

  /// Appends `nrows` build rows of pre-resolved ids, row-major
  /// (nrows * num_cols() ids).
  void AppendRows(const uint32_t* ids, size_t nrows) {
    ids_.Append(ids, nrows);
    num_rows_ += nrows;
  }

  /// True when some build rows were flushed to the query's spill file; such
  /// a codec reads through a per-query temp file and cannot be shared.
  bool rows_on_disk() const { return ids_.on_disk(); }

  /// Releases the row store's charge and detaches it from the building
  /// query's governor, so the codec can be cached beyond the query
  /// (exec/recycler.hpp). Only valid when !rows_on_disk().
  void DetachRowCharges() { ids_.DetachCharges(); }

  /// Coarse resident-size estimate for recycler LRU accounting: 8 bytes per
  /// stored id (matching the governor's charge formula) plus a per-distinct-
  /// value allowance for the dictionaries.
  size_t ApproxBytes() const {
    size_t bytes = num_rows_ * dicts_.size() * 8;
    for (const ValueDict& d : dicts_) bytes += d.size() * 32;
    return bytes;
  }

  /// Packs pre-resolved per-column ids into a flat key. Valid after Seal()
  /// when !spilled(); every id must come from this codec's dictionaries.
  uint64_t PackIds(const uint32_t* ids) const {
    uint64_t key = 0;
    for (size_t c = 0; c < dicts_.size(); ++c) key |= uint64_t{ids[c]} << shifts_[c];
    return key;
  }

  /// Spill form of PackIds, for sealed codecs with spilled() layouts.
  void SpillFromIds(const uint32_t* ids, SmallByteKey* out) const {
    out->Clear();
    for (size_t c = 0; c < dicts_.size(); ++c) out->PushId(ids[c]);
  }

  /// Freezes dictionaries and chooses the packed layout.
  void Seal();

  /// Packed key of build row `i`. Valid after Seal() when !spilled().
  uint64_t PackedKey(size_t i) const {
    const uint32_t* ids = ids_.Row(i);
    uint64_t key = 0;
    for (size_t c = 0; c < dicts_.size(); ++c) key |= uint64_t{ids[c]} << shifts_[c];
    return key;
  }

  /// Spill key of build row `i`. Valid after Seal() when spilled().
  SmallByteKey SpillKey(size_t i) const {
    const uint32_t* ids = ids_.Row(i);
    SmallByteKey key;
    for (size_t c = 0; c < dicts_.size(); ++c) key.PushId(ids[c]);
    return key;
  }

  /// Probe-only encode of a foreign tuple. False iff some column value was
  /// never seen during build.
  bool TryEncode(const Tuple& t, const std::vector<size_t>& indices, uint64_t* out) const {
    uint64_t key = 0;
    for (size_t c = 0; c < dicts_.size(); ++c) {
      uint32_t id = dicts_[c].Find(t[indices[c]]);
      if (id == ValueDict::kNotFound) return false;
      key |= uint64_t{id} << shifts_[c];
    }
    *out = key;
    return true;
  }

  bool TryEncodeSpill(const Tuple& t, const std::vector<size_t>& indices,
                      SmallByteKey* out) const {
    out->Clear();
    for (size_t c = 0; c < dicts_.size(); ++c) {
      uint32_t id = dicts_[c].Find(t[indices[c]]);
      if (id == ValueDict::kNotFound) return false;
      out->PushId(id);
    }
    return true;
  }

  /// Appends the column Values of a packed key to `out`.
  void Decode(uint64_t key, Tuple* out) const {
    for (size_t c = 0; c < dicts_.size(); ++c) {
      out->push_back(dicts_[c].At(static_cast<uint32_t>((key >> shifts_[c]) & masks_[c])));
    }
  }
  void Decode(const SmallByteKey& key, Tuple* out) const {
    for (size_t c = 0; c < dicts_.size(); ++c) out->push_back(dicts_[c].At(key.IdAt(c)));
  }

  template <typename K>
  Tuple DecodeTuple(const K& key) const {
    Tuple t;
    t.reserve(dicts_.size());
    Decode(key, &t);
    return t;
  }

 private:
  std::vector<ValueDict> dicts_;
  // Row-major build-row ids (num_cols() per row) in a store that flushes to
  // the current query's spill file past the governor's soft watermark.
  SpilledU32Store ids_;
  std::vector<uint32_t> scratch_;  // one row of ids, assembled before Append
  std::vector<uint32_t> shifts_;   // per-column bit offset in the packed key
  std::vector<uint64_t> masks_;    // per-column id mask in the packed key
  size_t num_rows_ = 0;
  bool sealed_ = false;
  bool spilled_ = false;
};

/// Interns flat keys into dense uint32 ids (candidate numbering, divisor
/// numbering, whole-key numbering). Works for both key representations.
template <typename K>
using KeyInterner = FlatInterner<K, FlatKeyHash>;

/// Growable encoder for streaming deduplication (π, ∪, ∩, −) and grouping:
/// dictionaries accept new values at any time, so each column gets a fixed
/// 32-bit field. Keys of up to two columns fit the flat uint64_t; wider keys
/// spill.
///
/// InternKey numbers whole keys densely, in first-seen order: this is the
/// one set discipline of those operators. A one-column key's id is its
/// dictionary id, dense already, so nothing is hashed; wider keys are
/// interned into a flat open-addressing table (KeyInterner). Because ids
/// run 0, 1, 2, ... in the order keys first appear, a stream's row is the
/// first occurrence of its key iff its id is the next unseen one.
class IncrementalKeyEncoder {
 public:
  IncrementalKeyEncoder() = default;
  explicit IncrementalKeyEncoder(size_t num_cols) : dicts_(num_cols) {}

  size_t num_cols() const { return dicts_.size(); }
  bool fits64() const { return dicts_.size() <= 2; }
  const ValueDict& dict(size_t col) const { return dicts_[col]; }

  /// Interns `v` into column `c`'s (growable) dictionary; ids never move.
  uint32_t InternValue(size_t c, const Value& v) { return dicts_[c].GetOrAdd(v); }

  /// Dense id of the key whose per-column dictionary ids are `ids`,
  /// numbering it if it is new.
  uint32_t InternKey(const uint32_t* ids) {
    if (dicts_.size() == 1) return ids[0];
    if (fits64()) return keys64_.Intern(PackIds(ids));
    SpillFromIds(ids, &spill_scratch_);
    return keys_spill_.Intern(spill_scratch_);
  }

  /// Distinct keys numbered so far (for one column: the dictionary size).
  size_t size() const {
    if (dicts_.size() == 1) return dicts_[0].size();
    return fits64() ? keys64_.size() : keys_spill_.size();
  }

  /// Appends the column Values of key `id` to `out`.
  void DecodeKey(uint32_t id, Tuple* out) const {
    if (dicts_.size() == 1) {
      out->push_back(dicts_[0].At(id));
    } else if (fits64()) {
      Decode(keys64_.At(id), out);
    } else {
      Decode(keys_spill_.At(id), out);
    }
  }

  /// Packs pre-resolved per-column ids into the fixed 32-bit-field layout.
  /// Only valid when fits64().
  uint64_t PackIds(const uint32_t* ids) const {
    uint64_t key = 0;
    for (size_t c = 0; c < dicts_.size(); ++c) key |= uint64_t{ids[c]} << (32 * c);
    return key;
  }

  /// Spill form of PackIds, for keys of three or more columns.
  void SpillFromIds(const uint32_t* ids, SmallByteKey* out) const {
    out->Clear();
    for (size_t c = 0; c < dicts_.size(); ++c) out->PushId(ids[c]);
  }

  /// Appends the column Values of an encoded key to `out`.
  void Decode(uint64_t key, Tuple* out) const {
    for (size_t c = 0; c < dicts_.size(); ++c) {
      out->push_back(dicts_[c].At(static_cast<uint32_t>(key >> (32 * c))));
    }
  }
  void Decode(const SmallByteKey& key, Tuple* out) const {
    for (size_t c = 0; c < dicts_.size(); ++c) out->push_back(dicts_[c].At(key.IdAt(c)));
  }

 private:
  std::vector<ValueDict> dicts_;
  KeyInterner<uint64_t> keys64_;          // two columns (or none)
  KeyInterner<SmallByteKey> keys_spill_;  // three or more columns
  SmallByteKey spill_scratch_;
};

/// Drop-in replacement for KeyInterner<uint64_t> when the codec's packed
/// keys are already dense ids (keys_are_dense_ids()): numbering is the
/// identity, so the hot loop performs no hashing at all. size() is the full
/// id space (dictionary size) rather than the number of keys seen.
struct DenseNumbering {
  static constexpr uint32_t kNotFound = UINT32_MAX;
  size_t n = 0;  // id space: dict(0).size()

  uint32_t Intern(uint64_t key) { return static_cast<uint32_t>(key); }
  uint32_t Find(uint64_t key) const { return static_cast<uint32_t>(key); }
  uint64_t At(uint32_t id) const { return id; }
  size_t size() const { return n; }
};

/// Typed views over a sealed codec, so algorithms can be written once and
/// instantiated for both the packed-64 and the spill representation.
struct PackedKeyView {
  using Key = uint64_t;
  const KeyCodec* codec;
  Key RowKey(size_t i) const { return codec->PackedKey(i); }
  bool TryEncode(const Tuple& t, const std::vector<size_t>& indices, Key* out) const {
    return codec->TryEncode(t, indices, out);
  }
  void Decode(const Key& key, Tuple* out) const { codec->Decode(key, out); }
};

struct SpillKeyView {
  using Key = SmallByteKey;
  const KeyCodec* codec;
  Key RowKey(size_t i) const { return codec->SpillKey(i); }
  bool TryEncode(const Tuple& t, const std::vector<size_t>& indices, Key* out) const {
    return codec->TryEncodeSpill(t, indices, out);
  }
  void Decode(const Key& key, Tuple* out) const { codec->Decode(key, out); }
};

/// Calls `f` with the view matching the sealed codec's representation.
template <typename F>
void WithKeyView(const KeyCodec& codec, F&& f) {
  if (codec.spilled()) {
    f(SpillKeyView{&codec});
  } else {
    f(PackedKeyView{&codec});
  }
}

/// Dense numbering of a sealed codec's build keys behind one non-template
/// interface: picks the identity (single dictionary column), packed-64, or
/// spill representation once at Build() time. Used where a branch per probe
/// is cheap enough (great divide, joins, grouping); hash-division stays
/// fully templated on the key representation instead.
class KeyNumbering {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// Numbers the codec's build rows; ids are dense, in first-seen order.
  void Build(const KeyCodec& codec) {
    codec_ = &codec;
    dense_ = codec.keys_are_dense_ids();
    row_ids_.clear();
    row_ids_.reserve(codec.rows());
    if (dense_) {
      count_ = codec.dict(0).size();
      for (size_t i = 0; i < codec.rows(); ++i) {
        row_ids_.push_back(static_cast<uint32_t>(codec.PackedKey(i)));
      }
    } else if (!codec.spilled()) {
      interner64_.Reserve(codec.rows());
      for (size_t i = 0; i < codec.rows(); ++i) {
        row_ids_.push_back(interner64_.Intern(codec.PackedKey(i)));
      }
      count_ = interner64_.size();
    } else {
      for (size_t i = 0; i < codec.rows(); ++i) {
        row_ids_.push_back(interner_spill_.Intern(codec.SpillKey(i)));
      }
      count_ = interner_spill_.size();
    }
  }

  /// Dense id of build row `i`.
  const std::vector<uint32_t>& row_ids() const { return row_ids_; }
  /// Number of distinct keys.
  size_t count() const { return count_; }

  /// Dense id of a foreign tuple's key, or kNotFound if it cannot equal any
  /// built key.
  uint32_t Probe(const Tuple& t, const std::vector<size_t>& indices) const {
    if (dense_) return codec_->dict(0).Find(t[indices[0]]);
    if (!codec_->spilled()) {
      uint64_t key;
      return codec_->TryEncode(t, indices, &key) ? interner64_.Find(key) : kNotFound;
    }
    SmallByteKey key;
    return codec_->TryEncodeSpill(t, indices, &key) ? interner_spill_.Find(key) : kNotFound;
  }

  /// Batch-path probe: dense id for a key given as per-column codec
  /// dictionary ids (every id already resolved, no misses). BatchKeyProbe
  /// handles the miss detection before calling this.
  uint32_t ProbeIds(const uint32_t* ids) const {
    if (dense_) return ids[0];
    if (!codec_->spilled()) return interner64_.Find(codec_->PackIds(ids));
    SmallByteKey key;
    codec_->SpillFromIds(ids, &key);
    return interner_spill_.Find(key);
  }

  /// Decodes key `id` back into a Tuple.
  Tuple KeyTuple(uint32_t id) const {
    if (dense_) return codec_->DecodeTuple(uint64_t{id});
    if (!codec_->spilled()) return codec_->DecodeTuple(interner64_.At(id));
    return codec_->DecodeTuple(interner_spill_.At(id));
  }

 private:
  const KeyCodec* codec_ = nullptr;
  bool dense_ = false;
  size_t count_ = 0;
  std::vector<uint32_t> row_ids_;
  KeyInterner<uint64_t> interner64_;
  KeyInterner<SmallByteKey> interner_spill_;
};

}  // namespace quotient
