#pragma once

// Key-encoded execution: dictionary-compressed flat keys for hash-based
// operators (division, great divide, joins, grouping, set operations).
//
// Keying a hash table by a full Tuple (vector<variant>) makes every probe
// re-walk variants and strings and every projected key a fresh heap
// allocation. Instead, each operator dictionary-encodes the distinct Values
// of its key columns into dense uint32_t ids and numbers whole keys densely
// (IncrementalKeyEncoder, see docs/key_encoding.md): a one-column key's id
// is its dictionary id, a two-column key packs into one flat uint64_t, and
// wider keys become a SmallByteKey, an inline byte string of the raw ids.
// The hot hash tables are flat open-addressing tables (FlatInterner) with
// zero per-probe allocation. Build sides number their keys while they
// drain; probe sides only find them (BatchKeyProbe, exec/batch.hpp), and a
// probe value unseen during the build cannot match any built key.

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "algebra/tuple.hpp"

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

/// Interns flat keys into dense uint32 ids (whole-key numbering). Works for
/// both key representations.
template <typename K>
using KeyInterner = FlatInterner<K, FlatKeyHash>;

/// The one key discipline: growable dictionaries with fixed 32-bit fields
/// and a dense numbering of whole keys. Every operator that keys rows uses
/// it: π, ∪, ∩, − and grouping to deduplicate, and the build sides of ÷,
/// ÷* and the joins, which number their keys as they drain (exec/batch.hpp,
/// BatchIncrementalKeyer) and are then probed without inserting (FindKey,
/// BatchKeyProbe).
///
/// InternKey numbers whole keys densely, in first-seen order. A one-column
/// key's id is its dictionary id, dense already, so nothing is hashed; keys
/// of two columns pack into a flat uint64_t and wider ones into a
/// SmallByteKey, each interned into a flat open-addressing table
/// (KeyInterner). Because ids run 0, 1, 2, ... in the order keys first
/// appear, a stream's row is the first occurrence of its key iff its id is
/// the next unseen one.
class IncrementalKeyEncoder {
 public:
  static constexpr uint32_t kNotFound = ValueDict::kNotFound;

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

  /// Dense id of the key whose per-column dictionary ids are `ids`, or
  /// kNotFound if it was never numbered. Never inserts.
  uint32_t FindKey(const uint32_t* ids) const {
    if (dicts_.size() == 1) return ids[0];
    if (fits64()) return keys64_.Find(PackIds(ids));
    SmallByteKey key;
    SpillFromIds(ids, &key);
    return keys_spill_.Find(key);
  }

  /// Numbers the key formed by the columns `indices` of `t` (row at a
  /// time; the batch path is BatchIncrementalKeyer).
  uint32_t InternRow(const Tuple& t, const std::vector<size_t>& indices) {
    row_scratch_.resize(dicts_.size());
    for (size_t c = 0; c < dicts_.size(); ++c) row_scratch_[c] = InternValue(c, t[indices[c]]);
    return InternKey(row_scratch_.data());
  }

  /// Id of the key formed by the columns `indices` of `t`, or kNotFound
  /// when some column value, or the whole key, was never numbered.
  uint32_t FindRow(const Tuple& t, const std::vector<size_t>& indices) const {
    if (dicts_.size() == 1) return dicts_[0].Find(t[indices[0]]);
    uint64_t packed = 0;
    SmallByteKey wide;
    for (size_t c = 0; c < dicts_.size(); ++c) {
      uint32_t id = dicts_[c].Find(t[indices[c]]);
      if (id == kNotFound) return kNotFound;
      if (fits64()) {
        packed |= uint64_t{id} << (32 * c);
      } else {
        wide.PushId(id);
      }
    }
    return fits64() ? keys64_.Find(packed) : keys_spill_.Find(wide);
  }

  /// Distinct keys numbered so far (for one column: the dictionary size).
  size_t size() const {
    if (dicts_.size() == 1) return dicts_[0].size();
    return fits64() ? keys64_.size() : keys_spill_.size();
  }

  /// Governor bytes for the keys numbered so far: 8 per key column per key.
  /// BatchIncrementalKeyer charges them as it numbers; a build published
  /// to the recycler releases them.
  size_t ChargedBytes() const { return size() * dicts_.size() * 8; }

  /// Coarse resident size for recycler LRU accounting: the charged bytes
  /// plus an allowance per dictionary value.
  size_t ApproxBytes() const {
    size_t bytes = ChargedBytes();
    for (const ValueDict& d : dicts_) bytes += d.size() * 32;
    return bytes;
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

  /// Key `id` as a Tuple.
  Tuple KeyTuple(uint32_t id) const {
    Tuple t;
    t.reserve(dicts_.size());
    DecodeKey(id, &t);
    return t;
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
  std::vector<uint32_t> row_scratch_;     // InternRow's per-column ids
};

}  // namespace quotient
