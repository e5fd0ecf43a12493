#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace quotient {

/// A fixed-width dynamic bitmap. The clustered hash-division keeps one for
/// the current run of equal quotient attributes, recording which divisor
/// tuples that candidate has hit (Graefe's hash-division bitmap scheme).
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

  size_t size() const { return bits_; }

  void Set(size_t i) { words_[i >> 6] |= (uint64_t{1} << (i & 63)); }
  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  /// Number of set bits.
  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  /// True iff every bit is set.
  bool All() const { return Count() == bits_; }

  /// True iff no bit is set.
  bool None() const {
    for (uint64_t w : words_)
      if (w != 0) return false;
    return true;
  }

  /// True iff bits [0, n) are all set (n <= size()); bits past n are
  /// ignored.
  bool AllBelow(size_t n) const {
    size_t full = n >> 6;
    for (size_t i = 0; i < full; ++i) {
      if (words_[i] != ~uint64_t{0}) return false;
    }
    size_t rest = n & 63;
    if (rest == 0) return true;
    uint64_t mask = (uint64_t{1} << rest) - 1;
    return (words_[full] & mask) == mask;
  }

  /// Clears every bit.
  void Clear() {
    for (uint64_t& w : words_) w = 0;
  }

  /// Sets every bit that is set in `other` (same size).
  void OrWith(const Bitmap& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// Bytes of the word storage.
  size_t Bytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

/// A growable stack of equal-width bitmaps in one contiguous allocation.
/// Hash-division keeps one bitmap per quotient candidate; with candidates
/// numbered densely by the key codec, a matrix row per candidate replaces a
/// hash map of Bitmap objects (one allocation and no per-candidate hashing).
class BitmapMatrix {
 public:
  BitmapMatrix() = default;
  /// A matrix of `rows` zeroed rows, each `bits_per_row` bits wide.
  explicit BitmapMatrix(size_t bits_per_row, size_t rows = 0)
      : bits_(bits_per_row), words_per_row_((bits_per_row + 63) / 64) {
    words_.resize(rows * words_per_row_, 0);
  }

  size_t bits_per_row() const { return bits_; }
  size_t rows() const { return words_per_row_ == 0 ? 0 : words_.size() / words_per_row_; }

  /// Appends a zeroed row; returns its index.
  size_t AddRow() {
    words_.resize(words_.size() + words_per_row_, 0);
    return rows() - 1;
  }

  void Reserve(size_t expected_rows) { words_.reserve(expected_rows * words_per_row_); }

  void Set(size_t row, size_t bit) {
    words_[row * words_per_row_ + (bit >> 6)] |= uint64_t{1} << (bit & 63);
  }
  bool Test(size_t row, size_t bit) const {
    return (words_[row * words_per_row_ + (bit >> 6)] >> (bit & 63)) & 1;
  }

  /// Number of set bits in `row`.
  size_t RowCount(size_t row) const {
    size_t n = 0;
    const uint64_t* w = &words_[row * words_per_row_];
    for (size_t i = 0; i < words_per_row_; ++i) n += static_cast<size_t>(__builtin_popcountll(w[i]));
    return n;
  }

  /// True iff every bit of `row` is set.
  bool RowAll(size_t row) const { return RowCount(row) == bits_; }

 private:
  size_t bits_ = 0;
  size_t words_per_row_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace quotient
