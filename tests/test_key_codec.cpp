// Unit tests for the key-encoding subsystem: dictionaries, 64-bit packing,
// the spill path, incremental encoding, and key numbering.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/relation.hpp"
#include "exec/key_codec.hpp"
#include "util/bitmap.hpp"

namespace quotient {
namespace {

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

TEST(ValueDictTest, DenseFirstSeenIds) {
  ValueDict dict;
  EXPECT_EQ(dict.GetOrAdd(V(7)), 0u);
  EXPECT_EQ(dict.GetOrAdd(V("x")), 1u);
  EXPECT_EQ(dict.GetOrAdd(V(7)), 0u);
  EXPECT_EQ(dict.GetOrAdd(V(2.5)), 2u);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.Find(V("x")), 1u);
  EXPECT_EQ(dict.Find(V("y")), ValueDict::kNotFound);
  EXPECT_EQ(dict.At(2), V(2.5));
}

TEST(ValueDictTest, StrictTypeEquality) {
  // Int(2) and Real(2.0) are distinct values and must get distinct ids.
  ValueDict dict;
  uint32_t int_id = dict.GetOrAdd(V(2));
  uint32_t real_id = dict.GetOrAdd(V(2.0));
  EXPECT_NE(int_id, real_id);
}

TEST(ValueDictTest, ManyValuesSurviveGrowth) {
  ValueDict dict;
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(dict.GetOrAdd(V(i)), static_cast<uint32_t>(i));
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(dict.Find(V(i)), static_cast<uint32_t>(i));
  EXPECT_EQ(dict.Find(V(10000)), ValueDict::kNotFound);
}

TEST(SmallByteKeyTest, InlineAndHeap) {
  SmallByteKey a;
  SmallByteKey b;
  // 8 ids fit inline; 20 ids force the heap path.
  for (uint32_t i = 0; i < 20; ++i) {
    a.PushId(i);
    b.PushId(i);
  }
  EXPECT_EQ(a.num_ids(), 20u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  for (uint32_t i = 0; i < 20; ++i) EXPECT_EQ(a.IdAt(i), i);
  b.PushId(99);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b);  // proper prefix sorts first

  SmallByteKey copy = a;  // deep copy of the heap buffer
  EXPECT_EQ(copy, a);
  copy.Clear();
  EXPECT_EQ(copy.num_ids(), 0u);
  EXPECT_EQ(a.num_ids(), 20u);
}

TEST(KeyCodecTest, PacksMultiColumnKeysInto64Bits) {
  // 3 columns with small dictionaries: widths sum well under 64.
  Relation r = Relation::Parse("x, y, z",
                               "1,10,100; 1,20,100; 2,10,200; 2,20,100; 1,10,200");
  KeyCodec codec(3);
  for (const Tuple& t : r.tuples()) codec.Add(t, Iota(3));
  codec.Seal();
  ASSERT_FALSE(codec.spilled());
  EXPECT_EQ(codec.rows(), r.size());

  // Distinct rows get distinct keys; Decode is the inverse of packing.
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < codec.rows(); ++i) {
    keys.push_back(codec.PackedKey(i));
    EXPECT_EQ(codec.DecodeTuple(keys.back()), r.tuples()[i]);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());

  // Probing re-encodes build tuples identically and rejects unseen values.
  uint64_t probe;
  ASSERT_TRUE(codec.TryEncode(r.tuples()[2], Iota(3), &probe));
  EXPECT_EQ(probe, codec.PackedKey(2));
  EXPECT_FALSE(codec.TryEncode({V(1), V(10), V(999)}, Iota(3), &probe));
}

TEST(KeyCodecTest, SpillsWhenWidthsOverflow) {
  // 17 columns × 4-bit dictionaries = 68 bits > 64: must spill.
  constexpr size_t kCols = 17;
  KeyCodec codec(kCols);
  std::vector<Tuple> rows;
  for (int64_t v = 0; v < 10; ++v) {
    Tuple t;
    for (size_t c = 0; c < kCols; ++c) t.push_back(V((v + static_cast<int64_t>(c)) % 10));
    rows.push_back(t);
    codec.Add(rows.back(), Iota(kCols));
  }
  codec.Seal();
  ASSERT_TRUE(codec.spilled());

  std::vector<SmallByteKey> keys;
  for (size_t i = 0; i < codec.rows(); ++i) {
    keys.push_back(codec.SpillKey(i));
    EXPECT_EQ(codec.DecodeTuple(keys.back()), rows[i]);
  }
  SmallByteKey probe;
  ASSERT_TRUE(codec.TryEncodeSpill(rows[3], Iota(kCols), &probe));
  EXPECT_EQ(probe, keys[3]);
  Tuple foreign = rows[3];
  foreign[5] = V(12345);
  EXPECT_FALSE(codec.TryEncodeSpill(foreign, Iota(kCols), &probe));
}

TEST(KeyCodecTest, SingleColumnKeysAreDenseIds) {
  KeyCodec codec(1);
  Relation r = Relation::Parse("b", "5; 9; 2");
  for (const Tuple& t : r.tuples()) codec.Add(t, Iota(1));
  codec.Seal();
  EXPECT_TRUE(codec.keys_are_dense_ids());
  for (size_t i = 0; i < codec.rows(); ++i) EXPECT_EQ(codec.PackedKey(i), i);
}

TEST(KeyCodecTest, ZeroColumnKeysDegenerate) {
  // A zero-column key (degenerate join on no common attributes): every row
  // has the same (empty) key.
  KeyCodec codec(0);
  codec.AddKey({});
  codec.AddKey({});
  codec.Seal();
  EXPECT_EQ(codec.rows(), 2u);
  EXPECT_FALSE(codec.spilled());
  EXPECT_EQ(codec.PackedKey(0), codec.PackedKey(1));
  uint64_t probe;
  EXPECT_TRUE(codec.TryEncode({V(1)}, {}, &probe));
  EXPECT_EQ(probe, codec.PackedKey(0));
}

TEST(KeyNumberingTest, NumbersAndProbes) {
  Relation build = Relation::Parse("x, y", "1,10; 2,10; 1,20; 2,10");
  KeyCodec codec(2);
  for (const Tuple& t : build.tuples()) codec.Add(t, Iota(2));
  codec.Seal();
  KeyNumbering num;
  num.Build(codec);
  EXPECT_EQ(num.count(), 3u);  // canonical storage dedups the build rows
  for (size_t i = 0; i < codec.rows(); ++i) {
    EXPECT_EQ(num.KeyTuple(num.row_ids()[i]), build.tuples()[i]);
    EXPECT_EQ(num.Probe(build.tuples()[i], Iota(2)), num.row_ids()[i]);
  }
  EXPECT_EQ(num.Probe({V(3), V(10)}, Iota(2)), KeyNumbering::kNotFound);
  // Per-column values seen, but the combination never built: probe encodes
  // and then misses in the numbering.
  EXPECT_EQ(num.Probe({V(2), V(20)}, Iota(2)), KeyNumbering::kNotFound);
}

/// Interns every column of `t` into `enc`'s dictionaries (growing them as
/// needed) and returns the per-column ids, as the batch keyer does.
std::vector<uint32_t> InternIds(IncrementalKeyEncoder& enc, const Tuple& t) {
  std::vector<uint32_t> ids;
  for (size_t c = 0; c < enc.num_cols(); ++c) ids.push_back(enc.InternValue(c, t[c]));
  return ids;
}

TEST(IncrementalKeyEncoderTest, TwoColumnKeysStayFlat) {
  IncrementalKeyEncoder enc(2);
  ASSERT_TRUE(enc.fits64());
  Tuple t1 = {V("a"), V(1)};
  Tuple t2 = {V("b"), V(1)};
  uint64_t k1 = enc.PackIds(InternIds(enc, t1).data());
  uint64_t k2 = enc.PackIds(InternIds(enc, t2).data());
  EXPECT_NE(k1, k2);
  EXPECT_EQ(k1, enc.PackIds(InternIds(enc, t1).data()));  // growth keeps keys stable
  Tuple decoded;
  enc.Decode(k2, &decoded);
  EXPECT_EQ(decoded, t2);
}

TEST(IncrementalKeyEncoderTest, WideKeysSpill) {
  IncrementalKeyEncoder enc(4);
  ASSERT_FALSE(enc.fits64());
  Tuple t = {V(1), V(2), V(3), V("four")};
  SmallByteKey k1, k2;
  enc.SpillFromIds(InternIds(enc, t).data(), &k1);
  enc.SpillFromIds(InternIds(enc, t).data(), &k2);
  EXPECT_EQ(k1, k2);
  Tuple decoded;
  enc.Decode(k1, &decoded);
  EXPECT_EQ(decoded, t);
}

TEST(BitmapMatrixTest, RowsAndBits) {
  BitmapMatrix m(70);  // spans two words per row
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.AddRow(), 0u);
  EXPECT_EQ(m.AddRow(), 1u);
  for (size_t bit = 0; bit < 70; ++bit) m.Set(1, bit);
  m.Set(0, 69);
  EXPECT_TRUE(m.Test(0, 69));
  EXPECT_FALSE(m.Test(0, 68));
  EXPECT_EQ(m.RowCount(0), 1u);
  EXPECT_FALSE(m.RowAll(0));
  EXPECT_TRUE(m.RowAll(1));
}

}  // namespace
}  // namespace quotient
