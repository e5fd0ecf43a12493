// Unit tests for the key-encoding subsystem: dictionaries, 64-bit packing,
// the spill path, incremental encoding, and key numbering.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/relation.hpp"
#include "exec/batch.hpp"
#include "exec/key_codec.hpp"
#include "exec/query_context.hpp"
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

/// Key rows of `num_cols` columns drawn from [base, base + domain): even
/// columns hold ints, odd ones strings, so dictionaries mix value types.
std::vector<Tuple> KeyRows(size_t num_rows, size_t num_cols, int64_t base, int64_t domain,
                           uint64_t seed) {
  std::vector<Tuple> rows;
  uint64_t state = seed;
  for (size_t r = 0; r < num_rows; ++r) {
    Tuple row;
    for (size_t c = 0; c < num_cols; ++c) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      int64_t v = base + static_cast<int64_t>((state >> 33) % static_cast<uint64_t>(domain));
      row.push_back(c % 2 == 0 ? V(v) : V("s" + std::to_string(v)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Merges `parts` (each a chunk of key rows, in order) through
/// AppendTranslated and checks the result against one codec fed every row
/// serially: same dictionaries in id order, same row count, same per-row
/// ids and packed keys. With `spill_parts`, the parts and the merged codec
/// are built under a one-byte spill watermark (what QUOTIENT_SPILL_WATERMARK=1
/// arms on every session), so every part reads back from the spill file.
void ExpectMergeMatchesSerial(const std::vector<std::vector<Tuple>>& parts, size_t num_cols,
                              bool spill_parts = false) {
  KeyCodec serial(num_cols);
  for (const auto& part : parts) {
    for (const Tuple& row : part) serial.AddKey(row);
  }
  serial.Seal();

  QueryContext ctx;
  if (spill_parts) ctx.EnableSpill(/*watermark_bytes=*/1, /*dir=*/"");
  ScopedQueryContext scope(&ctx);
  KeyCodec merged(num_cols);
  for (const auto& rows : parts) {
    KeyCodec part(num_cols);
    for (const Tuple& row : rows) part.AddKey(row);
    if (spill_parts && !rows.empty()) EXPECT_TRUE(part.rows_on_disk());
    merged.AppendTranslated(part);
    part.ReleaseRowCharges();
  }
  merged.Seal();

  ASSERT_EQ(merged.rows(), serial.rows());
  for (size_t c = 0; c < num_cols; ++c) {
    ASSERT_EQ(merged.dict(c).size(), serial.dict(c).size()) << "column " << c;
    for (uint32_t id = 0; id < serial.dict(c).size(); ++id) {
      EXPECT_EQ(merged.dict(c).At(id), serial.dict(c).At(id)) << "column " << c << " id " << id;
    }
  }
  ASSERT_EQ(merged.spilled(), serial.spilled());
  for (size_t i = 0; i < serial.rows(); ++i) {
    EXPECT_EQ(merged.SpillKey(i), serial.SpillKey(i)) << "row " << i;  // the raw ids
    if (!serial.spilled()) EXPECT_EQ(merged.PackedKey(i), serial.PackedKey(i)) << "row " << i;
  }
}

TEST(KeyCodecTest, AppendTranslatedMatchesOneSerialCodec) {
  for (size_t batch_rows : {size_t{3}, size_t{1024}}) {  // block boundaries mid-part
    ScopedBatchRows batches(batch_rows);
    for (size_t cols : {size_t{1}, size_t{2}, size_t{3}}) {
      SCOPED_TRACE("cols=" + std::to_string(cols) + " batch_rows=" + std::to_string(batch_rows));
      const std::vector<Tuple> none;
      // Overlapping parts: every chunk draws from one domain.
      ExpectMergeMatchesSerial({KeyRows(40, cols, 0, 12, 1), KeyRows(57, cols, 0, 12, 2),
                                KeyRows(33, cols, 0, 12, 3)},
                               cols);
      // Disjoint parts: each chunk brings only new values.
      ExpectMergeMatchesSerial({KeyRows(25, cols, 0, 10, 4), KeyRows(25, cols, 100, 10, 5),
                                KeyRows(25, cols, 200, 10, 6)},
                               cols);
      // Empty parts anywhere, including first and last, and a lone part.
      ExpectMergeMatchesSerial({none, KeyRows(30, cols, 0, 7, 7), none, KeyRows(9, cols, 3, 7, 8),
                                none},
                               cols);
      ExpectMergeMatchesSerial({KeyRows(50, cols, 0, 20, 9)}, cols);
      ExpectMergeMatchesSerial({none, none}, cols);
    }
    // A hand-written two-chunk case: the second chunk repeats values of the
    // first and brings new ones in both columns.
    const Relation rows = Relation::Parse("a, b", "10,1; 20,1; 10,2; 30,1; 20,2; 40,3");
    const std::vector<Tuple>& t = rows.tuples();
    ExpectMergeMatchesSerial({{t.begin(), t.begin() + 3}, {t.begin() + 3, t.end()}}, 2);
  }
}

TEST(KeyCodecTest, AppendTranslatedReadsSpilledPartsRowByRow) {
  for (size_t cols : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    ExpectMergeMatchesSerial({KeyRows(700, cols, 0, 40, 11), std::vector<Tuple>{},
                              KeyRows(1500, cols, 20, 40, 12), KeyRows(300, cols, 500, 9, 13)},
                             cols, /*spill_parts=*/true);
  }
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
