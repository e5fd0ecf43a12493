// Unit tests for the key-encoding subsystem: dictionaries, wide (spill)
// keys, the incremental encoder's numbering, and its probes (FindKey,
// FindRow, BatchKeyProbe).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/relation.hpp"
#include "exec/batch.hpp"
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

// ---------------------------------------------------------------------------
// KeyEncoderProbeTest: build sides number keys with IncrementalKeyEncoder;
// probes (FindKey, FindRow, BatchKeyProbe) only find them.
// ---------------------------------------------------------------------------

/// How a test batch carries its columns.
enum class Layout { kEncoded, kValues, kRowView };

/// One batch holding every row of `r`: dictionary-encoded columns from
/// `enc`, plain Value columns, or row views.
Batch MakeBatch(const Relation& r, const TableEncoding& enc, Layout layout) {
  Batch batch;
  if (layout == Layout::kRowView) {
    batch.ResetRows();
    for (const Tuple& t : r.tuples()) batch.AppendRowRef(&t);
    return batch;
  }
  const size_t nc = r.schema().size();
  batch.Reset(nc);
  for (size_t c = 0; c < nc; ++c) {
    BatchColumn& col = batch.column(c);
    if (layout == Layout::kEncoded) {
      col.dict = &enc.columns[c].dict;
      col.ids = enc.columns[c].ids;
    } else {
      for (const Tuple& t : r.tuples()) col.values.push_back(t[c]);
    }
  }
  batch.set_rows(r.size());
  return batch;
}

/// Numbers the `idx` columns of every row of `r` with a batch keyer, as a
/// build side's drain does, and returns the finished encoder.
IncrementalKeyEncoder BuildKeys(const Relation& r, const std::vector<size_t>& idx) {
  auto enc = TableEncoding::Build(r);
  BatchIncrementalKeyer keyer(idx.size());
  std::vector<uint32_t> ids;
  keyer.Keys(MakeBatch(r, *enc, Layout::kEncoded), &idx, &ids);
  return keyer.TakeEncoder();
}

/// Probes every row of `r` in `layout` and returns one id per row.
std::vector<uint32_t> Probe(const IncrementalKeyEncoder& keys, const std::vector<size_t>& idx,
                            const Relation& r, Layout layout) {
  auto enc = TableEncoding::Build(r);
  Batch batch = MakeBatch(r, *enc, layout);
  BatchKeyProbe probe;
  probe.Bind(&keys, &idx);
  std::vector<uint32_t> out;
  probe.Resolve(batch, &out);
  return out;
}

/// Sizes that a probe must leave alone: whole keys and every dictionary.
std::vector<size_t> Sizes(const IncrementalKeyEncoder& keys) {
  std::vector<size_t> sizes = {keys.size()};
  for (size_t c = 0; c < keys.num_cols(); ++c) sizes.push_back(keys.dict(c).size());
  return sizes;
}

TEST(KeyEncoderProbeTest, ThreeColumnKeysNumberDecodeAndProbe) {
  Relation r = Relation::Parse("x, y, z",
                               "1,10,100; 1,20,100; 2,10,200; 2,20,100; 1,10,200");
  IncrementalKeyEncoder keys(3);
  ASSERT_FALSE(keys.fits64());
  std::vector<uint32_t> ids;
  for (const Tuple& t : r.tuples()) ids.push_back(keys.InternRow(t, Iota(3)));

  // Distinct rows get distinct ids, densely in first-seen order; KeyTuple
  // is the inverse of numbering.
  EXPECT_EQ(keys.size(), r.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i);
    EXPECT_EQ(keys.KeyTuple(ids[i]), r.tuples()[i]);
  }
  // Probing finds build tuples again and rejects unseen values.
  EXPECT_EQ(keys.FindRow(r.tuples()[2], Iota(3)), ids[2]);
  EXPECT_EQ(keys.FindRow({V(1), V(10), V(999)}, Iota(3)), IncrementalKeyEncoder::kNotFound);
}

TEST(KeyEncoderProbeTest, WideKeysNumberAndProbe) {
  // 17 columns take the SmallByteKey path (past the heap threshold too).
  constexpr size_t kCols = 17;
  IncrementalKeyEncoder keys(kCols);
  std::vector<Tuple> rows;
  std::vector<uint32_t> ids;
  for (int64_t v = 0; v < 10; ++v) {
    Tuple t;
    for (size_t c = 0; c < kCols; ++c) t.push_back(V((v + static_cast<int64_t>(c)) % 10));
    rows.push_back(t);
    ids.push_back(keys.InternRow(rows.back(), Iota(kCols)));
  }
  ASSERT_EQ(keys.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(keys.KeyTuple(ids[i]), rows[i]);
  EXPECT_EQ(keys.FindRow(rows[3], Iota(kCols)), ids[3]);
  Tuple foreign = rows[3];
  foreign[5] = V(12345);
  EXPECT_EQ(keys.FindRow(foreign, Iota(kCols)), IncrementalKeyEncoder::kNotFound);
  // Every value seen, in a combination never numbered.
  Tuple mixed = rows[3];
  mixed[5] = rows[4][5];
  EXPECT_EQ(keys.FindRow(mixed, Iota(kCols)), IncrementalKeyEncoder::kNotFound);
}

TEST(KeyEncoderProbeTest, SingleColumnKeysAreDictionaryIds) {
  IncrementalKeyEncoder keys(1);
  Relation r = Relation::Parse("b", "5; 9; 2; 9");
  for (const Tuple& t : r.tuples()) keys.InternRow(t, Iota(1));
  EXPECT_EQ(keys.size(), 3u);
  for (const Tuple& t : r.tuples()) {
    uint32_t id = keys.dict(0).Find(t[0]);
    EXPECT_EQ(keys.FindKey(&id), id);
    EXPECT_EQ(keys.FindRow(t, Iota(1)), id);
  }
}

TEST(KeyEncoderProbeTest, ZeroColumnKeysDegenerate) {
  // A zero-column key (a join on no common attributes): every row has the
  // same (empty) key, and nothing is found before it is numbered.
  IncrementalKeyEncoder keys(0);
  EXPECT_EQ(keys.FindRow({V(1)}, {}), IncrementalKeyEncoder::kNotFound);
  EXPECT_EQ(keys.InternRow({V(1)}, {}), 0u);
  EXPECT_EQ(keys.InternRow({V(2)}, {}), 0u);
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys.FindRow({V(3)}, {}), 0u);
  EXPECT_TRUE(keys.KeyTuple(0).empty());
}

TEST(KeyEncoderProbeTest, NumbersAndProbes) {
  Relation build = Relation::Parse("x, y", "1,10; 2,10; 1,20; 2,10");
  IncrementalKeyEncoder keys(2);
  std::vector<uint32_t> ids;
  for (const Tuple& t : build.tuples()) ids.push_back(keys.InternRow(t, Iota(2)));
  EXPECT_EQ(keys.size(), 3u);  // canonical storage dedups the build rows
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(keys.KeyTuple(ids[i]), build.tuples()[i]);
    EXPECT_EQ(keys.FindRow(build.tuples()[i], Iota(2)), ids[i]);
  }
  EXPECT_EQ(keys.FindRow({V(3), V(10)}, Iota(2)), IncrementalKeyEncoder::kNotFound);
  // Per-column values seen, but the combination never built: every column
  // resolves and the whole key then misses.
  EXPECT_EQ(keys.FindRow({V(2), V(20)}, Iota(2)), IncrementalKeyEncoder::kNotFound);
}

TEST(KeyEncoderProbeTest, ProbesNeverInsert) {
  Relation build = Relation::Parse("w, x:string, y, z:string", "1,a,10,p; 2,b,20,q; 1,b,10,q");
  // Unseen values in every column, and unseen combinations of seen ones.
  Relation foreign =
      Relation::Parse("w, x:string, y, z:string", "7,c,70,r; 2,a,20,p; 1,b,20,p; 9,a,10,p");
  for (size_t nc : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    SCOPED_TRACE("columns=" + std::to_string(nc));
    IncrementalKeyEncoder keys = BuildKeys(build, Iota(nc));
    const std::vector<size_t> sizes = Sizes(keys);
    for (Layout layout : {Layout::kEncoded, Layout::kValues, Layout::kRowView}) {
      Probe(keys, Iota(nc), foreign, layout);
      EXPECT_EQ(Sizes(keys), sizes);
    }
    std::vector<uint32_t> ids(nc, 0);
    for (const Tuple& t : foreign.tuples()) {
      keys.FindRow(t, Iota(nc));
      if (nc > 0) keys.FindKey(ids.data());
    }
    EXPECT_EQ(Sizes(keys), sizes);
  }
}

TEST(KeyEncoderProbeTest, MissInAnyColumnIsNotFound) {
  Relation build = Relation::Parse("w, x:string, y", "1,a,10; 2,b,20");
  for (size_t nc : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("columns=" + std::to_string(nc));
    IncrementalKeyEncoder keys = BuildKeys(build, Iota(nc));
    // Row 0 of the probe matches build row 0; row 1 + c replaces column c
    // of it with a value that column never holds.
    std::vector<Tuple> rows = {build.tuples()[0]};
    const Tuple unseen = {V(99), V("zz"), V(990)};
    for (size_t c = 0; c < nc; ++c) {
      Tuple t = build.tuples()[0];
      t[c] = unseen[c];
      rows.push_back(t);
    }
    Relation probe(build.schema(), rows);
    // Relation canonicalizes its rows: look the match up by value.
    for (Layout layout : {Layout::kEncoded, Layout::kValues, Layout::kRowView}) {
      std::vector<uint32_t> ids = Probe(keys, Iota(nc), probe, layout);
      ASSERT_EQ(ids.size(), probe.size());
      for (size_t i = 0; i < probe.size(); ++i) {
        bool match = probe.tuples()[i] == build.tuples()[0];
        EXPECT_EQ(ids[i], match ? 0u : IncrementalKeyEncoder::kNotFound) << i;
      }
    }
  }
}

TEST(KeyEncoderProbeTest, LayoutsAndForeignDictionariesResolveAlike) {
  const char* schema = "w, x:string, y, z:string";
  Relation build = Relation::Parse(schema, "3,c,30,r; 1,a,10,p; 2,b,20,q; 1,b,10,q; 2,a,30,p");
  // Another table over the same values plus some of its own: its first
  // (canonical) row holds new values, so every column's dictionary numbers
  // the shared values in another order.
  Relation other = Relation::Parse(
      schema, "0,c,40,s; 9,z,90,s; 2,a,30,p; 1,b,10,q; 2,b,20,q; 1,b,20,q; 3,c,30,r; 1,a,10,p");
  for (size_t nc : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    SCOPED_TRACE("columns=" + std::to_string(nc));
    IncrementalKeyEncoder keys = BuildKeys(build, Iota(nc));
    for (const Relation* r : {&build, &other}) {
      std::vector<uint32_t> expected;
      for (const Tuple& t : r->tuples()) expected.push_back(keys.FindRow(t, Iota(nc)));
      for (Layout layout : {Layout::kEncoded, Layout::kValues, Layout::kRowView}) {
        EXPECT_EQ(Probe(keys, Iota(nc), *r, layout), expected);
      }
    }
    // Every build row is found, as the id the keyer gave it.
    for (const Tuple& t : build.tuples()) {
      uint32_t id = keys.FindRow(t, Iota(nc));
      ASSERT_NE(id, IncrementalKeyEncoder::kNotFound);
      Tuple key = keys.KeyTuple(id);
      EXPECT_EQ(key, Tuple(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(nc)));
    }
  }
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
