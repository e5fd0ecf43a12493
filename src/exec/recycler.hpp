#pragma once

// Cross-query artifact recycler (docs/recycler.md).
//
// The plan cache (api/database.hpp) amortizes compilation, but a repeated
// point query still pays the dominant remaining cost every execution:
// division, join, and grouping rebuild their hash tables, codec state, and
// divisor encodings from scratch even when the build side is an unchanged
// base table. The ArtifactRecycler is a Database-level, mutex-sharded LRU
// of those built sink states — divisor build tables for the small divides
// and the great divides, hash/equi/semi join build sides, and grouping
// results — held behind shared_ptr<const ...> so concurrent sessions share
// one build.
//
// KEYING. Entries are keyed on a plan-fragment fingerprint composed by the
// planner (opt/planner.cpp): a type-tagged serialization of the logical
// subtree feeding the build side, plus the pinned snapshot's per-table data
// versions (plan/catalog.hpp) for every base table the fragment scans.
// Fragments containing VALUES literals or unbound '?' parameter slots are
// not recyclable (their content is not captured by the serialization). DDL
// bumps a table's data version, so a stale artifact simply stops being
// addressable; Database::Ddl additionally calls InvalidateTables for
// memory hygiene. The thread count is deliberately NOT part of the key:
// every build-state drain runs serially, and the run sink's chunked drain
// matches its serial one, so build state is bit-identical at every thread
// count (docs/parallel_execution.md).
//
// ADMISSION. A build is published only on the second sighting of its
// fragment SHAPE: the key without the per-table data versions, hashed to 64
// bits by the planner. The first sighting builds privately (the reject
// path: the builder keeps its result and its governor charges), so a
// fragment that never recurs never occupies the cache. Sightings live in a
// per-shard doorkeeper in the manner of TinyLFU's (Einziger et al., ACM TOS
// 2017): a fixed two-probe Bloom filter, cleared after a fixed number of
// first sightings. Because the shape omits versions, a commit does not reset
// admission for a fragment that already recurs. A false positive only
// admits early; a reset never touches resident entries, because the index
// lookup runs first.
//
// BUILD-ONCE. GetOrBuild mirrors Catalog::Encoding's promise/shared_future
// discipline: the first query to miss becomes the builder, concurrent
// requesters for the same key wait (polling their own governor, so
// cancellation and deadlines still land) and adopt the published artifact.
// A failed or rejected build publishes nullptr and erases the in-flight
// entry — the cache is never poisoned, and waiters fall back to private
// builds. The recycler.lookup / recycler.publish fault sites make both
// paths deterministically testable.
//
// MEMORY. Cached artifacts are accounted against the recycler's own byte
// budget (DatabaseOptions::recycler_memory_bytes), not any query's: on
// publication the builder detaches the build's governor charges
// (SpilledU32Store::DetachCharges) and the artifact's ApproxBytes joins a
// global total. Before a publication inserts, it makes room by popping
// least-recently-used entries (own shard first, then a cross-shard sweep)
// until the total, with the new artifact, fits. Builds that
// spilled to disk are never published — their row reads go through a
// per-query temp file and a mutable page cache. A query adopting a cached
// artifact performs no Appends and therefore no Charges against its own
// budget.
//
// PROBATION. The LRU is segmented (SLRU): a published artifact enters a
// probation segment and its first hit promotes it to the protected one.
// Eviction takes never-hit entries first, and they may hold at most
// 1/kProbationShare of the budget together (more only while the one
// just-published artifact is larger than that by itself), so a stream of
// artifacts that are published but never reused — a windowed probe side
// whose window keeps moving — churns inside that share instead of flushing
// the build sides that do get reused. Publications are serialized by one
// mutex, so the segment bound holds at every instant, not only after the
// publisher's sweep.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/tuple.hpp"
#include "exec/key_codec.hpp"
#include "exec/spill.hpp"

namespace quotient {

/// Base of every cached build state. Concrete artifacts are immutable after
/// construction; the recycler shares them as shared_ptr<const ...>.
struct RecycledArtifact {
  virtual ~RecycledArtifact() = default;
  /// Coarse resident size, for the LRU byte budget.
  virtual size_t ApproxBytes() const = 0;
  /// True when any backing store flushed rows to the building query's spill
  /// file — such state must never be shared (see header comment).
  virtual bool SpilledToDisk() const = 0;
  /// Hands the build's governor charges back before publication: the cached
  /// copy is accounted by the recycler's budget, not the building query's.
  /// Runs on the builder thread, with the builder's context current.
  virtual void DetachBuildCharges() = 0;
};

using ArtifactPtr = std::shared_ptr<const RecycledArtifact>;

/// Coarse per-tuple size estimate shared by the artifact types.
inline size_t ApproxTupleBytes(const std::vector<Tuple>& rows) {
  size_t bytes = 0;
  for (const Tuple& t : rows) bytes += 24 + t.size() * 40;
  return bytes;
}

/// Divisor build side of the small divides (exec/exec_divide.cpp): the
/// sealed divisor key codec plus its dense key numbering.
struct DivisionBuildArtifact : RecycledArtifact {
  KeyCodec codec;        // sealed divisor key codec
  KeyNumbering numbers;  // built in place against `codec`

  size_t ApproxBytes() const override {
    return codec.ApproxBytes() + numbers.row_ids().size() * 4;
  }
  bool SpilledToDisk() const override { return codec.rows_on_disk(); }
  void DetachBuildCharges() override { codec.DetachRowCharges(); }
};

/// Dividend probe state of the small divides' matrix path (a dividend
/// clustered on A is divided run by run and leaves none): the sealed
/// dividend codec and the per-row divisor-key column. A probe hit skips
/// BOTH drains (the divisor drain too — divisor_count carries the only
/// divisor-side fact the kernel needs beyond what row_b encodes).
struct DivisionProbeArtifact : RecycledArtifact {
  KeyCodec a_codec;          // sealed dividend key codec
  SpilledU32Store row_b{1};  // per dividend row: divisor key id (or miss)
  size_t divisor_count = 0;  // distinct divisor keys at build time

  size_t ApproxBytes() const override {
    return a_codec.ApproxBytes() + row_b.rows() * 8;
  }
  bool SpilledToDisk() const override {
    return a_codec.rows_on_disk() || row_b.on_disk();
  }
  void DetachBuildCharges() override {
    a_codec.DetachRowCharges();
    row_b.DetachCharges();
  }
};

/// Divisor-side build state of the great divides (exec/exec_great_divide.cpp):
/// both divisor codecs, their numberings, and the per-group membership
/// structure derived from them.
struct GreatDivideBuildArtifact : RecycledArtifact {
  KeyCodec b_codec;  // divisor B-attribute codec
  KeyCodec c_codec;  // divisor C-attribute codec
  KeyNumbering b;
  KeyNumbering c;
  std::vector<uint32_t> group_sizes;  // per c-id distinct b count
  // The c-ids containing each b-id, flattened: b-id j's groups are
  // member_groups[member_begin[j] .. member_begin[j + 1]). One more, empty
  // range at j = b.count() takes misses (KeyNumbering::kNotFound clamped
  // to b.count()), so the kernels' row loops need no miss branch.
  std::vector<uint32_t> member_begin;  // b.count() + 2 offsets
  std::vector<uint32_t> member_groups;

  size_t ApproxBytes() const override {
    size_t bytes = b_codec.ApproxBytes() + c_codec.ApproxBytes();
    bytes += (b.row_ids().size() + c.row_ids().size() + group_sizes.size()) * 4;
    bytes += (member_begin.size() + member_groups.size()) * 4;
    return bytes;
  }
  bool SpilledToDisk() const override {
    return b_codec.rows_on_disk() || c_codec.rows_on_disk();
  }
  void DetachBuildCharges() override {
    b_codec.DetachRowCharges();
    c_codec.DetachRowCharges();
  }
};

/// Dividend probe state of the great divides. Unlike the small divide —
/// where divisor_count is the only divisor-side fact the kernel needs —
/// the great divide reads the full divisor-side state, so the
/// probe artifact pins the build artifact it was probed against: a probe
/// hit skips both drains.
struct GreatDivideProbeArtifact : RecycledArtifact {
  KeyCodec a_codec;
  KeyNumbering a;
  SpilledU32Store row_b{1};  // per dividend row: divisor b-id (or miss)
  std::shared_ptr<const GreatDivideBuildArtifact> build;  // probed-against state
  // Set (aliasing `build`) iff the divisor side was built privately rather
  // than adopted from the cache: publication must detach ITS charges too,
  // and its bytes are resident here rather than under the build key.
  std::shared_ptr<GreatDivideBuildArtifact> owned_build;

  size_t ApproxBytes() const override {
    size_t bytes = a_codec.ApproxBytes() + a.row_ids().size() * 4 + row_b.rows() * 8;
    if (owned_build) bytes += owned_build->ApproxBytes();
    return bytes;
  }
  bool SpilledToDisk() const override {
    return a_codec.rows_on_disk() || row_b.on_disk() || (build && build->SpilledToDisk());
  }
  void DetachBuildCharges() override {
    a_codec.DetachRowCharges();
    row_b.DetachCharges();
    if (owned_build) owned_build->DetachBuildCharges();
  }
};

/// Build side of the hash joins (exec/exec_join.cpp). One shape serves
/// natural, equi, semi, and anti joins: the key codec, its numbering, and
/// the per-key row buckets (payload rows for natural joins, full right rows
/// for equi joins, empty for semi/anti which only probe existence).
struct JoinBuildArtifact : RecycledArtifact {
  KeyCodec codec;
  KeyNumbering numbering;
  std::vector<std::vector<Tuple>> buckets;  // key id -> build rows
  bool right_empty = false;                 // degenerate no-key semi-join path
  size_t extra_charge = 0;                  // bucket bytes charged by the build

  size_t ApproxBytes() const override {
    size_t bytes = codec.ApproxBytes() + numbering.row_ids().size() * 4;
    for (const auto& bucket : buckets) bytes += 24 + ApproxTupleBytes(bucket);
    return bytes;
  }
  bool SpilledToDisk() const override { return codec.rows_on_disk(); }
  void DetachBuildCharges() override;  // releases extra_charge too
};

/// Grouping build state (exec/exec_agg.cpp). Aggregation's build state IS
/// its output, so the artifact is simply the finished result rows.
struct GroupingArtifact : RecycledArtifact {
  std::vector<Tuple> rows;
  size_t extra_charge = 0;  // group-state bytes charged by the build

  size_t ApproxBytes() const override { return ApproxTupleBytes(rows); }
  bool SpilledToDisk() const override { return false; }
  void DetachBuildCharges() override;
};

/// Aggregate counters, surfaced through Database::recycler_stats() and (per
/// query) ExecProfile. Every GetOrBuild call counts as exactly one hit
/// (served from cache, or adopted from a concurrent build) or one miss
/// (built, whether or not the result was published). Every miss of a
/// builder is exactly one of published, deferred or rejected; the remaining
/// misses are waiters whose builder failed or kept its build private.
struct RecyclerStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t published = 0;    // builds inserted into the cache
  size_t deferred = 0;     // first-sighting builds kept private (admission)
  size_t rejected = 0;     // builds not cached (spilled / over budget)
  size_t evictions = 0;
  size_t invalidated = 0;  // entries dropped by InvalidateTables
  size_t bytes = 0;        // resident artifact bytes
  size_t probation_bytes = 0;  // resident bytes of never-hit artifacts
  size_t entries = 0;      // resident artifact count
};

/// The shared recycler. All methods are thread-safe.
class ArtifactRecycler {
 public:
  using Builder = std::function<std::shared_ptr<RecycledArtifact>()>;

  /// `memory_budget_bytes` bounds the resident artifact total; artifacts
  /// larger than the whole budget are never cached.
  explicit ArtifactRecycler(size_t memory_budget_bytes);

  /// Returns the artifact for `key`, running `builder` on a miss.
  /// Build-once: concurrent callers with the same key wait for the first
  /// builder and adopt its result. Returns nullptr only to a waiter whose
  /// builder failed or did not publish — the caller then builds
  /// privately, without consulting the recycler again. `shape` is the
  /// key's version-free shape hash: the build is published only if that
  /// shape was sighted before. `tables` is the entry's invalidation domain
  /// (base tables the fragment scans).
  ArtifactPtr GetOrBuild(const std::string& key, uint64_t shape,
                         const std::vector<std::string>& tables,
                         const Builder& builder);

  /// Drops every entry referencing any of `tables`. Version-bearing keys
  /// already make stale entries unaddressable; this reclaims their memory
  /// promptly on DDL.
  void InvalidateTables(const std::vector<std::string>& tables);

  /// Drops every resident artifact (benchmarks' cold-start reset). Shape
  /// sightings are kept, so the next build of a recurring shape publishes.
  void Clear();

  RecyclerStats stats() const;
  size_t memory_budget_bytes() const { return budget_; }

  static constexpr size_t kShards = 8;
  /// Doorkeeper geometry, per shard: its bits, and the number of first
  /// sightings after which it is cleared. Just before a clear at most 2048
  /// of its 2^19 bits are set, so a new shape passes both probes (and is
  /// admitted early) with probability under 2e-5.
  static constexpr size_t kDoorkeeperBits = size_t{1} << 19;
  static constexpr size_t kDoorkeeperResetCount = 1024;
  /// Never-hit artifacts may hold at most budget / kProbationShare bytes.
  static constexpr size_t kProbationShare = 4;

 private:
  struct Entry {
    std::string key;
    ArtifactPtr artifact;
    size_t bytes = 0;
    std::vector<std::string> tables;
    bool on_probation = true;  // not hit since publication
  };
  using EntryList = std::list<Entry>;
  /// Two-probe Bloom filter over mixed shape hashes.
  struct Doorkeeper {
    std::vector<uint64_t> words = std::vector<uint64_t>(kDoorkeeperBits / 64);
    size_t inserts = 0;  // first sightings since the last clear
    /// Records a sighting; true when the shape was (probably) seen before.
    bool Sight(uint64_t mixed_shape);
  };
  struct Shard {
    mutable std::mutex mutex;
    EntryList probation;  // never-hit entries; front = most recently published
    EntryList lru;        // hit at least once; front = most recently used
    std::unordered_map<std::string, EntryList::iterator> index;  // into either list
    std::unordered_map<std::string, std::shared_future<ArtifactPtr>> building;
    Doorkeeper doorkeeper;
  };

  /// Makes room for an artifact of `incoming` bytes: evicts least-recently
  /// used entries, never-hit ones first, until the total fits the budget and
  /// the probation segment its share, starting at `start_shard` and sweeping
  /// the others one lock at a time. Caller holds publish_mutex_.
  void MakeRoom(size_t start_shard, size_t incoming);
  /// Unlinks `it` from `list` and the index, updating the byte accounts.
  void Drop(Shard& shard, EntryList& list, EntryList::iterator it);

  const size_t budget_;
  Shard shards_[kShards];
  std::mutex publish_mutex_;  // serializes MakeRoom + insert
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> probation_bytes_{0};
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> published_{0};
  std::atomic<size_t> deferred_{0};
  std::atomic<size_t> rejected_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> invalidated_{0};
};

/// Planner-composed recycling directive attached to a blocking operator
/// (opt/planner.cpp): the shared recycler plus the operator's cache keys.
/// build_key addresses the build-side artifact (divisor table, join build
/// side, great-divide divisor state); probe_key, where meaningful,
/// addresses the full probe-side artifact that additionally captures the
/// dividend drain. An empty key means that state is not recyclable (VALUES
/// leaves, '?' parameter slots, or no recycler configured). Each key's shape
/// hash is the same composition without the data versions (admission).
struct RecycleSpec {
  std::shared_ptr<ArtifactRecycler> recycler;
  std::string build_key;
  std::string probe_key;
  uint64_t build_shape = 0;
  uint64_t probe_shape = 0;
  std::vector<std::string> tables;  // invalidation domain of both keys
};

}  // namespace quotient
