#pragma once

// Shared database state for concurrent sessions (docs/api.md).
//
// A Database owns what N sessions must agree on:
//
//   * an immutable, versioned catalog SNAPSHOT, republished copy-on-write
//     by DDL — readers pin the current snapshot per statement and are never
//     blocked by (or exposed to a torn view of) a writer. Snapshots share
//     table storage and cached dictionary encodings (plan/catalog.hpp), so
//     publication is O(#tables) regardless of data size;
//   * a shared LRU PLAN CACHE keyed on normalized SQL, so sessions reuse
//     each other's compiled-and-rewritten plans. The cache is sharded by
//     key hash — each shard has its own mutex, list, and index, so 64
//     sessions hitting distinct statements do not serialize on one lock —
//     while capacity and eviction order stay GLOBAL via a logical-clock
//     stamp per entry (the globally least-recently-used entry is evicted,
//     whichever shard holds it). Entries record the snapshot version they
//     were compiled against and the base tables they reference; DDL
//     invalidates by bumping the touched tables' versions instead of
//     clearing caches other sessions are reading, so a statement over
//     table B survives DDL on table A;
//   * an ARTIFACT RECYCLER (exec/recycler.hpp) caching immutable build
//     state — divisor tables, join build sides, grouping results — keyed
//     on plan-fragment fingerprints plus table data versions, so repeated
//     executions skip the dominant build cost, not just compilation;
//   * an ADMISSION CONTROLLER metering the sum of per-statement memory
//     budgets: when admission_memory_bytes is set, a statement whose
//     budget does not fit next to the running ones waits in a bounded
//     FIFO queue (still honoring its cancel/deadline) instead of pushing
//     the process past the configured memory.
//
// Sessions (api/session.hpp) are cheap single-threaded handles onto one
// Database; the Database itself is fully thread-safe. All sessions share
// the process-wide worker pool (exec/scheduler.hpp), which admits one
// parallel region at a time — concurrent drains queue rather than
// oversubscribe.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "exec/recycler.hpp"
#include "opt/stats.hpp"
#include "plan/catalog.hpp"
#include "plan/logical.hpp"
#include "sql/ast.hpp"
#include "util/status.hpp"

namespace quotient {

class QueryContext;

struct DatabaseOptions {
  /// Capacity of the shared plan cache (entries). 0 disables caching.
  size_t plan_cache_capacity = 64;
  /// Database-wide admission budget: the sum of per-statement memory
  /// budgets (SessionOptions::memory_budget_bytes) running at once. An
  /// over-budget statement WAITS in a bounded FIFO queue until running
  /// statements release their grants, instead of failing outright.
  /// 0 disables admission control. Statements without a memory budget
  /// bypass the controller (they are invisible to it).
  size_t admission_memory_bytes = 0;
  /// Statements allowed to wait for admission at once; one more is
  /// rejected with kResourceExhausted ("admission queue full").
  size_t admission_max_queue = 16;
  /// Byte budget of the cross-query artifact recycler (exec/recycler.hpp):
  /// cached divisor/join/grouping build state shared across executions and
  /// sessions. 0 disables recycling entirely (no recycler is created).
  /// Overridable at construction by the QUOTIENT_RECYCLER environment
  /// variable (a byte count; "0" disables).
  size_t recycler_memory_bytes = 64ull << 20;
};

/// Counters of the transaction subsystem (docs/transactions.md).
struct TransactionStats {
  uint64_t begun = 0;        // BEGINs (Session::Begin / SQL BEGIN)
  uint64_t committed = 0;    // write sets published (autocommit DML included)
  uint64_t conflicts = 0;    // commits lost to first-committer-wins
  uint64_t rolled_back = 0;  // explicit ROLLBACKs
};

/// Counters of the database-wide admission controller.
struct AdmissionStats {
  size_t admitted = 0;      // grants handed out (immediate or after a wait)
  size_t queued = 0;        // statements that had to wait
  size_t rejected = 0;      // queue full, or a grant larger than the budget
  size_t timed_out = 0;     // deadline expired / cancelled while waiting
  size_t in_use_bytes = 0;  // currently granted bytes
  size_t waiting = 0;       // statements waiting right now
};

/// The compile story of one statement, attached to results and cursors and
/// rendered by EXPLAIN.
struct CompileInfo {
  bool compiled = false;   // false: the oracle interpreter ran / would run
  bool cache_hit = false;  // served from the plan cache
  std::string fallback_reason;  // why the lowering refused (when !compiled)
  std::string normalized_sql;   // the plan-cache key
  PlanPtr lowered;              // straight from sql::LowerQuery
  PlanPtr optimized;            // the searched plan (never costlier than lowered)
  std::vector<RewriteStep> rewrites;  // applied laws, in order
  double lowered_cost = 0;
  double optimized_cost = 0;
  /// Cost-guided search accounting (opt/memo.hpp).
  size_t search_candidates = 0;
  size_t memo_hits = 0;
  /// A search budget (opt/memo.hpp's constants) truncated exploration.
  bool rewrite_budget_exhausted = false;
};

/// A compiled statement as the shared plan cache stores it: either a
/// rewritten plan (info.compiled, possibly carrying '?' parameter slots
/// bound per execution via BindPlanParameters) or the parsed AST plus the
/// reason the oracle interpreter must run it. Immutable once published;
/// any number of sessions execute one entry concurrently.
struct CompiledStatement {
  CompileInfo info;
  std::shared_ptr<const sql::SqlQuery> ast;  // unbound statement template
  size_t param_count = 0;                    // '?' slots in the statement
};

/// An immutable catalog state at one version. Sessions pin a snapshot per
/// statement (and cursors pin it for their lifetime), so DDL publishing a
/// newer version never pulls storage out from under a running query.
class CatalogSnapshot {
 public:
  const Catalog& catalog() const { return catalog_; }
  uint64_t version() const { return version_; }
  /// Lazily-harvested per-table statistics feeding the optimizer's cost
  /// model (opt/stats.hpp), shared by every compile pinned to this
  /// snapshot. Versions with the data: DDL publishes a new snapshot with
  /// a fresh, empty cache, so estimates never reflect replaced contents.
  const StatsCache& stats() const { return *stats_; }

 private:
  friend class Database;
  Catalog catalog_;
  uint64_t version_ = 0;
  std::shared_ptr<StatsCache> stats_ = std::make_shared<StatsCache>();
};

using SnapshotPtr = std::shared_ptr<const CatalogSnapshot>;

struct PlanCacheStats {
  size_t hits = 0;         // lookups served from the cache
  size_t misses = 0;       // lookups that found nothing usable
  size_t compiles = 0;     // entries built (one full lower→rewrite each)
  size_t invalidated = 0;  // entries dropped by DDL or staleness checks
  size_t entries = 0;      // current cache size
  size_t shards = 0;       // shard count the cache is split across
  size_t contended = 0;    // shard-lock acquisitions that had to block
};

/// Counters of the cost-guided optimizer (docs/optimizer.md), aggregated
/// over cache-miss compiles and oracle-fallback executions.
struct OptimizerStats {
  /// Rewrite applications per rule name, over every compiled statement
  /// (budget markers are not rules and are not counted here).
  std::map<std::string, uint64_t> law_fires;
  /// Oracle-interpreter executions per lowering refusal reason.
  std::map<std::string, uint64_t> fallback_reasons;
  uint64_t searched_compiles = 0;  // compiles that ran the memo search
  uint64_t budget_exhausted = 0;   // compiles a budget truncated
};

/// One aggregate observability call (Database::Stats()): every subsystem's
/// counters in one consistent-enough snapshot (each group is internally
/// consistent; groups are read one after another without a global lock).
struct DatabaseStats {
  uint64_t snapshot_version = 0;  // current published catalog version
  PlanCacheStats plan_cache;
  AdmissionStats admission;
  RecyclerStats recycler;         // all zero when recycling is disabled
  TransactionStats transactions;
  OptimizerStats optimizer;
};

/// One table's worth of a transaction's private write set, as handed to
/// Database::CommitWriteSet: the table's full new contents plus the data
/// version (Catalog::DataVersion) the transaction's pinned snapshot held
/// for it. Commit publishes `rows` only if the live catalog still agrees
/// with `base_version` — first committer wins.
struct WriteSetEntry {
  std::string table;
  uint64_t base_version = 0;
  std::shared_ptr<const Relation> rows;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const DatabaseOptions& options() const { return options_; }

  // ---- DDL: copy-on-write snapshot publication (thread-safe) ----
  // Writers serialize on a DDL mutex, build the next snapshot from the
  // current one, and publish it atomically; concurrent readers keep the
  // snapshot they pinned. Each returns an error Status instead of throwing.
  Status CreateTable(const std::string& name, Relation rows);
  Status CreateTable(const std::string& name, const std::string& schema_spec);
  Status InsertRows(const std::string& name, const std::vector<Tuple>& rows);
  Status LoadCsv(const std::string& name, const std::string& csv_text);
  Status LoadCsvFile(const std::string& name, const std::string& path);
  Status DeclareKey(const std::string& table, const std::vector<std::string>& attrs);
  Status DeclareForeignKey(const std::string& from_table,
                           const std::vector<std::string>& attrs,
                           const std::string& to_table);
  Status DeclareDisjoint(const std::string& table1, const std::string& table2,
                         const std::vector<std::string>& attrs);

  /// The current published snapshot; never null.
  SnapshotPtr snapshot() const;
  /// Version of the current snapshot (0 = freshly constructed, empty).
  uint64_t version() const { return snapshot()->version(); }

  // ---- transactions (api/txn.hpp drives this; docs/transactions.md) ----
  /// Validates and publishes a transaction's write set under the DDL writer
  /// mutex, first-committer-wins: if any entry's table has a newer data
  /// version than `base_version` (another commit or DDL landed after the
  /// transaction pinned its snapshot), nothing publishes and the call
  /// returns StatusCode::kConflict. On success the write set publishes
  /// through the same atomic snapshot path as DDL — per-table versions
  /// bump, stale plan-cache entries sweep, and recycler artifacts over the
  /// written tables invalidate. Fault sites: "txn.validate" before the
  /// version check, "txn.publish" after it (plus the shared
  /// "snapshot.publish" inside publication).
  Status CommitWriteSet(const std::vector<WriteSetEntry>& writes);
  /// Transaction lifecycle tallies for Stats(); Sessions report BEGIN and
  /// explicit ROLLBACK, CommitWriteSet counts commits and conflicts itself.
  void NoteTransactionBegin() { txn_begun_.fetch_add(1, std::memory_order_relaxed); }
  void NoteTransactionRollback() {
    txn_rolled_back_.fetch_add(1, std::memory_order_relaxed);
  }
  TransactionStats transaction_stats() const;

  // ---- optimizer observability (docs/optimizer.md) ----
  /// Tallies one cache-miss compile: per-law fire counts from the applied
  /// rewrite trace, search participation, and budget truncation. Cache
  /// hits do not re-count — the tallies measure optimizer work performed,
  /// not statement executions.
  void NoteCompile(const CompileInfo& info);
  /// Tallies one execution the oracle interpreter ran instead of the
  /// compiled engine, keyed by the lowering's refusal reason.
  void NoteFallbackExecution(const std::string& reason);
  OptimizerStats optimizer_stats() const;

  /// Every subsystem's counters in one call (docs/api.md example).
  DatabaseStats Stats() const;

  // ---- shared plan cache ----
  /// Returns the cached entry for `key` as seen from a statement pinned at
  /// `pinned_version`, or nullptr. An entry is served only while every
  /// base table it references is unchanged since the snapshot it was
  /// compiled against (stale entries are dropped here), and never to a
  /// statement pinned BEFORE the entry's compile snapshot — a plan
  /// compiled against a newer catalog must not run on an older one.
  std::shared_ptr<const CompiledStatement> CacheLookup(const std::string& key,
                                                       uint64_t pinned_version);
  /// Publishes a compiled statement. `version` is the snapshot version the
  /// entry was compiled against and `tables` its invalidation domain; an
  /// entry already stale at insert time (DDL raced the compile) is
  /// discarded rather than published.
  void CacheInsert(const std::string& key,
                   std::shared_ptr<const CompiledStatement> compiled, uint64_t version,
                   std::vector<std::string> tables);

  size_t plan_cache_size() const;
  PlanCacheStats plan_cache_stats() const;
  void ClearPlanCache();

  // ---- artifact recycler ----
  /// The shared build-state cache; null when recycler_memory_bytes is 0.
  /// The planner threads this into PlannerOptions so blocking sinks can
  /// adopt cached builds (exec/recycler.hpp).
  const std::shared_ptr<ArtifactRecycler>& recycler() const { return recycler_; }
  /// Aggregate recycler counters (all zero when recycling is disabled).
  RecyclerStats recycler_stats() const;
  /// Drops every cached artifact (benchmarks' cold-start reset).
  void ClearRecycler();

  // ---- admission control ----
  /// Claims `bytes` of the database-wide admission budget for one
  /// statement. Returns immediately when the budget is disabled, `bytes`
  /// is zero, or the grant fits; otherwise waits in FIFO ticket order,
  /// polling `ctx` so a queued statement still honors Cancel() and its
  /// deadline. Errors (never partial grants): kResourceExhausted when
  /// `bytes` exceeds the whole budget, when the wait queue is full, or
  /// when the deadline expires while queued ("queued, timed out");
  /// the context's own trip status when cancelled while queued.
  Status AdmitQuery(size_t bytes, QueryContext* ctx);
  /// Returns a grant taken by AdmitQuery and wakes waiters. Called by the
  /// statement's QueryContext destructor via SetAdmissionRelease.
  void ReleaseAdmission(size_t bytes);
  AdmissionStats admission_stats() const;

 private:
  struct CacheSlot {
    std::string key;
    std::shared_ptr<const CompiledStatement> compiled;
    uint64_t version;                  // snapshot version compiled against
    std::vector<std::string> tables;   // referenced base tables
    uint64_t stamp = 0;                // global LRU clock at last use
  };
  using CacheList = std::list<CacheSlot>;
  /// One lock's worth of the plan cache. Keys hash-partition across
  /// shards; each shard keeps its own recency list (front = most recent),
  /// and the global eviction order falls out of the per-slot stamps.
  struct CacheShard {
    mutable std::mutex mutex;
    CacheList lru;
    std::unordered_map<std::string, CacheList::iterator> index;
    // Per-shard tallies, summed by plan_cache_stats(). The entries /
    // shards / contended fields of this embedded struct are unused.
    PlanCacheStats stats;
  };
  static constexpr size_t kCacheShards = 8;

  /// Copy-on-write DDL driver: copies the current catalog, applies
  /// `mutate`, publishes the result as version+1, and invalidates cached
  /// plans referencing `touched`.
  Status Ddl(const std::vector<std::string>& touched,
             const std::function<void(Catalog&)>& mutate);
  /// The shared publish tail of Ddl and CommitWriteSet: copy-mutate-publish
  /// with cache/recycler invalidation. Caller must hold ddl_mutex_.
  Status PublishLocked(const std::vector<std::string>& touched,
                       const std::function<void(Catalog&)>& mutate);
  /// True when a referenced table changed after the slot was compiled.
  /// Takes versions_mutex_ internally; callers may hold a shard mutex
  /// (lock order: shard before versions, never the reverse).
  bool SlotIsStale(const CacheSlot& slot) const;
  CacheShard& ShardFor(const std::string& key) const {
    return cache_shards_[std::hash<std::string>{}(key) % kCacheShards];
  }
  /// Locks a shard, counting the acquisition as contended when it blocks.
  std::unique_lock<std::mutex> LockShard(CacheShard& shard) const;
  /// Evicts globally least-recently-used slots (by stamp, across shards,
  /// one lock at a time) until the entry total fits the capacity.
  void EnforceCacheCapacity();

  DatabaseOptions options_;
  std::mutex ddl_mutex_;            // serializes writers
  mutable std::mutex state_mutex_;  // guards snapshot_ publication
  SnapshotPtr snapshot_;

  mutable std::array<CacheShard, kCacheShards> cache_shards_;
  std::atomic<uint64_t> cache_clock_{0};     // global LRU recency stamps
  std::atomic<size_t> cache_entries_{0};     // slots across all shards
  mutable std::atomic<size_t> cache_contended_{0};

  mutable std::mutex versions_mutex_;  // guards table_versions_
  // Last DDL version per table. Never pruned, but bounded: there is no
  // Drop API, so every name ever DDL'd is a live catalog table and this
  // map stays ⊆ the catalog's name set. Shared by all cache shards.
  std::unordered_map<std::string, uint64_t> table_versions_;

  std::shared_ptr<ArtifactRecycler> recycler_;  // null = disabled

  // Transaction tallies (TransactionStats). Plain counters: hot paths touch
  // them once per transaction, not per row.
  std::atomic<uint64_t> txn_begun_{0};
  std::atomic<uint64_t> txn_committed_{0};
  std::atomic<uint64_t> txn_conflicts_{0};
  std::atomic<uint64_t> txn_rolled_back_{0};

  mutable std::mutex optimizer_mutex_;  // guards optimizer_stats_
  OptimizerStats optimizer_stats_;

  mutable std::mutex admission_mutex_;  // guards everything below
  std::condition_variable admission_cv_;
  size_t admission_in_use_ = 0;         // granted bytes
  uint64_t admission_next_ticket_ = 1;  // FIFO order of waiters
  // Waiting tickets, ordered; the smallest ticket has the next turn. A
  // waiter that gives up (cancel/deadline/queue rejection) erases its
  // ticket, so an abandoned turn can never wedge the queue.
  std::set<uint64_t> admission_queue_;
  AdmissionStats admission_stats_;
};

}  // namespace quotient
