#include "api/database.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "exec/query_context.hpp"
#include "util/csv.hpp"

namespace quotient {

namespace {

/// CI/bench override: QUOTIENT_RECYCLER=<bytes> replaces the configured
/// recycler budget for every Database constructed in the process ("0"
/// disables recycling), mirroring QUOTIENT_SPILL_WATERMARK (session.cpp).
size_t RecyclerBudget(size_t configured) {
  static const char* env = std::getenv("QUOTIENT_RECYCLER");
  if (env == nullptr) return configured;
  return static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

std::vector<std::string> TablesOf(const std::vector<WriteSetEntry>& writes) {
  std::vector<std::string> tables;
  tables.reserve(writes.size());
  for (const WriteSetEntry& write : writes) tables.push_back(write.table);
  return tables;
}

}  // namespace

Database::Database(DatabaseOptions options) : options_(options) {
  snapshot_ = std::make_shared<CatalogSnapshot>();
  options_.recycler_memory_bytes = RecyclerBudget(options_.recycler_memory_bytes);
  if (options_.recycler_memory_bytes > 0) {
    recycler_ = std::make_shared<ArtifactRecycler>(options_.recycler_memory_bytes);
  }
}

SnapshotPtr Database::snapshot() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return snapshot_;
}

Status Database::Ddl(const std::vector<std::string>& touched,
                     const std::function<void(Catalog&)>& mutate) {
  std::lock_guard<std::mutex> ddl(ddl_mutex_);
  return PublishLocked(touched, mutate);
}

Status Database::PublishLocked(const std::vector<std::string>& touched,
                               const std::function<void(Catalog&)>& mutate) {
  auto next = std::make_shared<CatalogSnapshot>();
  try {
    SnapshotPtr current = snapshot();
    next->catalog_ = current->catalog();  // O(#tables): storage is shared
    next->version_ = current->version() + 1;
    mutate(next->catalog_);
    // Fault site: a DDL failing here leaves the previous snapshot published
    // and the cache untouched — the sweep test proves publication is atomic.
    GovernorFaultPoint("snapshot.publish");
  } catch (const QueryAbort& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status::Error(e.what());
  }
  uint64_t version = next->version();
  // Invalidate by touched table, not by clearing: bump the tables' versions
  // and sweep their entries eagerly so plans over unrelated tables keep
  // hitting. This happens BEFORE the snapshot publishes: a statement that
  // pins the new version can never find an entry over a touched table that
  // is not yet marked stale (the compile-vs-DDL race the slot versions
  // close; a compile racing this bump is caught by the staleness re-check
  // in CacheInsert).
  {
    std::lock_guard<std::mutex> versions(versions_mutex_);
    for (const std::string& table : touched) table_versions_[table] = version;
  }
  for (CacheShard& shard : cache_shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (SlotIsStale(*it)) {
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
        ++shard.stats.invalidated;
        cache_entries_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
  // Recycler entries key on table data versions, so stale artifacts stop
  // being addressable the moment the new snapshot publishes; this sweep
  // just reclaims their memory promptly.
  if (recycler_) recycler_->InvalidateTables(touched);
  std::lock_guard<std::mutex> state(state_mutex_);
  snapshot_ = std::move(next);
  return Status::Ok();
}

Status Database::CommitWriteSet(const std::vector<WriteSetEntry>& writes) {
  if (writes.empty()) {
    // An empty write set has nothing to validate or publish: a read-only
    // transaction always commits.
    txn_committed_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  std::lock_guard<std::mutex> ddl(ddl_mutex_);
  try {
    // Fault site: a trip here models losing the commit before validation —
    // nothing published, nothing counted as a conflict.
    GovernorFaultPoint("txn.validate");
    // First-committer-wins validation under the writer mutex: the pinned
    // data version of every written table must still be the live one.
    SnapshotPtr current = snapshot();
    for (const WriteSetEntry& write : writes) {
      uint64_t live = current->catalog().DataVersion(write.table);
      if (live != write.base_version) {
        txn_conflicts_.fetch_add(1, std::memory_order_relaxed);
        return Status::Conflict(
            "write-write conflict on table '" + write.table +
            "': committed by another transaction after this one began "
            "(pinned data version " + std::to_string(write.base_version) +
            ", live " + std::to_string(live) + ")");
      }
    }
    // Fault site: a trip here models losing the commit after validation
    // won but before publication — still atomic, still nothing published.
    GovernorFaultPoint("txn.publish");
  } catch (const QueryAbort& e) {
    return e.status();
  }
  Status status = PublishLocked(TablesOf(writes), [&](Catalog& catalog) {
    for (const WriteSetEntry& write : writes) catalog.Put(write.table, write.rows);
  });
  if (status.ok()) txn_committed_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

TransactionStats Database::transaction_stats() const {
  TransactionStats stats;
  stats.begun = txn_begun_.load(std::memory_order_relaxed);
  stats.committed = txn_committed_.load(std::memory_order_relaxed);
  stats.conflicts = txn_conflicts_.load(std::memory_order_relaxed);
  stats.rolled_back = txn_rolled_back_.load(std::memory_order_relaxed);
  return stats;
}

void Database::NoteCompile(const CompileInfo& info) {
  std::lock_guard<std::mutex> lock(optimizer_mutex_);
  for (const RewriteStep& step : info.rewrites) ++optimizer_stats_.law_fires[step.rule];
  ++optimizer_stats_.searched_compiles;
  if (info.rewrite_budget_exhausted) ++optimizer_stats_.budget_exhausted;
}

void Database::NoteFallbackExecution(const std::string& reason) {
  std::lock_guard<std::mutex> lock(optimizer_mutex_);
  ++optimizer_stats_.fallback_reasons[reason.empty() ? "(unspecified)" : reason];
}

OptimizerStats Database::optimizer_stats() const {
  std::lock_guard<std::mutex> lock(optimizer_mutex_);
  return optimizer_stats_;
}

DatabaseStats Database::Stats() const {
  DatabaseStats stats;
  stats.snapshot_version = version();
  stats.plan_cache = plan_cache_stats();
  stats.admission = admission_stats();
  stats.recycler = recycler_stats();
  stats.transactions = transaction_stats();
  stats.optimizer = optimizer_stats();
  return stats;
}

Status Database::CreateTable(const std::string& name, Relation rows) {
  return Ddl({name}, [&](Catalog& catalog) { catalog.Put(name, std::move(rows)); });
}

Status Database::CreateTable(const std::string& name, const std::string& schema_spec) {
  try {
    return CreateTable(name, Relation(Schema::Parse(schema_spec)));
  } catch (const std::exception& e) {
    return Status::Error(e.what());
  }
}

Status Database::InsertRows(const std::string& name, const std::vector<Tuple>& rows) {
  return Ddl({name}, [&](Catalog& catalog) {
    if (!catalog.Has(name)) {
      throw SchemaError("unknown table '" + name + "' (CreateTable first)");
    }
    Relation updated = catalog.Get(name);  // copy of this one table only
    for (const Tuple& tuple : rows) updated.Insert(tuple);
    catalog.Put(name, std::move(updated));
  });
}

Status Database::LoadCsv(const std::string& name, const std::string& csv_text) {
  Result<Relation> parsed = RelationFromCsv(csv_text);
  if (!parsed.ok()) return parsed.status();
  return CreateTable(name, std::move(parsed).value());
}

Status Database::LoadCsvFile(const std::string& name, const std::string& path) {
  Result<Relation> parsed = ReadCsvFile(path);
  if (!parsed.ok()) return parsed.status();
  return CreateTable(name, std::move(parsed).value());
}

Status Database::DeclareKey(const std::string& table, const std::vector<std::string>& attrs) {
  return Ddl({table}, [&](Catalog& catalog) { catalog.DeclareKey(table, attrs); });
}

Status Database::DeclareForeignKey(const std::string& from_table,
                                   const std::vector<std::string>& attrs,
                                   const std::string& to_table) {
  return Ddl({from_table, to_table}, [&](Catalog& catalog) {
    catalog.DeclareForeignKey(from_table, attrs, to_table);
  });
}

Status Database::DeclareDisjoint(const std::string& table1, const std::string& table2,
                                 const std::vector<std::string>& attrs) {
  return Ddl({table1, table2}, [&](Catalog& catalog) {
    catalog.DeclareDisjoint(table1, table2, attrs);
  });
}

bool Database::SlotIsStale(const CacheSlot& slot) const {
  std::lock_guard<std::mutex> lock(versions_mutex_);
  for (const std::string& table : slot.tables) {
    auto it = table_versions_.find(table);
    if (it != table_versions_.end() && it->second > slot.version) return true;
  }
  return false;
}

std::unique_lock<std::mutex> Database::LockShard(CacheShard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    cache_contended_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

std::shared_ptr<const CompiledStatement> Database::CacheLookup(const std::string& key,
                                                               uint64_t pinned_version) {
  CacheShard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock = LockShard(shard);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  if (SlotIsStale(*it->second)) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.stats.invalidated;
    ++shard.stats.misses;
    cache_entries_.fetch_sub(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (it->second->version > pinned_version) {
    // Compiled against a snapshot this statement has not pinned yet (a
    // racing DDL + recompile published it between our Pin and this
    // lookup). The entry is valid for everyone at the newer version, so
    // keep it; this statement compiles privately against its own snapshot.
    ++shard.stats.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  shard.lru.front().stamp = cache_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  ++shard.stats.hits;
  return shard.lru.front().compiled;
}

void Database::CacheInsert(const std::string& key,
                           std::shared_ptr<const CompiledStatement> compiled,
                           uint64_t version, std::vector<std::string> tables) {
  CacheShard& shard = ShardFor(key);
  bool inserted = false;
  {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    ++shard.stats.compiles;
    if (options_.plan_cache_capacity == 0) return;
    CacheSlot slot{key, std::move(compiled), version, std::move(tables),
                   cache_clock_.fetch_add(1, std::memory_order_relaxed) + 1};
    // A DDL that raced this compile already bumped its tables' versions;
    // don't publish an entry that is stale on arrival.
    if (SlotIsStale(slot)) return;
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // A racing session compiled the same statement; keep the fresher
      // entry.
      if (it->second->version >= version) return;
      shard.lru.erase(it->second);
      shard.index.erase(it);
      cache_entries_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.lru.push_front(std::move(slot));
    shard.index[key] = shard.lru.begin();
    cache_entries_.fetch_add(1, std::memory_order_relaxed);
    inserted = true;
  }
  // Enforce the GLOBAL capacity outside the shard lock: the victim may
  // live in any shard, and eviction locks shards one at a time.
  if (inserted) EnforceCacheCapacity();
}

void Database::EnforceCacheCapacity() {
  const size_t capacity = options_.plan_cache_capacity;
  while (cache_entries_.load(std::memory_order_relaxed) > capacity) {
    // Pass 1: find the globally oldest stamp. Each shard's list is in
    // recency order, so its back is that shard's candidate.
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    size_t victim = kCacheShards;
    for (size_t i = 0; i < kCacheShards; ++i) {
      std::lock_guard<std::mutex> lock(cache_shards_[i].mutex);
      if (!cache_shards_[i].lru.empty() && cache_shards_[i].lru.back().stamp < oldest) {
        oldest = cache_shards_[i].lru.back().stamp;
        victim = i;
      }
    }
    if (victim == kCacheShards) return;  // raced to empty
    // Pass 2: re-lock the victim shard and evict its back if it is still
    // the slot we found (a racing hit may have promoted it — then retry).
    CacheShard& shard = cache_shards_[victim];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.lru.empty() || shard.lru.back().stamp != oldest) continue;
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    cache_entries_.fetch_sub(1, std::memory_order_relaxed);
  }
}

size_t Database::plan_cache_size() const {
  return cache_entries_.load(std::memory_order_relaxed);
}

PlanCacheStats Database::plan_cache_stats() const {
  PlanCacheStats stats;
  for (CacheShard& shard : cache_shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    stats.hits += shard.stats.hits;
    stats.misses += shard.stats.misses;
    stats.compiles += shard.stats.compiles;
    stats.invalidated += shard.stats.invalidated;
  }
  stats.entries = cache_entries_.load(std::memory_order_relaxed);
  stats.shards = kCacheShards;
  stats.contended = cache_contended_.load(std::memory_order_relaxed);
  return stats;
}

void Database::ClearPlanCache() {
  for (CacheShard& shard : cache_shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    cache_entries_.fetch_sub(shard.lru.size(), std::memory_order_relaxed);
    shard.lru.clear();
    shard.index.clear();
  }
}

RecyclerStats Database::recycler_stats() const {
  if (!recycler_) return RecyclerStats{};
  return recycler_->stats();
}

void Database::ClearRecycler() {
  if (recycler_) recycler_->Clear();
}

Status Database::AdmitQuery(size_t bytes, QueryContext* ctx) {
  const size_t total = options_.admission_memory_bytes;
  if (total == 0 || bytes == 0) return Status::Ok();
  if (bytes > total) {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    ++admission_stats_.rejected;
    return Status::ResourceExhausted(
        "statement memory budget (" + std::to_string(bytes) +
        " bytes) exceeds the database admission budget (" + std::to_string(total) +
        " bytes)");
  }
  std::unique_lock<std::mutex> lock(admission_mutex_);
  // Fast path: fits and nobody queued ahead of us.
  if (admission_queue_.empty() && admission_in_use_ + bytes <= total) {
    admission_in_use_ += bytes;
    ++admission_stats_.admitted;
    admission_stats_.in_use_bytes = admission_in_use_;
    return Status::Ok();
  }
  if (admission_queue_.size() >= options_.admission_max_queue) {
    ++admission_stats_.rejected;
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(options_.admission_max_queue) +
        " statements waiting)");
  }
  const uint64_t ticket = admission_next_ticket_++;
  admission_queue_.insert(ticket);
  ++admission_stats_.queued;
  admission_stats_.waiting = admission_queue_.size();
  // Wait in ticket order, polling so a queued statement still honors its
  // governor: Cancel() and the deadline must reach a statement that has
  // not started executing yet. The erase-on-exit discipline (every path
  // below removes `ticket`) keeps an abandoned turn from wedging later
  // waiters.
  while (true) {
    const bool my_turn = *admission_queue_.begin() == ticket;
    if (my_turn && admission_in_use_ + bytes <= total) {
      admission_queue_.erase(ticket);
      admission_in_use_ += bytes;
      ++admission_stats_.admitted;
      admission_stats_.in_use_bytes = admission_in_use_;
      admission_stats_.waiting = admission_queue_.size();
      admission_cv_.notify_all();  // the next ticket may also fit
      return Status::Ok();
    }
    if (ctx != nullptr && ctx->Aborted()) {
      admission_queue_.erase(ticket);
      ++admission_stats_.timed_out;
      admission_stats_.waiting = admission_queue_.size();
      admission_cv_.notify_all();
      return ctx->TripStatus();
    }
    if (ctx != nullptr && ctx->has_deadline() &&
        std::chrono::steady_clock::now() >= ctx->deadline()) {
      admission_queue_.erase(ticket);
      ++admission_stats_.timed_out;
      admission_stats_.waiting = admission_queue_.size();
      admission_cv_.notify_all();
      return Status::ResourceExhausted("admission queued, timed out waiting for " +
                                       std::to_string(bytes) + " bytes");
    }
    // Bounded wait: cancellation has no hook into this condvar, so poll.
    admission_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
}

void Database::ReleaseAdmission(size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    admission_in_use_ -= std::min(bytes, admission_in_use_);
    admission_stats_.in_use_bytes = admission_in_use_;
  }
  admission_cv_.notify_all();
}

AdmissionStats Database::admission_stats() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return admission_stats_;
}

}  // namespace quotient
