#include "exec/recycler.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "exec/query_context.hpp"

namespace quotient {

namespace {

/// Per-query hit/miss accounting for EXPLAIN ANALYZE (no-op outside a
/// governed statement).
void NoteRecyclerOutcome(bool hit) {
  if (QueryContext* ctx = CurrentQueryContext()) ctx->RecordRecycler(hit);
}

/// splitmix64's finalizer: spreads the planner's FNV-1a shape hash over all
/// 64 bits, so the shard (high bits) and both probes (low bits of each
/// half) are independent.
uint64_t MixShape(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

void DivisionBuildArtifact::DetachBuildCharges() { GovernorRelease(keys.ChargedBytes()); }

void DivisionProbeArtifact::DetachBuildCharges() {
  GovernorRelease(a.ChargedBytes());
  row_a.DetachCharges();
  row_b.DetachCharges();
}

void GreatDivideBuildArtifact::DetachBuildCharges() {
  GovernorRelease(b.ChargedBytes() + c.ChargedBytes());
}

void GreatDivideProbeArtifact::DetachBuildCharges() {
  GovernorRelease(a.ChargedBytes());
  row_a.DetachCharges();
  row_b.DetachCharges();
  if (owned_build) owned_build->DetachBuildCharges();
}

void JoinBuildArtifact::DetachBuildCharges() {
  GovernorRelease(keys.ChargedBytes() + extra_charge);
}

void GroupingArtifact::DetachBuildCharges() { GovernorRelease(extra_charge); }

ArtifactRecycler::ArtifactRecycler(size_t memory_budget_bytes)
    : budget_(memory_budget_bytes) {}

bool ArtifactRecycler::Doorkeeper::Sight(uint64_t mixed_shape) {
  const size_t probes[2] = {mixed_shape % kDoorkeeperBits,
                            (mixed_shape >> 32) % kDoorkeeperBits};
  bool seen = true;
  for (size_t bit : probes) seen = seen && (words[bit / 64] >> (bit % 64) & 1);
  if (seen) return true;
  if (inserts == kDoorkeeperResetCount) {
    std::fill(words.begin(), words.end(), 0);
    inserts = 0;
  }
  for (size_t bit : probes) words[bit / 64] |= uint64_t{1} << (bit % 64);
  ++inserts;
  return false;
}

ArtifactPtr ArtifactRecycler::GetOrBuild(const std::string& key, uint64_t shape,
                                         const std::vector<std::string>& tables,
                                         const Builder& builder) {
  GovernorFaultPoint("recycler.lookup");
  // Every version of a shape lives in one shard, beside its sightings.
  const uint64_t mixed_shape = MixShape(shape);
  const size_t shard_index = (mixed_shape >> 61) % kShards;
  Shard& shard = shards_[shard_index];
  std::promise<ArtifactPtr> promise;
  std::shared_future<ArtifactPtr> future;
  bool is_builder = false;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      if (entry.on_probation) {  // first hit: promote
        entry.on_probation = false;
        probation_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
        shard.lru.splice(shard.lru.begin(), shard.probation, it->second);
      } else {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      NoteRecyclerOutcome(/*hit=*/true);
      return it->second->artifact;
    }
    auto in_flight = shard.building.find(key);
    if (in_flight != shard.building.end()) {
      future = in_flight->second;
    } else {
      future = promise.get_future().share();
      shard.building.emplace(key, future);
      is_builder = true;
      admitted = shard.doorkeeper.Sight(mixed_shape);
    }
  }

  if (!is_builder) {
    // Adopt the concurrent build, staying cancellable: the wait polls this
    // query's own governor, so Cancel/deadline trips land while another
    // session builds.
    while (future.wait_for(std::chrono::milliseconds(2)) !=
           std::future_status::ready) {
      GovernorPoll();
    }
    ArtifactPtr ready = future.get();  // builders publish nullptr on failure
    if (ready != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      NoteRecyclerOutcome(/*hit=*/true);
      return ready;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    NoteRecyclerOutcome(/*hit=*/false);
    return nullptr;  // caller builds privately
  }

  // Builder path. A build failure (governor trip, injected fault, executor
  // error) erases the in-flight entry and publishes nullptr, so waiters
  // fall back to private builds and the NEXT request retries a shared
  // build — the cache is never poisoned.
  std::shared_ptr<RecycledArtifact> built;
  try {
    built = builder();
    // Publication is itself a fault site: a trip here fails THIS query but
    // must leave the cache clean, exactly like a build failure.
    GovernorFaultPoint("recycler.publish");
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.building.erase(key);
    }
    promise.set_value(nullptr);
    throw;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  NoteRecyclerOutcome(/*hit=*/false);

  // A first sighting, a spilled build and an oversized build all stay
  // private to this query.
  const size_t bytes = admitted ? built->ApproxBytes() : 0;
  if (!admitted || built->SpilledToDisk() || budget_ == 0 || bytes > budget_) {
    (admitted ? rejected_ : deferred_).fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.building.erase(key);
    }
    promise.set_value(nullptr);
    // The builder still uses its own result; its charges stay the query's.
    return ArtifactPtr(std::move(built));
  }

  built->DetachBuildCharges();
  ArtifactPtr shared(std::move(built));
  {
    std::lock_guard<std::mutex> publishing(publish_mutex_);
    MakeRoom(shard_index, bytes);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.building.erase(key);
    shard.probation.push_front(Entry{key, shared, bytes, tables});
    shard.index[key] = shard.probation.begin();
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    probation_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  promise.set_value(shared);
  return shared;
}

void ArtifactRecycler::Drop(Shard& shard, EntryList& list, EntryList::iterator it) {
  bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
  if (it->on_probation) probation_bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
  shard.index.erase(it->key);
  list.erase(it);
}

void ArtifactRecycler::MakeRoom(size_t start_shard, size_t incoming) {
  const size_t probation_cap = budget_ / kProbationShare;
  auto over_budget = [&] { return bytes_.load(std::memory_order_relaxed) + incoming > budget_; };
  auto over_probation = [&] {
    return probation_bytes_.load(std::memory_order_relaxed) + incoming > probation_cap ||
           over_budget();
  };
  // Never-hit entries go first, and past their share even when the total
  // fits; hit entries go only when the total still does not fit.
  for (size_t i = 0; i < kShards && over_probation(); ++i) {
    Shard& shard = shards_[(start_shard + i) % kShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    while (over_probation() && !shard.probation.empty()) {
      Drop(shard, shard.probation, std::prev(shard.probation.end()));
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (size_t i = 0; i < kShards && over_budget(); ++i) {
    Shard& shard = shards_[(start_shard + i) % kShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    while (over_budget() && !shard.lru.empty()) {
      Drop(shard, shard.lru, std::prev(shard.lru.end()));
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ArtifactRecycler::InvalidateTables(const std::vector<std::string>& tables) {
  auto stale = [&](const Entry& entry) {
    for (const std::string& table : tables) {
      for (const std::string& ref : entry.tables) {
        if (ref == table) return true;
      }
    }
    return false;
  };
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (EntryList* list : {&shard.probation, &shard.lru}) {
      for (auto it = list->begin(); it != list->end();) {
        auto next = std::next(it);
        if (stale(*it)) {
          Drop(shard, *list, it);
          invalidated_.fetch_add(1, std::memory_order_relaxed);
        }
        it = next;
      }
    }
  }
}

void ArtifactRecycler::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (EntryList* list : {&shard.probation, &shard.lru}) {
      while (!list->empty()) Drop(shard, *list, list->begin());
    }
  }
}

RecyclerStats ArtifactRecycler::stats() const {
  RecyclerStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.published = published_.load(std::memory_order_relaxed);
  stats.deferred = deferred_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidated = invalidated_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.probation_bytes = probation_bytes_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.entries += shard.probation.size() + shard.lru.size();
  }
  return stats;
}

}  // namespace quotient
