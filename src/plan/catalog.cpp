#include "plan/catalog.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "algebra/ops.hpp"
#include "exec/query_context.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace quotient {

namespace {

std::vector<std::string> Sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

Catalog::Catalog(const Catalog& other) { *this = other; }

Catalog& Catalog::operator=(const Catalog& other) {
  if (this == &other) return *this;
  relations_ = other.relations_;
  data_versions_ = other.data_versions_;
  keys_ = other.keys_;
  foreign_keys_ = other.foreign_keys_;
  disjoint_ = other.disjoint_;
  std::scoped_lock lock(encodings_mutex_, other.encodings_mutex_);
  encodings_ = other.encodings_;
  return *this;
}

Catalog::Catalog(Catalog&& other) noexcept { *this = std::move(other); }

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  if (this == &other) return *this;
  relations_ = std::move(other.relations_);
  data_versions_ = std::move(other.data_versions_);
  keys_ = std::move(other.keys_);
  foreign_keys_ = std::move(other.foreign_keys_);
  disjoint_ = std::move(other.disjoint_);
  std::scoped_lock lock(encodings_mutex_, other.encodings_mutex_);
  encodings_ = std::move(other.encodings_);
  return *this;
}

void Catalog::Put(const std::string& name, Relation relation) {
  Put(name, std::make_shared<const Relation>(std::move(relation)));
}

void Catalog::Put(const std::string& name, std::shared_ptr<const Relation> relation) {
  relations_.insert_or_assign(name, std::move(relation));
  ++data_versions_[name];
  std::lock_guard<std::mutex> lock(encodings_mutex_);
  encodings_.erase(name);  // replaced data invalidates the cached encoding
}

uint64_t Catalog::DataVersion(const std::string& name) const {
  auto it = data_versions_.find(name);
  return it != data_versions_.end() ? it->second : 0;
}

bool Catalog::Has(const std::string& name) const { return relations_.count(name) > 0; }

const Relation& Catalog::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) throw SchemaError("unknown relation '" + name + "'");
  return *it->second;
}

std::shared_ptr<const Relation> Catalog::GetShared(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) throw SchemaError("unknown relation '" + name + "'");
  return it->second;
}

TableEncodingPtr Catalog::Encoding(const std::string& name) const {
  const Relation& relation = Get(name);
  std::promise<TableEncodingPtr> promise;
  std::shared_future<TableEncodingPtr> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(encodings_mutex_);
    auto it = encodings_.find(name);
    if (it == encodings_.end()) {
      it = encodings_.emplace(name, promise.get_future().share()).first;
      builder = true;
    }
    future = it->second;
  }
  if (builder) {
    // Build outside the mutex: concurrent queries over other tables are
    // not serialized, and threads racing on this table block on the future
    // below instead of duplicating the dictionary construction.
    try {
      // Governed only BEFORE the build starts: the future is shared with
      // other queries, so one query's cancellation must not poison it
      // mid-build (an injected fault here fails every sharer — acceptable,
      // since the cache entry is dropped and the next request retries).
      GovernorPoll();
      GovernorFaultPoint("catalog.encoding");
      GovernorCharge(relation.size() * relation.schema().size() * 8);
      promise.set_value(TableEncoding::Build(relation));
    } catch (...) {
      // Don't poison the cache with a failed build: drop the entry so the
      // next request retries, then deliver the error to current waiters.
      {
        std::lock_guard<std::mutex> lock(encodings_mutex_);
        encodings_.erase(name);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

TableEncodingPtr Catalog::EncodingIfCached(const std::string& name) const {
  std::lock_guard<std::mutex> lock(encodings_mutex_);
  auto it = encodings_.find(name);
  if (it == encodings_.end()) return nullptr;
  if (it->second.wait_for(std::chrono::seconds(0)) != std::future_status::ready) return nullptr;
  // A failed build parks an exception in the future; treat it as absent.
  try {
    return it->second.get();
  } catch (...) {
    return nullptr;
  }
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, r] : relations_) names.push_back(name);
  return names;
}

std::string Catalog::KeyOf(const std::string& table, const std::vector<std::string>& attrs) {
  return table + "|" + Join(Sorted(attrs), ",");
}

void Catalog::DeclareKey(const std::string& table, const std::vector<std::string>& attrs) {
  keys_.insert(KeyOf(table, attrs));
}

std::vector<std::vector<std::string>> Catalog::DeclaredKeys(const std::string& table) const {
  std::vector<std::vector<std::string>> declared;
  std::string prefix = table + "|";
  for (const std::string& entry : keys_) {
    if (entry.compare(0, prefix.size(), prefix) != 0) continue;
    declared.push_back(SplitTrim(entry.substr(prefix.size()), ','));
  }
  return declared;
}

bool Catalog::ImpliesKey(const std::string& table,
                         const std::vector<std::string>& attrs) const {
  // A declared key K makes any superset of K a key as well; checking all
  // subsets would be exponential, so check every declared key of `table`.
  for (const std::vector<std::string>& key : DeclaredKeys(table)) {
    if (std::all_of(key.begin(), key.end(), [&](const std::string& k) {
          return std::find(attrs.begin(), attrs.end(), k) != attrs.end();
        })) {
      return true;
    }
  }
  return false;
}

void Catalog::DeclareForeignKey(const std::string& from_table,
                                const std::vector<std::string>& attrs,
                                const std::string& to_table) {
  foreign_keys_.insert(KeyOf(from_table, attrs) + "|" + to_table);
}

bool Catalog::HasForeignKey(const std::string& from_table,
                            const std::vector<std::string>& attrs,
                            const std::string& to_table) const {
  return foreign_keys_.count(KeyOf(from_table, attrs) + "|" + to_table) > 0;
}

void Catalog::DeclareDisjoint(const std::string& table1, const std::string& table2,
                              const std::vector<std::string>& attrs) {
  disjoint_.insert(KeyOf(table1, attrs) + "|" + table2);
  disjoint_.insert(KeyOf(table2, attrs) + "|" + table1);
}

bool Catalog::AreDisjoint(const std::string& table1, const std::string& table2,
                          const std::vector<std::string>& attrs) const {
  return disjoint_.count(KeyOf(table1, attrs) + "|" + table2) > 0;
}

bool Catalog::CheckKey(const Relation& r, const std::vector<std::string>& attrs) {
  Relation projected = Project(r, attrs);
  return projected.size() == r.size();
}

bool Catalog::CheckForeignKey(const Relation& from, const Relation& to,
                              const std::vector<std::string>& attrs) {
  return Project(from, attrs).SubsetOf(Project(to, attrs));
}

bool Catalog::CheckDisjoint(const Relation& r1, const Relation& r2,
                            const std::vector<std::string>& attrs) {
  return Intersect(Project(r1, attrs), Project(r2, attrs)).empty();
}

}  // namespace quotient
