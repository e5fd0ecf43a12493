#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "algebra/relation.hpp"
#include "exec/batch.hpp"

namespace quotient {

/// A named collection of base relations plus the integrity metadata the
/// rewrite rules consult for their data-dependent preconditions:
///
///  * keys            — Laws 11/12 need "each group has one tuple";
///  * foreign keys    — Law 12 needs r2.B ⊆ πB(r1), Example 3 needs
///                      πb2(r2) ⊆ r1**;
///  * disjointness    — Laws 2 (condition c2), 7, and 13 need disjoint
///                      projections of two inputs.
///
/// Metadata can be declared (trusted, as an RDBMS trusts its constraints) or
/// verified against the stored data with the Check* functions.
///
/// Thread-safety: a catalog is shared-immutable during query execution —
/// any number of threads may call the const read interface (Get, Encoding,
/// the metadata queries) concurrently, including the pipeline executor's
/// morsel workers. Put() and the Declare* mutators require external
/// exclusivity (no concurrent readers), like DDL against a live table.
///
/// Relations are stored behind shared_ptr, so copying a catalog is O(#
/// tables) regardless of data size and copies SHARE table storage and
/// cached encodings with the original — this is what makes the Database's
/// copy-on-write snapshot publication (api/database.hpp) cheap. A copy
/// followed by Put() replaces one entry without disturbing readers of the
/// original.
class Catalog {
 public:
  Catalog() = default;
  // The encoding cache's mutex is not copyable/movable; copies carry the
  // cached encodings over (they are immutable and describe identical data).
  Catalog(const Catalog& other);
  Catalog& operator=(const Catalog& other);
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(Catalog&& other) noexcept;

  /// Registers (or replaces) a base relation.
  void Put(const std::string& name, Relation relation);
  /// Same, adopting shared ownership instead of copying — the transaction
  /// overlay and commit publication (api/txn.hpp) hand the same immutable
  /// rows to several catalogs without duplicating storage.
  void Put(const std::string& name, std::shared_ptr<const Relation> relation);

  /// Monotonic per-table data version: bumped by every Put() of the table.
  /// Copies carry versions over, and the Database serializes DDL, so within
  /// one Database lineage two catalogs agree on a table's version iff they
  /// hold the same data for it. Zero for unknown tables. This is what keys
  /// recycled build artifacts (exec/recycler.hpp) to table contents.
  uint64_t DataVersion(const std::string& name) const;

  bool Has(const std::string& name) const;
  /// Throws SchemaError if absent.
  const Relation& Get(const std::string& name) const;
  /// Owning handle to the stored relation: scans hold this so open cursors
  /// keep their storage alive even after DDL publishes a newer snapshot.
  std::shared_ptr<const Relation> GetShared(const std::string& name) const;
  std::vector<std::string> Names() const;

  /// The table's column-dictionary encoding (see exec/batch.hpp), built on
  /// first request and cached until Put() replaces the relation. Scans over
  /// catalog tables share it, so repeated queries — and the Law 13
  /// partitioned great divide — stop rebuilding dictionaries on every
  /// Open(). Thread-safe: concurrent requests for the same table share one
  /// build (the first caller constructs, the rest wait on its future) and
  /// requests for different tables build concurrently — the cache mutex is
  /// never held across dictionary construction. The returned encoding is
  /// immutable and outlives later invalidation (callers hold a shared_ptr).
  TableEncodingPtr Encoding(const std::string& name) const;

  /// Non-blocking peek at the encoding cache: the cached encoding when a
  /// finished build is present, nullptr otherwise. Never triggers (or waits
  /// on) a build, so callers off the execution path — the optimizer's
  /// statistics harvest (opt/stats.hpp) — can reuse dictionaries without
  /// consuming governed build work that belongs to query execution.
  TableEncodingPtr EncodingIfCached(const std::string& name) const;

  /// Declares `attrs` a key of `table`.
  void DeclareKey(const std::string& table, const std::vector<std::string>& attrs);
  /// The keys declared for `table`, each as attribute names.
  std::vector<std::vector<std::string>> DeclaredKeys(const std::string& table) const;
  /// True iff a declared key of `table` is a subset of `attrs`.
  bool ImpliesKey(const std::string& table, const std::vector<std::string>& attrs) const;

  /// Declares a foreign key: π_attrs(from_table) ⊆ π_attrs(to_table).
  void DeclareForeignKey(const std::string& from_table, const std::vector<std::string>& attrs,
                         const std::string& to_table);
  bool HasForeignKey(const std::string& from_table, const std::vector<std::string>& attrs,
                     const std::string& to_table) const;

  /// Declares π_attrs(table1) ∩ π_attrs(table2) = ∅.
  void DeclareDisjoint(const std::string& table1, const std::string& table2,
                       const std::vector<std::string>& attrs);
  bool AreDisjoint(const std::string& table1, const std::string& table2,
                   const std::vector<std::string>& attrs) const;

  /// Verifies a declared-style key property against the data.
  static bool CheckKey(const Relation& r, const std::vector<std::string>& attrs);
  /// Verifies π_attrs(from) ⊆ π_attrs(to) against the data.
  static bool CheckForeignKey(const Relation& from, const Relation& to,
                              const std::vector<std::string>& attrs);
  /// Verifies π_attrs(r1) ∩ π_attrs(r2) = ∅ against the data.
  static bool CheckDisjoint(const Relation& r1, const Relation& r2,
                            const std::vector<std::string>& attrs);

 private:
  static std::string KeyOf(const std::string& table, const std::vector<std::string>& attrs);

  std::map<std::string, std::shared_ptr<const Relation>> relations_;
  std::map<std::string, uint64_t> data_versions_;  // Put() count per table
  std::set<std::string> keys_;          // "table|a,b"
  std::set<std::string> foreign_keys_;  // "from|a,b|to"
  std::set<std::string> disjoint_;      // "t1|t2|a,b" (stored both ways)
  // Lazily built per-table dictionary encodings (ROADMAP item 2). Each
  // entry is a shared future so concurrent first requests for one table
  // never race on (or duplicate) dictionary construction; the build itself
  // runs outside encodings_mutex_.
  mutable std::mutex encodings_mutex_;
  mutable std::map<std::string, std::shared_future<TableEncodingPtr>> encodings_;
};

}  // namespace quotient
