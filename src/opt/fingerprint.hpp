#pragma once

// Injective type-tagged fingerprints of logical plan fragments.
//
// A fingerprint is a type-tagged serialization of a logical subtree. It is
// INJECTIVE over fingerprintable fragments: two fragments share a
// fingerprint only if they are structurally identical. ToString()
// renderings are NOT injective (Int(1) and Str("1") both print "1"), so
// literals carry a type tag and strings a length prefix. Fragments
// containing VALUES leaves or unbound '?' slots are not fingerprintable —
// their content is invisible to the key.
//
// Two consumers share this machinery:
//   * the artifact recycler (exec/recycler.hpp) keys cross-query build
//     state on VersionedFingerprint (fingerprint + per-table data
//     versions), making stale artifacts unaddressable after DDL, and
//     admits a fragment on the second sighting of its version-free shape
//     (FingerprintHash of the plain fingerprint);
//   * the rewrite memo (opt/memo.hpp) deduplicates logical subtrees the
//     cost-guided search reaches through different law orders.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "plan/catalog.hpp"
#include "plan/logical.hpp"

namespace quotient {

/// Appends an injective serialization of `v` to `*out`.
void FingerprintValue(const Value& v, std::string* out);

/// Appends an injective serialization of `e`. Returns false when the
/// expression contains a '?' parameter slot (content invisible to the key).
bool FingerprintExpr(const ExprPtr& e, std::string* out);

/// Appends a length-prefixed serialization of a name list.
void FingerprintNames(const std::vector<std::string>& names, std::string* out);

/// Appends an injective serialization of the logical subtree. Returns false
/// when the subtree contains a VALUES leaf or a '?' slot.
bool FingerprintPlan(const PlanPtr& plan, std::string* out);

/// Fingerprints `plan` and appends the per-table data version of every base
/// table it scans (from the pinned snapshot catalog), making stale artifacts
/// unaddressable after DDL. Returns "" when the subtree is not
/// fingerprintable; otherwise also merges the scanned tables into `tables`
/// (the cache entry's invalidation domain) and sets `*shape` to the plain,
/// version-free fingerprint.
std::string VersionedFingerprint(const PlanPtr& plan, const Catalog& catalog,
                                 std::vector<std::string>* tables, std::string* shape);

/// 64-bit FNV-1a hash of `text`: the recycler's fragment shape hash.
uint64_t FingerprintHash(std::string_view text);

}  // namespace quotient
