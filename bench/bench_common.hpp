#pragma once

// Shared workload builders for the benchmark suite. Every bench binary
// regenerates one figure/claim of the paper (see DESIGN.md §3); workloads
// are deterministic (fixed seeds) so runs are comparable.

#include <benchmark/benchmark.h>

#include "algebra/generator.hpp"
#include "exec/batch.hpp"
#include "plan/catalog.hpp"

namespace quotient {
namespace bench {

/// A dividend r1(a, b) with `groups` quotient candidates over a B-domain of
/// `domain` values at the given density, plus a divisor r2(b) of size
/// `divisor_size` drawn from the same domain. A fixed fraction of groups is
/// forced to contain the whole divisor so quotients are nonempty.
///
/// The table encodings model the catalog's per-base-table dictionary cache:
/// they are built once per workload (outside the timed loop), exactly like
/// a production query hitting already-encoded base tables.
struct DivisionWorkload {
  Relation dividend;
  Relation divisor;
  TableEncodingPtr dividend_enc;
  TableEncodingPtr divisor_enc;
};

inline DivisionWorkload MakeDivisionWorkload(size_t groups, int64_t domain,
                                             size_t divisor_size, double density = 0.3,
                                             uint64_t seed = 42) {
  DataGen gen(seed);
  Relation divisor = gen.Divisor(divisor_size, domain);
  Relation dividend = gen.DividendWithHits(groups, groups / 10 + 1, divisor, domain, density);
  TableEncodingPtr dividend_enc = TableEncoding::Build(dividend);
  TableEncodingPtr divisor_enc = TableEncoding::Build(divisor);
  return {std::move(dividend), std::move(divisor), std::move(dividend_enc),
          std::move(divisor_enc)};
}

/// A great-divide workload: dividend r1(a, b) plus divisor r2(b, c) with
/// `divisor_groups` C-groups.
struct GreatDivideWorkload {
  Relation dividend;
  Relation divisor;
};

inline GreatDivideWorkload MakeGreatDivideWorkload(size_t groups, int64_t domain,
                                                   size_t divisor_groups,
                                                   double dividend_density = 0.4,
                                                   double divisor_density = 0.2,
                                                   uint64_t seed = 7) {
  DataGen gen(seed);
  Relation dividend = gen.Dividend(groups, domain, dividend_density);
  Relation divisor = gen.GreatDivisor(divisor_groups, domain, divisor_density);
  return {std::move(dividend), std::move(divisor)};
}

}  // namespace bench
}  // namespace quotient
