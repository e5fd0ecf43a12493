// Encode cost vs. probe savings of key encoding (IncrementalKeyEncoder), on
// int-keyed and string-keyed division workloads.
//
// "TupleKeyed" benchmarks measure the pre-encoding discipline — hash tables
// keyed by materialized Tuples (a ProjectTuple allocation per probe plus
// variant-walking hash/equality). "Encoded" benchmarks measure the encoder:
// number the build keys once, then probe flat uint32/uint64 keys.
// EncodeOnly isolates the numbering cost up front; DivisionE2E shows the
// end-to-end effect on the hash division itself.

#include <unordered_map>
#include <unordered_set>

#include "bench_common.hpp"
#include "exec/exec_divide.hpp"
#include "exec/key_codec.hpp"

namespace quotient {
namespace {

using bench::MakeDivisionWorkload;

/// An (int-B) division workload, optionally remapped to a string B domain.
bench::DivisionWorkload MakeWorkload(size_t groups, bool string_b) {
  auto workload = MakeDivisionWorkload(groups, /*domain=*/64, /*divisor_size=*/16);
  if (string_b) {
    workload.dividend = StringifyAttribute(workload.dividend, "b", "item_");
    workload.divisor = StringifyAttribute(workload.divisor, "b", "item_");
  }
  return workload;
}

/// Encode cost alone: numbering the dividend's a and b keys.
void BM_EncodeOnly(benchmark::State& state, bool string_b) {
  auto workload = MakeWorkload(static_cast<size_t>(state.range(0)), string_b);
  const std::vector<size_t> a_idx = {0};
  const std::vector<size_t> b_idx = {1};
  for (auto _ : state) {
    IncrementalKeyEncoder a_keys(1);
    IncrementalKeyEncoder b_keys(1);
    uint64_t ids = 0;
    for (const Tuple& t : workload.dividend.tuples()) {
      ids += a_keys.InternRow(t, a_idx);
      ids += b_keys.InternRow(t, b_idx);
    }
    benchmark::DoNotOptimize(ids);
    benchmark::DoNotOptimize(a_keys);
    benchmark::DoNotOptimize(b_keys);
  }
  state.counters["rows"] = static_cast<double>(workload.dividend.size());
}

/// The old discipline: build an unordered_set of projected key Tuples over
/// the divisor, then probe it with a projected Tuple per dividend row.
void BM_TupleKeyedProbes(benchmark::State& state, bool string_b) {
  auto workload = MakeWorkload(static_cast<size_t>(state.range(0)), string_b);
  const std::vector<size_t> b_idx = {1};
  for (auto _ : state) {
    std::unordered_set<Tuple, TupleHash, TupleEq> divisor_set;
    for (const Tuple& t : workload.divisor.tuples()) divisor_set.insert(t);
    size_t hits = 0;
    for (const Tuple& t : workload.dividend.tuples()) {
      hits += divisor_set.count(ProjectTuple(t, b_idx));
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["rows"] = static_cast<double>(workload.dividend.size());
}

/// The encoded discipline for the same membership test: number the divisor
/// keys once, then probe the dictionary per dividend row.
void BM_EncodedProbes(benchmark::State& state, bool string_b) {
  auto workload = MakeWorkload(static_cast<size_t>(state.range(0)), string_b);
  const std::vector<size_t> divisor_idx = {0};
  const std::vector<size_t> b_idx = {1};
  for (auto _ : state) {
    IncrementalKeyEncoder keys(1);
    for (const Tuple& t : workload.divisor.tuples()) keys.InternRow(t, divisor_idx);
    size_t hits = 0;
    for (const Tuple& t : workload.dividend.tuples()) {
      hits += keys.FindRow(t, b_idx) != IncrementalKeyEncoder::kNotFound;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["rows"] = static_cast<double>(workload.dividend.size());
}

/// End to end: the key-encoded hash division on the same workloads.
void BM_DivisionE2E(benchmark::State& state, bool string_b) {
  auto workload = MakeWorkload(static_cast<size_t>(state.range(0)), string_b);
  for (auto _ : state) {
    Relation q = ExecDivide(workload.dividend, workload.divisor);
    benchmark::DoNotOptimize(q);
  }
  state.counters["rows"] = static_cast<double>(workload.dividend.size());
}

void Register(const char* name, void (*fn)(benchmark::State&, bool), bool string_b) {
  benchmark::RegisterBenchmark(name, [fn, string_b](benchmark::State& state) {
    fn(state, string_b);
  })
      ->Arg(256)
      ->Arg(1024)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  Register("EncodeOnly/int", BM_EncodeOnly, false);
  Register("EncodeOnly/string", BM_EncodeOnly, true);
  Register("TupleKeyedProbes/int", BM_TupleKeyedProbes, false);
  Register("TupleKeyedProbes/string", BM_TupleKeyedProbes, true);
  Register("EncodedProbes/int", BM_EncodedProbes, false);
  Register("EncodedProbes/string", BM_EncodedProbes, true);
  Register("DivisionE2E/int", BM_DivisionE2E, false);
  Register("DivisionE2E/string", BM_DivisionE2E, true);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
