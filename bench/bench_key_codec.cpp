// Encode cost vs. probe savings of the key codec, on int-keyed and
// string-keyed division workloads.
//
// "TupleKeyed" benchmarks measure the pre-codec discipline — hash tables
// keyed by materialized Tuples (a ProjectTuple allocation per probe plus
// variant-walking hash/equality). "Encoded" benchmarks measure the codec
// discipline: dictionary-encode once, then probe flat uint32/uint64 keys.
// EncodeOnly isolates the build cost the codec adds up front; DivisionE2E
// shows the end-to-end effect on the hash division itself.

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

/// Encode cost alone: dictionary-build + seal over the dividend's (a, b).
void BM_EncodeOnly(benchmark::State& state, bool string_b) {
  auto workload = MakeWorkload(static_cast<size_t>(state.range(0)), string_b);
  const std::vector<size_t> a_idx = {0};
  const std::vector<size_t> b_idx = {1};
  for (auto _ : state) {
    KeyCodec a_codec(1);
    KeyCodec b_codec(1);
    a_codec.Reserve(workload.dividend.size());
    b_codec.Reserve(workload.dividend.size());
    for (const Tuple& t : workload.dividend.tuples()) {
      a_codec.Add(t, a_idx);
      b_codec.Add(t, b_idx);
    }
    a_codec.Seal();
    b_codec.Seal();
    benchmark::DoNotOptimize(a_codec);
    benchmark::DoNotOptimize(b_codec);
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

/// The codec discipline for the same membership test: encode the divisor
/// once, then probe the dictionary per dividend row.
void BM_EncodedProbes(benchmark::State& state, bool string_b) {
  auto workload = MakeWorkload(static_cast<size_t>(state.range(0)), string_b);
  const std::vector<size_t> divisor_idx = {0};
  const std::vector<size_t> b_idx = {1};
  for (auto _ : state) {
    KeyCodec codec(1);
    codec.Reserve(workload.divisor.size());
    for (const Tuple& t : workload.divisor.tuples()) codec.Add(t, divisor_idx);
    codec.Seal();
    KeyNumbering numbering;
    numbering.Build(codec);
    size_t hits = 0;
    for (const Tuple& t : workload.dividend.tuples()) {
      hits += numbering.Probe(t, b_idx) != KeyNumbering::kNotFound;
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
