// Section 2.2: set containment join vs. great divide solve the same
// problem on different layouts (NF² nested vs. 1NF vertical). This bench
// runs both on the same logical workload, stored vertically (§3's layout):
// the SCJ must first nest the input into NF² sets. Expected shape: both
// scale linearly in the number of sets here (the divisor side is small and
// the SCJ's signature filter kills most pairs); the great divide avoids the
// conversion, the SCJ's per-pair test is cheaper after it — the two trade
// places depending on how much of the cost the conversion is.

#include "bench_common.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_great_divide.hpp"

namespace quotient {
namespace {

void BM_GreatDivideVertical(benchmark::State& state) {
  auto workload = bench::MakeGreatDivideWorkload(
      /*groups=*/static_cast<size_t>(state.range(0)), /*domain=*/40,
      /*divisor_groups=*/24);
  for (auto _ : state) {
    Relation q = ExecGreatDivide(workload.dividend, workload.divisor);
    benchmark::DoNotOptimize(q);
  }
}

void BM_SetContainmentJoinNested(benchmark::State& state) {
  auto workload = bench::MakeGreatDivideWorkload(
      /*groups=*/static_cast<size_t>(state.range(0)), /*domain=*/40,
      /*divisor_groups=*/24);
  for (auto _ : state) {
    // The stored layout is the vertical one (§3); the SCJ pays the NF²
    // nesting conversion before it can join.
    Relation r1 = Nest(workload.dividend, "b", "s1");
    Relation r2 = Rename(Nest(workload.divisor, "b", "s2"), {{"c", "g"}});
    SetContainmentJoinIterator it(
        std::make_unique<RelationScan>(std::make_shared<const Relation>(r1)), "s1",
        std::make_unique<RelationScan>(std::make_shared<const Relation>(r2)), "s2");
    Relation q = ExecuteToRelation(it);
    benchmark::DoNotOptimize(q);
  }
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  benchmark::RegisterBenchmark("GreatDivide/vertical", BM_GreatDivideVertical)
      ->Arg(256)
      ->Arg(1024)
      ->Arg(4096)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("SetContainmentJoin/nested", BM_SetContainmentJoinNested)
      ->Arg(256)
      ->Arg(1024)
      ->Arg(4096)
      ->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
