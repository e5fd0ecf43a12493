// Law 2 claim (§5.1.1): under condition c2 the dividend can be partitioned
// on A and divided in parallel ("parallelize a query execution with degree
// 2 ... higher degrees by partitioning r1 into n > 2 partitions").
// Expected shape: wall-clock time drops toward 1/n with n worker threads,
// flattening at the host's core count (this container exposes 2 cores, so
// the ideal curve saturates at n = 2).

#include <thread>

#include "bench_common.hpp"
#include "exec/exec_divide.hpp"

namespace quotient {
namespace {

void BM_Law2Parallel(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  auto workload = bench::MakeDivisionWorkload(/*groups=*/8192, /*domain=*/64,
                                              /*divisor_size=*/24, /*density=*/0.4);
  // Range-partition the dividend on A: c2 holds by construction.
  std::vector<Relation> parts = SplitByAttributeRange(workload.dividend, "a", threads);

  for (auto _ : state) {
    std::vector<Relation> partial(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers.emplace_back([&, i] {
        partial[i] = ExecDivide(parts[i], workload.divisor);
      });
    }
    for (std::thread& w : workers) w.join();
    // Law 2: the union of the partial quotients is the answer.
    size_t total = 0;
    for (const Relation& r : partial) total += r.size();
    benchmark::DoNotOptimize(total);
  }
  state.counters["threads"] = static_cast<double>(threads);
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  benchmark::RegisterBenchmark("Law2/parallel_divide", BM_Law2Parallel)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
