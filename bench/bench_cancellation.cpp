// Query lifecycle governor microbenchmarks (docs/robustness.md):
//
//   * GOVERNOR OVERHEAD — the same HashDivision/1024/16 workload as
//     bench_division_algorithms, once ungoverned (the PR 5 baseline shape:
//     polls are one thread-local load finding no context) and once with a
//     QueryContext installed (polls check the trip word and deadline). The
//     acceptance bar is governed within 3% of ungoverned.
//
//   * CANCEL LATENCY — time from Session::Cancel() on one thread to the
//     in-flight statement unwinding on another: the promised "within one
//     morsel batch of poll latency".

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "api/session.hpp"
#include "exec/exec_divide.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"

namespace quotient {
namespace {

using bench::MakeDivisionWorkload;

void BM_HashDivision(benchmark::State& state, bool governed) {
  size_t groups = static_cast<size_t>(state.range(0));
  size_t divisor_size = static_cast<size_t>(state.range(1));
  auto workload = MakeDivisionWorkload(groups, /*domain=*/64, divisor_size);
  // An uncancelled governor with no deadline and no budget: every poll takes
  // the cheap path, every charge is one relaxed fetch_add.
  QueryContext context;
  for (auto _ : state) {
    std::optional<ScopedQueryContext> scope;
    if (governed) scope.emplace(&context);
    Relation q = ExecDivide(workload.dividend, workload.divisor,
                            workload.dividend_enc, workload.divisor_enc);
    benchmark::DoNotOptimize(q);
  }
  state.counters["dividend"] = static_cast<double>(workload.dividend.size());
}

void BM_CancelLatency(benchmark::State& state) {
  // A statement long enough that Cancel() always lands mid-flight; small
  // morsels so poll granularity, not work size, bounds the unwind.
  DataGen gen(42);
  Relation divisor = gen.Divisor(48, /*domain=*/64);
  Relation dividend = gen.DividendWithHits(20000, 2001, divisor, /*domain=*/64,
                                           /*density=*/0.5);
  Session session;
  if (!session.CreateTable("r1", std::move(dividend)).ok() ||
      !session.CreateTable("r2", std::move(divisor)).ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  const std::string sql = "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";

  size_t cancelled = 0;
  size_t completed = 0;
  for (auto _ : state) {
    std::optional<Result<QueryResult>> result;
    std::atomic<bool> running{false};
    std::thread runner([&] {
      running.store(true, std::memory_order_release);
      result.emplace(session.Execute(sql));
    });
    while (!running.load(std::memory_order_acquire)) std::this_thread::yield();
    // Let the drain get into its morsel loop before pulling the trigger.
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    auto start = std::chrono::steady_clock::now();
    session.Cancel();
    runner.join();
    auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    if (!result->ok() && result->status().code() == StatusCode::kCancelled) {
      ++cancelled;
    } else {
      ++completed;  // statement finished before the cancel landed
    }
  }
  state.counters["cancelled"] = static_cast<double>(cancelled);
  state.counters["completed_before_cancel"] = static_cast<double>(completed);
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  benchmark::RegisterBenchmark("BM_HashDivision/ungoverned",
                               [](benchmark::State& s) { BM_HashDivision(s, false); })
      ->Args({1024, 16})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_HashDivision/governed",
                               [](benchmark::State& s) { BM_HashDivision(s, true); })
      ->Args({1024, 16})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_CancelLatency", BM_CancelLatency)
      ->UseManualTime()
      ->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
