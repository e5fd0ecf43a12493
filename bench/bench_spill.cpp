// Spill-to-disk and admission-control microbenchmarks (docs/robustness.md):
//
//   * SPILL OVERHEAD — the same HashDivision/1024/16 workload as
//     bench_cancellation, once fully in memory and once with a tiny spill
//     watermark so every id-column store runs through the temp file. The
//     gap is the cost of graceful degradation: what a statement pays to
//     keep answering instead of tripping kResourceExhausted.
//
//   * ADMISSION LATENCY — time for a statement to clear the admission
//     controller when the budget is free (the uncontended fast path every
//     governed statement now pays) and when it must wait for a running
//     statement's grant to release.

#include <chrono>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "api/database.hpp"
#include "api/session.hpp"
#include "exec/exec_divide.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"

namespace quotient {
namespace {

using bench::MakeDivisionWorkload;

void BM_HashDivision(benchmark::State& state, size_t spill_watermark) {
  size_t groups = static_cast<size_t>(state.range(0));
  size_t divisor_size = static_cast<size_t>(state.range(1));
  auto workload = MakeDivisionWorkload(groups, /*domain=*/64, divisor_size);
  size_t partitions = 0;
  for (auto _ : state) {
    QueryContext context;
    if (spill_watermark > 0) context.EnableSpill(spill_watermark, /*dir=*/"");
    ScopedQueryContext scope(&context);
    Relation q = ExecDivide(workload.dividend, workload.divisor,
                            workload.dividend_enc, workload.divisor_enc);
    benchmark::DoNotOptimize(q);
    partitions = context.spill_partitions();
  }
  state.counters["dividend"] = static_cast<double>(workload.dividend.size());
  state.counters["spill_partitions"] = static_cast<double>(partitions);
}

void BM_AdmissionUncontended(benchmark::State& state) {
  DatabaseOptions db_options;
  db_options.admission_memory_bytes = 64ull << 20;
  auto database = std::make_shared<Database>(db_options);
  if (!database->CreateTable("t", Relation::Parse("a", "1; 2; 3")).ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  SessionOptions options;
  options.memory_budget_bytes = 1 << 20;
  Session session(database, options);
  for (auto _ : state) {
    Result<QueryResult> result = session.Execute("SELECT a FROM t");
    benchmark::DoNotOptimize(result);
  }
  state.counters["admitted"] = static_cast<double>(database->admission_stats().admitted);
}

void BM_AdmissionQueuedHandoff(benchmark::State& state) {
  // Time from a grant releasing to a queued statement completing: one
  // statement holds the whole budget via an open cursor, another waits;
  // closing the cursor hands the budget over.
  DatabaseOptions db_options;
  db_options.admission_memory_bytes = 1 << 20;
  auto database = std::make_shared<Database>(db_options);
  if (!database->CreateTable("t", Relation::Parse("a", "1; 2; 3")).ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  SessionOptions options;
  options.memory_budget_bytes = 1 << 20;
  for (auto _ : state) {
    Session holder(database, options);
    Result<ResultCursor> opened = holder.Query("SELECT a FROM t");
    if (!opened.ok()) {
      state.SkipWithError("holder failed to open");
      return;
    }
    ResultCursor cursor = std::move(opened).value();
    std::optional<Result<QueryResult>> queued_result;
    std::thread waiter([&] {
      Session queued(database, options);
      queued_result.emplace(queued.Execute("SELECT a FROM t"));
    });
    // Give the waiter time to join the admission queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto start = std::chrono::steady_clock::now();
    cursor.Close();
    waiter.join();
    auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    if (!queued_result->ok()) {
      state.SkipWithError("queued statement failed");
      return;
    }
  }
  state.counters["queued"] = static_cast<double>(database->admission_stats().queued);
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  benchmark::RegisterBenchmark("BM_HashDivision/in_memory",
                               [](benchmark::State& s) { BM_HashDivision(s, 0); })
      ->Args({1024, 16})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_HashDivision/spill_forced",
                               [](benchmark::State& s) { BM_HashDivision(s, 1); })
      ->Args({1024, 16})
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_AdmissionUncontended", BM_AdmissionUncontended)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_AdmissionQueuedHandoff", BM_AdmissionQueuedHandoff)
      ->UseManualTime()
      ->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
