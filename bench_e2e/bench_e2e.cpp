// End-to-end benchmark program: runs one workload in this process and prints
// one JSON object with the run's end-to-end metrics (and, for a traced run,
// its per-layer metrics) as the last line of standard output.
//
//   bench_e2e --workload W --seed S --duration SECONDS [--trace OUT.json]
//             [--scale full|smoke] [--perturb-verify]
//
// Workloads (e2e/workloads.hpp): divide_olap, compile_storm, fleet_cached,
// txn_churn. The engine runs in its default configuration; an environment
// override of it makes the program refuse to run. bench_e2e.py in this
// directory builds the program and is the command to run; README.md
// describes the workloads and every metric.
//
// Exit status: 0 when every output verified, 1 when a check failed, 2 on a
// usage or configuration error (no result line is printed then).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/rules.hpp"
#include "e2e/common.hpp"
#include "e2e/runner.hpp"
#include "e2e/trace.hpp"
#include "e2e/workloads.hpp"
#include "exec/scheduler.hpp"

namespace e2e {
namespace {

constexpr int kSetups = 5;  // set-up repetitions; setup_s is their median

const char* const kEngineOverrides[] = {"QUOTIENT_EXEC_MODE", "QUOTIENT_THREADS",
                                        "QUOTIENT_RECYCLER", "QUOTIENT_SPILL_WATERMARK",
                                        "QUOTIENT_FAULT"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double duration_s = 15;
  std::string trace_path;  // empty: untraced run
  Scale scale = Scale::kFull;
  bool perturb = false;
};

int Usage(const std::string& problem) {
  std::cerr << "bench_e2e: " << problem << "\n"
            << "usage: bench_e2e --workload W --seed S --duration SECONDS [--trace OUT.json]"
               " [--scale full|smoke] [--perturb-verify]\n";
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options, std::string* problem) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--perturb-verify") {
      options->perturb = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) {
      *problem = arg + " needs a value";
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = v;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(v, &end, 10);
    } else if (arg == "--duration") {
      options->duration_s = std::strtod(v, &end);
      if (!(options->duration_s > 0 && options->duration_s <= 600)) {
        *problem = "--duration must be in (0, 600]";
        return false;
      }
    } else if (arg == "--trace") {
      options->trace_path = v;
    } else if (arg == "--scale") {
      std::string scale = v;
      if (scale != "full" && scale != "smoke") {
        *problem = "--scale must be full or smoke";
        return false;
      }
      options->scale = scale == "full" ? Scale::kFull : Scale::kSmoke;
    } else {
      *problem = "unknown argument " + arg;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *problem = "bad number for " + arg + ": " + v;
      return false;
    }
  }
  if (options->workload.empty()) {
    *problem = "--workload is required";
    return false;
  }
  return true;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// A latency quantile of each block of 1000 consecutive completions (the
/// last block takes the remainder), then the median over the blocks, so a
/// burst of interference from outside the process moves it less than a
/// quantile over the whole window. Every block has ten samples beyond its
/// 99th percentile.
double BlockQuantile(std::vector<Latency> samples, double q) {
  constexpr size_t kBlock = 1000;
  std::sort(samples.begin(), samples.end(),
            [](const Latency& a, const Latency& b) { return a.end_ns < b.end_ns; });
  std::vector<double> per_block;
  for (size_t begin = 0; begin < samples.size();) {
    size_t end = samples.size() - begin < 2 * kBlock ? samples.size() : begin + kBlock;
    std::vector<double> block;
    for (size_t i = begin; i < end; ++i) block.push_back(samples[i].ms);
    per_block.push_back(Quantile(std::move(block), q));
    begin = end;
  }
  return Quantile(per_block, 0.5);
}

/// Statements finished and CPU used in one slice of the timed window.
struct Slice {
  double seconds = 0;
  double statements = 0;
  double cpu_s = 0;
};

/// Samples the window in one-second slices until its deadline. Throughput
/// and CPU per statement are reported as medians over the slices, so a
/// burst of interference from outside the process moves them less than a
/// whole-window average.
std::vector<Slice> SampleSlices(int64_t start, double duration_s,
                                const std::atomic<uint64_t>& completed) {
  const size_t count = std::max<size_t>(1, static_cast<size_t>(duration_s));
  std::vector<Slice> slices;
  int64_t last_ns = start;
  uint64_t last_done = 0;
  double last_cpu = CpuSeconds();
  for (size_t k = 1; k <= count; ++k) {
    int64_t target = start + static_cast<int64_t>(duration_s * 1e9 * static_cast<double>(k) /
                                                  static_cast<double>(count));
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::max<int64_t>(0, target - NowNs())));
    int64_t now = NowNs();
    uint64_t done = completed.load(std::memory_order_relaxed);
    double cpu = CpuSeconds();
    slices.push_back({static_cast<double>(now - last_ns) / 1e9,
                      static_cast<double>(done - last_done), cpu - last_cpu});
    last_ns = now;
    last_done = done;
    last_cpu = cpu;
  }
  return slices;
}

/// Per-layer metrics of a traced run (README.md lists what each should
/// move). Spans come from the traced statements and their compile
/// replays; counters from their cursors and from Database::Stats() deltas.
std::vector<Metric> LayerMetrics(const std::vector<SpanLog>& logs,
                                 const std::vector<SessionStats>& sessions,
                                 const quotient::DatabaseStats& before,
                                 const quotient::DatabaseStats& after, double statements) {
  std::vector<Metric> out;
  auto spans = [&](const char* name, const char* metric, bool p99) {
    std::vector<double> us = SpanDurationsUs(logs, name);
    out.push_back({std::string(metric) + ".p50", Quantile(us, 0.5), "us"});
    if (p99) out.push_back({std::string(metric) + ".p99", Quantile(us, 0.99), "us"});
  };
  std::vector<const ReadRecord*> records;
  std::vector<const ReadRecord*> compiles;  // cache misses the engine compiled
  uint64_t misses = 0;
  uint64_t replayed = 0;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (const SessionStats& s : sessions) {
    for (const ReadRecord& r : s.records) {
      records.push_back(&r);
      if (!r.cache_hit) ++misses;
      if (!r.cache_hit && r.compiled) compiles.push_back(&r);
    }
    replayed += s.replayed_misses;
    traced_ms.insert(traced_ms.end(), s.traced_ms.begin(), s.traced_ms.end());
    for (const Latency& l : s.reads_ms) untraced_ms.push_back(l.ms);
    for (const Latency& l : s.writes_ms) untraced_ms.push_back(l.ms);
  }
  auto share = [&](auto&& pred) {
    double n = 0;
    for (const ReadRecord* r : records) n += pred(*r) ? 1 : 0;
    return Ratio(n, static_cast<double>(records.size()));
  };

  spans("api.query", "api.query_us", true);
  out.push_back({"api.plan_cache_hit_ratio", share([](const ReadRecord& r) { return r.cache_hit; }),
                 "ratio"});
  out.push_back({"api.plan_cache_invalidations_per_kstmt",
                 Ratio(static_cast<double>(after.plan_cache.invalidated -
                                           before.plan_cache.invalidated) * 1000.0,
                       statements),
                 "per_kstmt"});
  spans("api.write", "api.write_us", true);
  spans("api.commit", "api.commit_us", false);
  double conflicts =
      static_cast<double>(after.transactions.conflicts - before.transactions.conflicts);
  double committed =
      static_cast<double>(after.transactions.committed - before.transactions.committed);
  out.push_back({"api.conflict_ratio", Ratio(conflicts, conflicts + committed), "ratio"});

  spans("sql.parse", "sql.parse_us", false);
  spans("sql.lower", "sql.lower_us", false);
  out.push_back({"sql.fallback_ratio", share([](const ReadRecord& r) { return !r.compiled; }),
                 "ratio"});

  spans("opt.optimize", "opt.optimize_us", true);
  double candidates = 0, memo = 0, rewrites = 0, exhausted = 0;
  std::map<std::string, double> fires;
  for (const ReadRecord* r : compiles) {
    candidates += static_cast<double>(r->search_candidates);
    memo += static_cast<double>(r->memo_hits);
    rewrites += static_cast<double>(r->rewrites.size());
    exhausted += r->budget_exhausted ? 1 : 0;
    for (const std::string& rule : r->rewrites) fires[rule] += 1;
  }
  double n_compiles = static_cast<double>(compiles.size());
  out.push_back({"opt.search_candidates_per_compile", Ratio(candidates, n_compiles),
                 "per_compile"});
  out.push_back({"opt.memo_hit_ratio", Ratio(memo, memo + candidates), "ratio"});
  out.push_back({"opt.rewrites_per_compile", Ratio(rewrites, n_compiles), "per_compile"});
  out.push_back({"opt.budget_exhausted_ratio", Ratio(exhausted, n_compiles), "ratio"});
  for (const quotient::RulePtr& rule : quotient::SearchRuleSet()) {
    out.push_back({std::string("opt.law_fires.") + rule->name(),
                   Ratio(fires[rule->name()] * 1000.0, n_compiles), "per_kcompile"});
  }
  spans("opt.plan_build", "opt.plan_build_us", false);

  spans("exec.open", "exec.open_us", true);
  spans("exec.pull", "exec.pull_us", false);
  double dop = 0, work = 0, result = 0, hits = 0, lookups = 0, spill = 0;
  std::vector<double> charged_mb;
  for (const ReadRecord* r : records) {
    dop += static_cast<double>(r->max_dop);
    work += static_cast<double>(r->work_rows);
    result += static_cast<double>(r->result_rows);
    hits += static_cast<double>(r->recycler_hits);
    lookups += static_cast<double>(r->recycler_hits + r->recycler_misses);
    spill += static_cast<double>(r->spill_bytes);
    charged_mb.push_back(static_cast<double>(r->charged_bytes) / (1 << 20));
  }
  out.push_back({"exec.max_dop.mean", Ratio(dop, static_cast<double>(records.size())), "dop"});
  out.push_back({"exec.work_rows_per_result_row", Ratio(work, result), "rows/row"});
  out.push_back({"exec.recycler_hit_ratio", Ratio(hits, lookups), "ratio"});
  out.push_back({"exec.charged_mb.p50", Quantile(charged_mb, 0.5), "MB"});
  out.push_back({"exec.spill_bytes", spill, "bytes"});

  double untraced = Quantile(untraced_ms, 0.5);
  out.push_back({"trace.overhead_pct",
                 untraced > 0 ? (Quantile(traced_ms, 0.5) / untraced - 1) * 100 : 0, "%"});
  out.push_back({"trace.coverage", StmtCoverage(logs), "ratio"});
  out.push_back({"trace.compile_replay_ratio",
                 Ratio(static_cast<double>(replayed), static_cast<double>(misses)), "ratio"});
  return out;
}

int Run(const Options& options) {
  for (const char* var : kEngineOverrides) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "bench_e2e: " << var
                << " is set; the benchmark measures the engine's default configuration only\n";
      return 2;
    }
  }
  if (std::string(E2E_BUILD_TYPE) != "Release") {
    std::cerr << "bench_e2e: built as " << E2E_BUILD_TYPE << "; configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, options.scale);
  if (workload == nullptr) return Usage("unknown workload " + options.workload);

  const size_t cpus = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t sessions = std::min(workload->sessions(), cpus);
  const bool trace = !options.trace_path.empty();

  Dataset data = workload->Generate(options.seed);
  std::vector<std::string> tables;
  for (const auto& table : data.tables) tables.push_back(table.first);

  Engine engine;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    std::string error;
    double seconds = SetUp(*workload, data, sessions, &engine, &error);
    if (seconds < 0) {
      std::cerr << "bench_e2e: set-up failed: " << error << "\n";
      return 1;
    }
    setup_s.push_back(seconds);
  }

  std::vector<std::unique_ptr<SessionSource>> sources;
  std::vector<SessionSource*> source_ptrs;
  for (size_t i = 0; i < sessions; ++i) {
    sources.push_back(workload->NewSource(i));
    source_ptrs.push_back(sources.back().get());
  }
  std::vector<SessionStats> stats(sessions);
  LoopConfig config;
  config.trace = trace;
  config.reservoir = workload->verify_samples();
  config.seed = options.seed;
  config.tables = tables;

  std::atomic<uint64_t> completed{0};
  config.completed = &completed;
  const quotient::DatabaseStats db_before = engine.db->Stats();
  const int64_t start = NowNs();
  config.deadline_ns = start + static_cast<int64_t>(options.duration_s * 1e9);
  std::vector<Slice> slices;
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < sessions; ++i) {
      threads.emplace_back(RunSession, std::ref(engine), i, std::ref(*sources[i]),
                           std::cref(config), &stats[i]);
    }
    slices = SampleSlices(start, options.duration_s, completed);
    for (std::thread& t : threads) t.join();
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  const quotient::DatabaseStats db_after = engine.db->Stats();
  // Before the checks: the oracle's own allocations must not set the peak.
  const double peak_rss_mb = PeakRssMb();

  // ---- checks: sampled oracle replay, row-count consistency, final state
  uint64_t reads = 0, writes = 0, failed = 0, count_mismatches = 0;
  std::vector<std::string> errors;
  std::vector<Capture> pool;
  std::unordered_map<uint64_t, size_t> row_counts;
  std::vector<Latency> reads_ms, writes_ms;
  for (SessionStats& s : stats) {
    reads += s.reads;
    writes += s.writes;
    failed += s.failed;
    errors.insert(errors.end(), s.errors.begin(), s.errors.end());
    for (Capture& c : s.captures) pool.push_back(std::move(c));
    count_mismatches += s.row_count_mismatches;
    for (const auto& [key, rows] : s.row_counts) {
      auto [it, inserted] = row_counts.emplace(key, rows);
      if (!inserted && it->second != rows) ++count_mismatches;
    }
    reads_ms.insert(reads_ms.end(), s.reads_ms.begin(), s.reads_ms.end());
    writes_ms.insert(writes_ms.end(), s.writes_ms.begin(), s.writes_ms.end());
  }
  if (count_mismatches > 0) {
    errors.push_back(std::to_string(count_mismatches) +
                     " executions returned a different row count for the same statement,"
                     " bindings and snapshot");
  }
  VerifyResult verified = VerifySample(std::move(pool), workload->verify_samples(), options.seed,
                                       workload->sql_oracle(), options.perturb);
  errors.insert(errors.end(), verified.errors.begin(), verified.errors.end());
  std::string final_state = workload->CheckFinalState(*engine.sessions[0], source_ptrs);
  if (!final_state.empty()) errors.push_back(final_state);
  const uint64_t mismatches =
      verified.mismatches + count_mismatches + (final_state.empty() ? 0 : 1);
  const bool correct = failed == 0 && mismatches == 0;
  const double statements = static_cast<double>(reads + writes);

  // ---- metrics
  std::vector<double> slice_rate, slice_cpu_ms;
  for (const Slice& slice : slices) {
    slice_rate.push_back(Ratio(slice.statements, slice.seconds));
    if (slice.statements > 0) slice_cpu_ms.push_back(slice.cpu_s * 1e3 / slice.statements);
  }
  std::vector<Metric> metrics = {
      {"throughput_sps", Quantile(slice_rate, 0.5), "stmt/s"},
      {"read_p50_ms", BlockQuantile(reads_ms, 0.5), "ms"},
      {"read_p99_ms", BlockQuantile(reads_ms, 0.99), "ms"},
      {"write_p50_ms", BlockQuantile(writes_ms, 0.5), "ms"},
      {"write_p99_ms", BlockQuantile(writes_ms, 0.99), "ms"},
      {"failed_ratio", Ratio(static_cast<double>(failed + mismatches), statements), "fraction"},
      {"cpu_ms_per_stmt", Quantile(slice_cpu_ms, 0.5), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
  };
  if (trace) {
    std::vector<SpanLog> logs;
    for (SessionStats& s : stats) logs.push_back(std::move(s.log));
    std::vector<Metric> layers = LayerMetrics(logs, stats, db_before, db_after, statements);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    if (!WriteTrace(options.trace_path, logs)) {
      std::cerr << "bench_e2e: cannot write " << options.trace_path << "\n";
      return 2;
    }
  }

  for (const std::string& error : errors) std::cerr << "bench_e2e: " << error << "\n";
  std::string json = "{\"workload\":" + JsonString(options.workload) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"duration_s\":" + JsonNumber(options.duration_s) +
                     ",\"elapsed_s\":" + JsonNumber(elapsed_s) +
                     ",\"traced\":" + (trace ? "true" : "false") +
                     ",\"scale\":" + JsonString(options.scale == Scale::kFull ? "full" : "smoke");
  json += ",\"stamp\":{\"num_cpus\":" + std::to_string(cpus) +
          ",\"exec_threads\":" + std::to_string(quotient::GetExecThreads()) +
          ",\"sessions\":" + std::to_string(sessions) +
          ",\"build_type\":" + JsonString(E2E_BUILD_TYPE) +
          ",\"compiler\":" + JsonString(Compiler()) + "}";
  json += ",\"sizes\":{";
  bool first = true;
  for (const auto& [name, value] : workload->sizes()) {
    json += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  json += "},\"counts\":{\"reads\":" + std::to_string(reads) +
          ",\"writes\":" + std::to_string(writes) +
          ",\"verified\":" + std::to_string(verified.checked) +
          ",\"mismatches\":" + std::to_string(mismatches) + "}";
  json += ",\"slice_stmt_per_s\":[";
  for (size_t i = 0; i < slice_rate.size(); ++i) json += (i ? "," : "") + JsonNumber(slice_rate[i]);
  json += "],\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) json += (i ? "," : "") + JsonString(errors[i]);
  json += "],\"correct\":" + std::string(correct ? "true" : "false") +
          ",\"attempted\":" + std::to_string(reads + writes) +
          ",\"failed\":" + std::to_string(failed + mismatches) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? "," : "") + JsonString(metrics[i].name) + ":{\"value\":" +
            JsonNumber(metrics[i].value) + ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options options;
  std::string problem;
  if (!e2e::ParseOptions(argc, argv, &options, &problem)) return e2e::Usage(problem);
  return e2e::Run(options);
}
