#!/usr/bin/env bash
# Builds Release and emits benchmark JSON so PRs have a perf trajectory to
# compare against.
#
# Usage: scripts/run_benchmarks.sh [output-dir]
#   Writes to output-dir (default: bench-results/):
#     BENCH_division.json        hash-division vs Healy's basic-algebra
#                                simulation at QUOTIENT_THREADS=1
#     BENCH_key_codec.json       key-codec microbenchmarks
#     BENCH_parallel.json        QUOTIENT_THREADS=1 vs N A/B of the
#                                morsel-driven parallel executor
#                                (docs/parallel_execution.md)
#     BENCH_sql.json             end-to-end SQL through the Session front
#                                door (parse -> rewrite laws -> parallel
#                                exec; plan-cache hit vs miss vs the oracle
#                                interpreter; docs/api.md)
#     BENCH_concurrency.json     N concurrent sessions over one shared
#                                Database (bench_concurrent_sessions.cpp):
#                                sessions sweep 1..8 at worker-pool sizes
#                                {1, N}, with throughput per configuration
#     BENCH_robustness.json      query-lifecycle governor (docs/
#                                robustness.md): governed vs ungoverned
#                                HashDivision/1024/16 overhead plus
#                                Session::Cancel latency on an in-flight
#                                parallel DIVIDE BY, spill-forced vs
#                                in-memory execution of the same point, and
#                                admission-controller latencies
#     BENCH_recycler.json        cross-query artifact recycler (docs/
#                                recycler.md): recycling-off vs warm-hit vs
#                                cold-publish per workload, with the
#                                warm-vs-off speedup (bar: >= 2x on the
#                                build-dominated workloads)
#     BENCH_txn.json             transaction subsystem (docs/
#                                transactions.md): BEGIN/COMMIT machinery,
#                                write-set validate+publish, autocommit DML,
#                                the conflict-abort path, and dirty-overlay
#                                reads vs cached snapshot reads
#     BENCH_optimizer.json       cost-guided rewrite search (docs/
#                                optimizer.md): compile time of the one
#                                rewrite driver, and execution of the plan
#                                the greedy fixpoint and the search pick
#                                for a union-divisor query Law 1 makes
#                                searchable but the fixpoint cannot reach
#   Every benchmark runs 5 repetitions and reports only the aggregates
#   (mean, median, stddev, cv); the merged files compare medians. Every
#   output's "context" records num_cpus, build_type, compiler and git_sha.
#   Compare runs with benchmark's own tools/compare.py, or just diff the
#   median real_time fields. QUOTIENT_BENCH_THREADS overrides the parallel
#   A/B's high thread count (default: nproc, min 2).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${1:-"${repo_root}/bench-results"}"
build_dir="${repo_root}/build-bench"

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" \
  --target bench_division_algorithms bench_key_codec bench_sql_e2e \
           bench_concurrent_sessions bench_cancellation bench_spill \
           bench_law10_semijoin bench_recycler bench_txn bench_optimizer >/dev/null

mkdir -p "${out_dir}"

# Provenance stamped into every output (google benchmark adds num_cpus).
build_type="Release"
compiler_file="$(ls "${build_dir}"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)"
compiler="$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' "${compiler_file}")"
compiler+="-$(sed -n 's/^set(CMAKE_CXX_COMPILER_VERSION "\(.*\)")$/\1/p' "${compiler_file}")"
git_sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git -C "${repo_root}" diff --quiet HEAD 2>/dev/null; then git_sha+="-dirty"; fi
stamp="build_type=${build_type},compiler=${compiler},git_sha=${git_sha}"
repeat=(--benchmark_repetitions=5 --benchmark_report_aggregates_only=true
        "--benchmark_context=${stamp}")

run_bench_threads() {  # binary threads out_file [extra args...]
  local binary="$1" threads="$2" out_file="$3"
  shift 3
  QUOTIENT_THREADS="${threads}" "${build_dir}/${binary}" \
    --benchmark_out="${out_file}" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.2 "${repeat[@]}" "$@"
}

# Canonical trajectory files, single-threaded (thread count is the only
# execution knob).
run_bench_threads bench_division_algorithms 1 "${out_dir}/BENCH_division.json"
run_bench_threads bench_key_codec 1 "${out_dir}/BENCH_key_codec.json"

# A/B the morsel-driven parallel executor: the same binaries at 1 worker
# vs N workers.
par_threads="${QUOTIENT_BENCH_THREADS:-$(nproc)}"
if [ "${par_threads}" -lt 2 ]; then par_threads=2; fi

# End-to-end SQL through the Session front door, in the production
# configuration (parallel executor at the A/B's high thread count):
# compile+run on a cold plan cache vs warm cache vs the oracle interpreter
# baseline, plus prepared-statement re-execution.
run_bench_threads bench_sql_e2e "${par_threads}" "${out_dir}/BENCH_sql.json"

# Concurrent sessions over one shared Database: the bench binary sweeps the
# sessions axis (benchmark threads 1..8, one Session each); run it at a
# worker pool of 1 (pure inter-session concurrency) and of N (sessions
# compete for the shared morsel pool), then merge into BENCH_concurrency.json.
run_bench_threads bench_concurrent_sessions 1 "${out_dir}/.conc_pool1.json"
run_bench_threads bench_concurrent_sessions "${par_threads}" "${out_dir}/.conc_poolN.json"

# Governor robustness: governed-vs-ungoverned overhead on the canonical
# HashDivision/1024/16 point (acceptance bar: within 3%), plus the latency
# from Session::Cancel() to the in-flight statement unwinding.
run_bench_threads bench_cancellation "${par_threads}" "${out_dir}/.robustness_raw.json"

# Graceful degradation: the same HashDivision point in memory vs with the
# spill watermark forcing every store to disk, plus admission-controller
# fast-path and queued-handoff latencies.
run_bench_threads bench_spill "${par_threads}" "${out_dir}/.spill_raw.json"

# Artifact recycler: recycling-off vs warm-hit vs cold-publish per workload.
run_bench_threads bench_recycler "${par_threads}" "${out_dir}/.recycler_raw.json"

# Transactions: commit machinery, validate+publish, conflict abort, and
# dirty-overlay reads against the cached snapshot-read baseline.
run_bench_threads bench_txn "${par_threads}" "${out_dir}/BENCH_txn.json"

# Cost-guided rewrite search: Optimize() on a law-rich plan (compile time),
# and execution of the greedy fixpoint's vs the search's plan on a
# union-divisor workload only the search rule set can rewrite (Law 1).
run_bench_threads bench_optimizer 1 "${out_dir}/BENCH_optimizer.json"

# Each bench_division_algorithms family runs in its own process on both
# sides, so a family's ratio is not skewed by state an earlier family left
# behind (started pool workers, the heap layout after the 1.3M-row points).
div_families="HashDivision FirstClassDivide WindowedDivide WindowedDivideUnclustered HealySimulation"
for family in ${div_families}; do
  run_bench_threads bench_division_algorithms 1 "${out_dir}/.div_par1_${family}.json" \
    "--benchmark_filter=^${family}/"
  run_bench_threads bench_division_algorithms "${par_threads}" \
    "${out_dir}/.div_parN_${family}.json" "--benchmark_filter=^${family}/"
done
run_bench_threads bench_law10_semijoin 1 "${out_dir}/.law10_par1.json"
run_bench_threads bench_law10_semijoin "${par_threads}" "${out_dir}/.law10_parN.json"

# Merge the A/B runs into comparison files: real_time per side plus the
# speedup.
PAR_THREADS="${par_threads}" DIV_FAMILIES="${div_families}" BUILD_TYPE="${build_type}" COMPILER="${compiler}" \
  GIT_SHA="${git_sha}" python3 - "${out_dir}" <<'PY'
import json, sys, os

out_dir = sys.argv[1]
context = {
    "num_cpus": os.cpu_count(),
    "build_type": os.environ["BUILD_TYPE"],
    "compiler": os.environ["COMPILER"],
    "git_sha": os.environ["GIT_SHA"],
}


def write(name, doc):
    """Writes one merged output, stamped with the run's provenance."""
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump({"context": context, **doc}, f, indent=1)

def medians(path):
    """The median-aggregate rows of one output, keyed by benchmark name."""
    with open(os.path.join(out_dir, path)) as f:
        doc = json.load(f)
    return {b["run_name"]: b for b in doc.get("benchmarks", [])
            if b.get("aggregate_name") == "median"}


def times(path):
    return {name: b["real_time"] for name, b in medians(path).items()}

# Parallel A/B: 1 worker vs N workers, same binaries. Benchmarks that report
# a "dop" counter (the largest per-pipeline parallelism of the plan) carry
# it for the N-worker run, so the file shows which points ran chunked.
par_pairs = [("division", f".div_par1_{family}.json", f".div_parN_{family}.json")
             for family in os.environ["DIV_FAMILIES"].split()]
par_pairs.append(("law10_semijoin", ".law10_par1.json", ".law10_parN.json"))
threads_n = os.environ.get("PAR_THREADS", "?")
par_comparison = []
for suite, one_file, n_file in par_pairs:
    one, many = times(one_file), medians(n_file)
    for name in one:
        if name not in many:
            continue
        t1, tn = one[name], many[name]["real_time"]
        row = {
            "suite": suite,
            "name": name,
            "threads_1_us": round(t1, 3),
            "threads_n_us": round(tn, 3),
            "speedup": round(t1 / tn, 3) if tn > 0 else None,
        }
        if "dop" in many[name]:
            row["dop_n"] = int(many[name]["dop"])
        par_comparison.append(row)

write("BENCH_parallel.json", {"threads_n": threads_n, "comparison": par_comparison})

# Concurrent sessions: one row per (workload, sessions, pool size), with
# aggregate throughput. The bench reports items_per_second across all
# session threads under UseRealTime, i.e. statements/second for the fleet.
def session_rows(path, pool):
    rows = []
    for name, b in medians(path).items():
        # Names look like "BM_ConcurrentSessions_CachedDivide/real_time/threads:4".
        sessions = 1
        for part in name.split("/"):
            if part.startswith("threads:"):
                sessions = int(part.split(":")[1])
        rows.append({
            "workload": name.split("/")[0].replace("BM_ConcurrentSessions_", ""),
            "sessions": sessions,
            "pool_threads": pool,
            "statements_per_second": round(b.get("items_per_second", 0.0), 1),
            "real_time_us": round(b["real_time"], 3),
        })
    return rows

concurrency = session_rows(".conc_pool1.json", 1) + \
    session_rows(".conc_poolN.json", int(threads_n))
write("BENCH_concurrency.json", {"pool_threads_n": threads_n, "results": concurrency})

best = {}
for row in concurrency:
    key = (row["workload"], row["pool_threads"])
    best[key] = max(best.get(key, 0.0), row["statements_per_second"])
for (workload, pool), qps in sorted(best.items()):
    print(f"concurrency {workload} (pool={pool}): peak {qps:,.0f} statements/s")

# Governor robustness: overhead of the installed QueryContext on the
# canonical HashDivision point, plus cancel latency (manual-timed from
# Session::Cancel() to statement unwind).
rob = times(".robustness_raw.json")

def first_time(prefix):
    for name, t in sorted(rob.items()):
        if name.startswith(prefix):
            return t
    return None

ungoverned = first_time("BM_HashDivision/ungoverned")
governed = first_time("BM_HashDivision/governed")
cancel_latency = first_time("BM_CancelLatency")

# Spill + admission (bench_spill): in-memory vs spill-forced on the same
# HashDivision point, admission fast path, queued-grant handoff latency.
spill = times(".spill_raw.json")

def first_spill(prefix):
    for name, t in sorted(spill.items()):
        if name.startswith(prefix):
            return t
    return None

in_memory = first_spill("BM_HashDivision/in_memory")
spill_forced = first_spill("BM_HashDivision/spill_forced")
admission_fast = first_spill("BM_AdmissionUncontended")
admission_handoff = first_spill("BM_AdmissionQueuedHandoff")
robustness = {
    "hash_division_1024_16": {
        "ungoverned_us": round(ungoverned, 3) if ungoverned else None,
        "governed_us": round(governed, 3) if governed else None,
        "overhead_pct": round((governed / ungoverned - 1.0) * 100, 2)
                        if governed and ungoverned else None,
    },
    "cancel_latency_us": round(cancel_latency, 3) if cancel_latency else None,
    "spill_hash_division_1024_16": {
        "in_memory_us": round(in_memory, 3) if in_memory else None,
        "spill_forced_us": round(spill_forced, 3) if spill_forced else None,
        "slowdown": round(spill_forced / in_memory, 3)
                    if spill_forced and in_memory else None,
    },
    "admission_uncontended_us": round(admission_fast, 3) if admission_fast else None,
    "admission_queued_handoff_us": round(admission_handoff, 3)
                                   if admission_handoff else None,
}
write("BENCH_robustness.json", robustness)
if robustness["hash_division_1024_16"]["overhead_pct"] is not None:
    print(f"governor overhead on HashDivision/1024/16: "
          f"{robustness['hash_division_1024_16']['overhead_pct']:+.2f}%"
          f" | cancel latency: {robustness['cancel_latency_us']:.1f} us")
if robustness["spill_hash_division_1024_16"]["slowdown"] is not None:
    print(f"spill-forced HashDivision/1024/16: "
          f"{robustness['spill_hash_division_1024_16']['slowdown']:.2f}x in-memory"
          f" | admission handoff: {robustness['admission_queued_handoff_us']:.1f} us")

# Artifact recycler: off vs warm vs cold per workload, warm-vs-off speedup.
rec = times(".recycler_raw.json")

def recycler_time(workload, variant):
    for name, t in sorted(rec.items()):
        if name.startswith(f"BM_Recycler_{workload}_{variant}"):
            return t
    return None

recycler = []
for workload in ("Divide", "GroupBy", "SemiJoin"):
    off_t = recycler_time(workload, "off")
    warm = recycler_time(workload, "warm")
    cold = recycler_time(workload, "cold")
    if off_t is None or warm is None:
        continue
    recycler.append({
        "workload": workload,
        "off_us": round(off_t, 3),
        "warm_us": round(warm, 3),
        "cold_us": round(cold, 3) if cold is not None else None,
        "warm_speedup": round(off_t / warm, 3) if warm > 0 else None,
    })
write("BENCH_recycler.json", {"results": recycler})
for row in recycler:
    print(f"recycler {row['workload']}: warm {row['warm_speedup']:.2f}x off "
          f"({row['off_us']:.0f} us -> {row['warm_us']:.0f} us)")

par_speedups = [c["speedup"] for c in par_comparison if c["speedup"] is not None]
if par_speedups:
    print(f"parallel speedup ({threads_n} threads vs 1): "
          f"min {min(par_speedups):.2f}x / "
          f"median {sorted(par_speedups)[len(par_speedups)//2]:.2f}x / "
          f"max {max(par_speedups):.2f}x")
PY
rm -f "${out_dir}"/.law10_*.json "${out_dir}"/.div_par*.json "${out_dir}"/.conc_pool*.json \
      "${out_dir}"/.robustness_raw.json "${out_dir}"/.spill_raw.json \
      "${out_dir}"/.recycler_raw.json

echo "Wrote ${out_dir}/BENCH_division.json," \
     "BENCH_key_codec.json, BENCH_parallel.json," \
     "BENCH_sql.json, BENCH_concurrency.json, BENCH_robustness.json," \
     "BENCH_recycler.json, BENCH_txn.json and BENCH_optimizer.json"
