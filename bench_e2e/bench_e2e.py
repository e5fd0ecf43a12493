#!/usr/bin/env python3
"""End-to-end benchmark of quotient: builds the bench_e2e binary in Release and runs it.

Usage (from the repository root):

  python3 bench_e2e/bench_e2e.py
      Every workload once (seed 1) plus one traced run each. Prints every
      metric as "workload metric value unit", writes
      bench_e2e/results/BENCH_e2e.json, and exits nonzero if any output
      fails verification or a run records fewer than 1000 reads (or, on
      txn_churn, writes).
      --runs N runs each workload N times (seeds 1..N); --out PATH moves the
      result file.

  python3 bench_e2e/bench_e2e.py --workload W --seed S --seconds N --trace 0|1
      One run. The last line of standard output is one JSON object with
      the keys correct, attempted, failed and metrics: the end-to-end
      metrics of BENCHMARK.json, or its per-layer metrics with --trace 1.

  python3 bench_e2e/bench_e2e.py --smoke
      Every workload at tiny scale for 1 s, traced and untraced.

  python3 bench_e2e/bench_e2e.py --self-test
      Checks the checks: a perturbed expected result must fail
      verification, and a synthetic 20% slowdown must make
      bench_compare.py report a regression.

The binary is built under .bench_build/ at the repository root (or under
$CARGO_TARGET_DIR when that is set); temporary files and traces go there too.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["divide_olap", "compile_storm", "fleet_cached", "txn_churn"]
MIN_SAMPLES = 1000  # reads (writes too on txn_churn) per run: a full percentile block


def fail(message, code=1):
    print(f"bench_e2e: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, cwd=ROOT):
    """Runs cmd in its own process group; on timeout kills the whole group."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntimed out after {timeout} s: {' '.join(cmd)}"
        return 124, out, err
    return proc.returncode, out, err


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.hpp")):
        fail(f"engine sources not found under {os.path.join(ROOT, 'src')}", code=2)
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            code, out, err = run(["cmake", "-S", HERE, "-B", out_dir,
                                  "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
            if code != 0:
                fail(f"cmake configure failed:\n{(out + err)[-4000:]}")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        code, out, err = run(["cmake", "--build", out_dir, "--target", "bench_e2e",
                              "-j", jobs], timeout=840)
        if code != 0:
            fail(f"build failed:\n{(out + err)[-4000:]}")
    return os.path.join(out_dir, "bench_e2e")


def git_sha():
    code, out, _ = run(["git", "rev-parse", "HEAD"], timeout=30)
    return out.strip() if code == 0 else "unknown"


def drive(binary, workload, seed, seconds, trace=False, scale="full", perturb=False):
    """One bench_e2e process. Returns (exit code, result dict or None, stderr)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--duration", str(seconds),
           "--scale", scale]
    if trace:
        cmd += ["--trace", os.path.join(build_dir(), f"trace-{workload}.json")]
    if perturb:
        cmd.append("--perturb-verify")
    code, out, err = run(cmd, timeout=seconds + 150)
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return code, result, err


def one_run(args):
    """The contract run: one JSON line with the metrics BENCHMARK.json names."""
    if args.trace not in (0, 1):
        fail("--trace takes 0 or 1", code=2)
    if not args.seconds or args.seconds <= 0:
        fail("--seconds must be positive", code=2)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload}; choose from {', '.join(WORKLOADS)}", code=2)
    listed = load_benchmark()["per_layer" if args.trace else "end_to_end"]
    binary = build()
    code, result, err = drive(binary, args.workload, args.seed, args.seconds,
                              trace=bool(args.trace))
    sys.stderr.write(err)
    if result is None:
        fail(f"bench_e2e exited with {code} and no result", code=code or 1)
    missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
    if missing:
        fail(f"bench_e2e did not report {', '.join(missing)}")
    metrics = {m["name"]: result["metrics"][m["name"]] for m in listed}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] and code == 0 else 1)


def suite(args, scale, seconds, runs, out_path):
    """Every workload `runs` times untraced plus once traced, one process each."""
    bench = load_benchmark()
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    binary = build()
    records, problems = [], []
    for workload in WORKLOADS:
        for i in range(runs + 1):
            traced = i == runs
            seed = args.seed + (0 if traced else i)
            code, result, err = drive(binary, workload, seed, seconds, trace=traced, scale=scale)
            label = f"{workload} seed {seed}{' traced' if traced else ''}"
            if result is None:
                problems.append(f"{label}: bench_e2e exited with {code} and no result\n{err}")
                continue
            if not result["correct"] or code != 0:
                problems.append(f"{label}: verification failed\n{err}")
            counts = result["counts"]
            if scale == "full" and not traced:
                if counts["reads"] < MIN_SAMPLES:
                    problems.append(f"{label}: only {counts['reads']} reads")
                if workload == "txn_churn" and counts["writes"] < MIN_SAMPLES:
                    problems.append(f"{label}: only {counts['writes']} writes")
            result.pop("errors", None)
            records.append(result)

    for workload in WORKLOADS:
        plain = [r for r in records if r["workload"] == workload and not r["traced"]]
        traced = [r for r in records if r["workload"] == workload and r["traced"]]
        for name in end_to_end + ["write_p50_ms", "write_p99_ms", "failed_ratio"]:
            values = [r["metrics"][name]["value"] for r in plain if name in r["metrics"]]
            if values:
                unit = plain[0]["metrics"][name]["unit"]
                print(f"{workload} {name} {statistics.median(values):.6g} {unit}")
        for r in traced:
            for name in per_layer:
                metric = r["metrics"].get(name)
                if metric is not None:
                    print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")

    stamp = dict(records[0]["stamp"]) if records else {}
    stamp.pop("sessions", None)
    stamp["git_sha"] = git_sha()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({"stamp": stamp, "scale": scale, "run_seconds": seconds, "runs": records},
                  f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(out_path, ROOT)}", file=sys.stderr)
    for problem in problems:
        print(f"bench_e2e: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


def self_test():
    """The verification and the comparison must each catch a planted fault."""
    binary = build()
    failures = []
    for workload in WORKLOADS:
        code, result, _ = drive(binary, workload, 1, 1, scale="smoke", perturb=True)
        if code == 0 or result is None or result["correct"]:
            failures.append(f"{workload}: a perturbed expected result passed verification")
        else:
            print(f"ok: {workload} rejects a perturbed expected result (exit {code})")

    work_dir = os.path.join(build_dir(), "self-test")
    os.makedirs(work_dir, exist_ok=True)
    bench = load_benchmark()

    def synthetic(path, factor):
        runs = []
        for seed in range(1, 11):
            jitter = 1 + 0.004 * ((seed * 7) % 5 - 2)  # +-0.8%, fixed pattern
            metrics = {}
            for m in bench["end_to_end"]:
                slower = factor if m["better"] == "lower" else 1 / factor
                metrics[m["name"]] = {"value": 10.0 * jitter * slower, "unit": m["unit"]}
            runs.append({"workload": "divide_olap", "seed": seed, "traced": False,
                         "metrics": metrics})
        with open(path, "w") as f:
            json.dump({"runs": runs}, f)

    base = os.path.join(work_dir, "base.json")
    same = os.path.join(work_dir, "same.json")
    slow = os.path.join(work_dir, "slow.json")
    synthetic(base, 1.0)
    synthetic(same, 1.0)
    synthetic(slow, 1.2)
    compare = os.path.join(HERE, "bench_compare.py")
    code, out, _ = run([sys.executable, compare, base, slow], timeout=60)
    if code != 1 or "REGRESSION" not in out:
        failures.append(f"bench_compare.py missed a 20% slowdown (exit {code}):\n{out}")
    else:
        print("ok: bench_compare.py reports a synthetic 20% slowdown as a regression")
    code, out, _ = run([sys.executable, compare, "--agree", base, same], timeout=60)
    if code != 0:
        failures.append(f"bench_compare.py --agree rejected identical sets (exit {code}):\n{out}")
    else:
        print("ok: bench_compare.py --agree accepts two identical sets")
    for failure in failures:
        print(f"bench_e2e: self-test: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (the contract run)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="timed window per run")
    parser.add_argument("--trace", type=int, default=0, help="1: report per-layer metrics")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", default=os.path.join(HERE, "results", "BENCH_e2e.json"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # The compiler's and the engine's temporary files stay inside the checkout.
    os.environ["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)

    if args.self_test:
        self_test()
    if args.smoke:
        suite(args, "smoke", 1, 1, os.path.join(build_dir(), "BENCH_e2e.smoke.json"))
    seconds = args.seconds or load_benchmark()["run_seconds"]
    if args.workload:
        args.seconds = seconds
        one_run(args)
    suite(args, "full", seconds, args.runs, os.path.abspath(args.out))


if __name__ == "__main__":
    main()
