#!/usr/bin/env python3
"""Compares two BENCH_e2e.json files, metric by metric and workload by workload.

  python3 bench_e2e/bench_compare.py BASE.json NEW.json
  python3 bench_e2e/bench_compare.py --agree SET1.json SET2.json

For every workload and every end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles over its untraced runs, the change of the
medians, the spread (interquartile range over median, the wider side), and
how many of the pairs (run i of BASE, run i of NEW) NEW wins. Verdicts:

  REGRESSION  NEW's median is worse than BASE's by more than the bound
  unresolved  the spread is wider than the bound, and not every NEW run
              beats every BASE run
  improved    NEW wins at least 9 of 10 pairs and its median is better by
              more than BASE's own spread (or every NEW run beats every
              BASE run)
  unchanged   otherwise

Exit status: 1 when any pair is a REGRESSION. With --agree (two sets of the
same code), 1 when any median differs from the other set's by more than the
bound, taking each set as the base in turn.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for run in doc["runs"]:
        if not run.get("traced"):
            runs.setdefault(run["workload"], []).append(run)
    for series in runs.values():
        series.sort(key=lambda r: r["seed"])
    return runs


def compare(base_runs, new_runs, metric):
    """One (workload, metric) row: both sides' quartiles, change, spread, wins, verdict."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    base = [r["metrics"][name]["value"] for r in base_runs if name in r["metrics"]]
    new = [r["metrics"][name]["value"] for r in new_runs if name in r["metrics"]]
    if not base or not new:
        return None
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    # Positive "worse" means NEW is worse, as a share of BASE's median.
    worse = ((nm - bm) if lower else (bm - nm)) / bm if bm else 0.0
    base_spread = (b3 - b1) / bm if bm else 0.0
    spread = max(base_spread, (n3 - n1) / nm if nm else 0.0)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
    dominates = max(new) < min(base) if lower else min(new) > max(base)
    if spread > bound:
        verdict = "improved" if dominates else "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif dominates or (-worse > base_spread and wins >= 0.9 * len(pairs)):
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"base": (b1, bm, b3), "new": (n1, nm, n3), "worse": worse, "spread": spread,
            "wins": wins, "pairs": len(pairs), "bound": bound, "verdict": verdict}


def report(base_path, new_path, metrics):
    base, new = load_runs(base_path), load_runs(new_path)
    rows = []
    print(f"BASE {base_path}\nNEW  {new_path}")
    print(f"{'workload':14s} {'metric':16s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'worse':>8s} {'spread':>7s} {'wins':>6s} "
          f"{'bound':>6s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            row = compare(base[workload], new[workload], metric)
            if row is None:
                continue
            rows.append(row)
            b1, bm, b3 = row["base"]
            n1, nm, n3 = row["new"]
            print(f"{workload:14s} {metric['name']:16s} "
                  f"{bm:12.5g} [{b1:.5g}, {b3:.5g}]".ljust(62) +
                  f"{nm:12.5g} [{n1:.5g}, {n3:.5g}]".ljust(31) +
                  f"{row['worse'] * 100:+7.2f}% {row['spread'] * 100:6.2f}% "
                  f"{row['wins']:>2d}/{row['pairs']:<3d} {row['bound'] * 100:5.1f}%  "
                  f"{row['verdict']}")
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    parser.add_argument("--agree", action="store_true",
                        help="require both files to agree within every bound")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]

    rows = report(args.base, args.new, metrics)
    if not rows:
        print("no (workload, metric) pair in common", file=sys.stderr)
        return 2
    if args.agree:
        rows += report(args.new, args.base, metrics)
        disagree = [r for r in rows if abs(r["worse"]) > r["bound"]]
        print(f"{len(disagree)} of {len(rows)} comparisons differ by more than their bound")
        return 1 if disagree else 0
    regressions = sum(1 for r in rows if r["verdict"] == "REGRESSION")
    unresolved = sum(1 for r in rows if r["verdict"] == "unresolved")
    print(f"{regressions} regression(s), {unresolved} unresolved, {len(rows)} compared")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
