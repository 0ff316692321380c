#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py A/ B/

A and B each hold K results files written by benchmark/run.sh (traced and
smoke runs are skipped). For every (end-to-end metric, workload) pair the
script prints each side's median and quartiles, the ratio B/A, and a
verdict:

  improved      B is better than A by more than A's own spread (the
                distance between A's quartiles), or, when the spread is
                wider than the bound, every B run beats every A run;
  within bound  B is no worse than A by more than the metric's bound;
  worse         B is worse than A by more than the bound;
  unresolved    the run-to-run spread of either side (quartile distance
                over median) is wider than the bound.

It also checks that every run is correct, that all runs measured the same
run length, and that runs of the same workload and seed report the same
decision_digest. Exits 1 on any "worse" verdict, incorrect run, digest
mismatch or differing run length.
"""
import argparse
import collections
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_runs(directory: pathlib.Path):
    runs = []
    for path in sorted(directory.glob("*.json")):
        run = json.loads(path.read_text())
        if run.get("trace") or run.get("smoke"):
            continue
        run["_path"] = str(path)
        runs.append(run)
    if not runs:
        sys.exit(f"compare: no untraced, non-smoke results in {directory}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    all_b_better = all(sign * (x - y) < 0 for x in b for y in a)
    if spread > bound:
        return ("improved" if all_b_better else "unresolved"), spread
    if worse_by > bound:
        return "worse", spread
    if sign * (a_med - b_med) > (a_q3 - a_q1) and worse_by < 0:
        return "improved", spread
    return "within bound", spread


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"A": load_runs(args.a), "B": load_runs(args.b)}
    failed = False

    digests = collections.defaultdict(set)
    for label, runs in sides.items():
        for run in runs:
            digests[(run["workload"], run["seed"])].add(run["decision_digest"])
            if not run["correct"]:
                print(f"INCORRECT run {run['_path']}: failed {run['failed']} of {run['attempted']}")
                failed = True
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            print(f"DIGEST MISMATCH {workload} seed {seed}: {sorted(seen)}")
            failed = True
    lengths = {run["seconds"] for runs in sides.values() for run in runs}
    if len(lengths) > 1:
        print(f"RUN LENGTHS DIFFER: {sorted(lengths)} s; compare runs of one length only")
        return 1

    header = (f"{'workload':14} {'metric':20} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        per_side = {label: [r for r in runs if r["workload"] == workload]
                    for label, runs in sides.items()}
        if not per_side["A"] or not per_side["B"]:
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in per_side["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in per_side["B"]]
            text, spread = verdict(a, b, m["better"], m["bound"])
            failed |= text == "worse"
            cols = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            ratio = quartiles(b)[1] / quartiles(a)[1] if quartiles(a)[1] else float("nan")
            print(f"{workload:14} {m['name']:20} {cols[0]:>34} {cols[1]:>34} {ratio:7.4f} "
                  f"{spread:7.4f} {m['bound']:6.3f}  {text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
