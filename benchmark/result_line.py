#!/usr/bin/env python3
"""Print the one-line JSON result of a benchmark run.

    python3 benchmark/result_line.py RESULTS.json --trace 0|1

Reads the run's results file (written by gpufreq_benchmark) and the metric
lists in BENCHMARK.json, and prints
{"correct", "attempted", "failed", "metrics"} where "metrics" holds every
end-to-end metric (--trace 0) or every per-layer metric (--trace 1), each
with its value and unit. Exits 1 without printing when a listed metric is
missing or carries another unit.
"""
import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=pathlib.Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = json.loads(args.results.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None:
            print(f"result_line: {args.results} lacks metric {m['name']}", file=sys.stderr)
            return 1
        if got["unit"] != m["unit"]:
            print(f"result_line: {m['name']} has unit {got['unit']}, "
                  f"BENCHMARK.json says {m['unit']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
