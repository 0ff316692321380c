#!/usr/bin/env bash
# Build and run the repository benchmark.
#
#   benchmark/run.sh [--workload W] [--seed N] [--trace [0|1]] [--smoke]
#                    [--results DIR] [--seconds S]
#
# Builds the harness (Release) into build-benchmark/ of this checkout, then
# runs each workload in its own process: the one named by --workload, or all
# four. Each run prints its metrics by name, unit and sample count, writes
# DIR/<workload>-seed<N>[-trace][-smoke].json (default DIR:
# build-benchmark/results), and prints as its last line one JSON object:
# the end-to-end metrics, or with --trace the per-layer metrics (traces go
# to build-benchmark/trace/<workload>.json). Every run measures run_seconds
# from BENCHMARK.json; --seconds is accepted only with that value, so two
# commits are never compared at different run lengths. --smoke runs 1 s per
# phase with no SLO search and no repeats. Exits non-zero on any
# correctness failure, and with 3 when the load generator could not hold
# its nominal rate.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

run_seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workload=""
seed=1
trace=0
smoke=0
results="build-benchmark/results"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds)
      if [[ "$2" != "$run_seconds" ]]; then
        echo "run.sh: --seconds must be run_seconds from BENCHMARK.json ($run_seconds), not '$2'" >&2
        exit 2
      fi
      shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --results) results="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

# Both commits of a comparison run the defaults users get.
unset GPUFREQ_NUM_THREADS GPUFREQ_KERNEL_BACKEND GPUFREQ_PRECISION GPUFREQ_INT8_VARIANT

if [[ -n "$workload" ]]; then
  workloads=("$workload")
else
  mapfile -t workloads < <(python3 -c \
    'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

build="build-benchmark"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S benchmark -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target gpufreq_benchmark -j "$(nproc)" >&2

mkdir -p "$results" "$build/trace"
status=0
for w in "${workloads[@]}"; do
  suffix=""
  flags=()
  if [[ "$trace" == 1 ]]; then suffix="-trace"; flags+=(--trace --trace-dir "$build/trace"); fi
  if [[ "$smoke" == 1 ]]; then suffix="$suffix-smoke"; flags+=(--smoke); fi
  file="$results/$w-seed$seed$suffix.json"
  rm -f "$file"
  rc=0
  "$build/gpufreq_benchmark" --workload "$w" --seed "$seed" --seconds "$run_seconds" \
    --results "$file" "${flags[@]}" || rc=$?
  if [[ -f "$file" ]] && ! python3 benchmark/result_line.py "$file" --trace "$trace"; then
    [[ $rc -ne 0 ]] || rc=1
  fi
  if [[ $rc -ne 0 && $status -eq 0 ]]; then status=$rc; fi
done
exit "$status"
