#!/usr/bin/env python3
"""Per-call ledger of the hot-component micro-benchmarks.

    python3 bench/bench_micro.py parent=OLD_BUILD change=NEW_BUILD \\
        [--reps 5] [--min-time 0.2]

For each LABEL=BUILD_DIR, every repetition runs
BUILD_DIR/bench/micro_components on the ledger's rows (the
translation-table lookup and swap, the construction of a mcf DAS
System, the cache lookup, the cache fill with an LRU eviction, the
translation-cache insert with an LRU replacement, the translation-cache
lookup at three capacities and the controller's row-hit issue loop).
The builds alternate within each
repetition, in reversed order every other time, so host drift and
order effects hit them alike. Prints one JSON document
(the BENCH_micro.json format): the host and, per label, each row's
median CPU nanoseconds per iteration with the first and third
quartiles, and each build's CMake build type.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

from bench_sweep import build_type, host

ROWS = [
    "BM_TranslationTableLookup",
    "BM_TranslationTableSwap",
    "BM_SystemConstruct",
    "BM_CacheAccess",
    "BM_CacheFill",
    "BM_TranslationCacheInsert",
    "BM_TranslationCacheLookup/32768",
    "BM_TranslationCacheLookup/131072",
    "BM_TranslationCacheLookup/262144",
    "BM_ControllerRowHitThroughput",
]

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_once(binary, min_time):
    """CPU ns per iteration of every ledger row, from one process."""
    pattern = "^(" + "|".join(re.escape(r) for r in ROWS) + ")$"
    out = subprocess.run(
        [binary, f"--benchmark_filter={pattern}",
         f"--benchmark_min_time={min_time}", "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    found = {}
    for b in json.loads(out)["benchmarks"]:
        found[b["name"]] = b["cpu_time"] * UNIT_NS[b["time_unit"]]
    missing = [r for r in ROWS if r not in found]
    if missing:
        sys.exit(f"{binary}: no result for {', '.join(missing)}")
    return found


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return round(q1, 2), round(med, 2), round(q3, 2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("builds", nargs="+", metavar="LABEL=BUILD_DIR")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--min-time", type=float, default=0.2,
                    help="google-benchmark seconds per row and run")
    opts = ap.parse_args()

    builds = []
    for spec in opts.builds:
        label, sep, build_dir = spec.partition("=")
        binary = os.path.join(build_dir, "bench", "micro_components")
        if not sep or not os.access(binary, os.X_OK):
            sys.exit(f"{spec}: want LABEL=BUILD_DIR with "
                     "bench/micro_components")
        builds.append((label, binary, build_type(build_dir)))

    runs = {label: [] for label, _, _ in builds}
    for rep in range(opts.reps):
        # ABBA order: whichever build runs second in a repetition
        # measured slower on a shared host.
        for label, binary, _ in (builds if rep % 2 == 0 else builds[::-1]):
            runs[label].append(run_once(binary, opts.min_time))
            print(f"[bench_micro] rep {rep + 1} {label}: "
                  f"{runs[label][-1]}", file=sys.stderr, flush=True)

    out_rows = []
    for label, _, cmake_build_type in builds:
        row = {"label": label, "build_type": cmake_build_type}
        for name in ROWS:
            q1, med, q3 = quartiles([r[name] for r in runs[label]])
            row[name] = {"median_ns": med, "q1_ns": q1, "q3_ns": q3}
        out_rows.append(row)
    print(json.dumps({
        "bench": "micro_components", "reps": opts.reps,
        "min_time_s": opts.min_time, "statistic": "median of CPU ns per "
        "iteration", "host": host(), "rows": out_rows}, indent=2))


if __name__ == "__main__":
    main()
