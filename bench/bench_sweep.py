#!/usr/bin/env python3
"""Wall-clock ledger of a figure sweep, cold and then warm-started.

    python3 bench/bench_sweep.py parent=OLD_BUILD change=NEW_BUILD \\
        [--bench fig7_single] [--scale 0.01] [--jobs 2] [--reps 3]

For each LABEL=BUILD_DIR, every repetition runs BUILD_DIR/bench/<bench>
--jobs J --warm-dir D at DAS_SIM_SCALE=scale twice: cold, with D empty,
so every point runs its warm-up and publishes its snapshot; then warm,
so every point restores one. The builds alternate within each
repetition, so host drift hits them alike. The warm sweep's JSONL must
equal the cold one's. Prints one JSON document (the BENCH_sweep.json
format): the host and, per label, the median wall and user (child CPU)
seconds and peak RSS of the cold and the warm sweep, the bytes the
cold sweep left in the warm dir, and each build's CMake build type.
User seconds and peak RSS are the sweep process's own, from wait4().
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "os": f"{platform.system()} {platform.release()}"}


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def timed(cmd, env):
    """Run @cmd; returns (wall s, user s, peak RSS MiB) of that process
    alone (RUSAGE_CHILDREN would fold in every earlier child's peak)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{cmd[0]} exited {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_utime, usage.ru_maxrss / 1024.0


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


def sweep(binary, args, env, work):
    """One cold + warm pair in a fresh warm dir under @work."""
    warm_dir = os.path.join(work, "warm")
    shutil.rmtree(warm_dir, ignore_errors=True)
    out = {}
    for phase in ("cold", "warm"):
        jsonl = os.path.join(work, phase + ".jsonl")
        out[phase] = timed([binary, *args, "--warm-dir", warm_dir,
                            "--json", jsonl], env)
        if phase == "cold":
            out["warm_dir_bytes"] = dir_bytes(warm_dir)
    with open(os.path.join(work, "cold.jsonl")) as a, \
            open(os.path.join(work, "warm.jsonl")) as b:
        if a.read() != b.read():
            sys.exit(f"{binary}: the warm sweep's JSONL differs from the "
                     "cold sweep's")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("builds", nargs="+", metavar="LABEL=BUILD_DIR")
    ap.add_argument("--bench", default="fig7_single")
    ap.add_argument("--scale", default="0.01")
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--reps", type=int, default=3)
    opts = ap.parse_args()

    builds = []
    for spec in opts.builds:
        label, sep, build_dir = spec.partition("=")
        binary = os.path.join(build_dir, "bench", opts.bench)
        if not sep or not os.access(binary, os.X_OK):
            sys.exit(f"{spec}: want LABEL=BUILD_DIR with bench/{opts.bench}")
        builds.append((label, binary, build_type(build_dir)))

    env = dict(os.environ, DAS_SIM_SCALE=opts.scale)
    args = ["--jobs", str(opts.jobs)]
    runs = {label: [] for label, _, _ in builds}
    with tempfile.TemporaryDirectory() as work:
        for rep in range(opts.reps):
            for label, binary, _ in builds:
                runs[label].append(sweep(binary, args, env, work))
                print(f"[bench_sweep] rep {rep + 1} {label}: "
                      f"{runs[label][-1]}", file=sys.stderr, flush=True)

    rows = []
    for label, _, cmake_build_type in builds:
        row = {"label": label, "build_type": cmake_build_type}
        for phase in ("cold", "warm"):
            for i, unit in enumerate(("wall_s", "user_s",
                                      "peak_rss_mib")):
                row[f"{phase}_{unit}"] = round(statistics.median(
                    r[phase][i] for r in runs[label]), 3)
        # Snapshots are deterministic: every repetition must leave the
        # same bytes.
        sizes = {r["warm_dir_bytes"] for r in runs[label]}
        if len(sizes) != 1:
            sys.exit(f"{label}: warm dir sizes differ across "
                     f"repetitions: {sorted(sizes)}")
        row["warm_dir_bytes"] = sizes.pop()
        rows.append(row)
    print(json.dumps({
        "bench": opts.bench, "DAS_SIM_SCALE": float(opts.scale),
        "jobs": opts.jobs, "reps": opts.reps, "statistic": "median",
        "host": host(), "rows": rows}, indent=2))


if __name__ == "__main__":
    main()
