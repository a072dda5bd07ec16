#!/usr/bin/env python3
"""Benchmark of the DAS-DRAM simulator: named workloads, end-to-end and
per-layer metrics, gated on identical simulated results.

    python3 perfbench/run.py --workload mcf --seed 1 --seconds 30 --trace 0

builds the C++ benchmark programs from source (CMake, into
.bench_build/perfbench), runs timed operations for --seconds and
prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Every operation's simulated output is
digested and checked: against the digests stored in digests.json, cold
against warm, run against run, traced against untraced and (traced pass)
event engine against tick engine. A mismatch, crash or protocol-checker
panic is a failed operation and makes the exit status 1.

See USAGE.md for the workloads, the metrics and the self-test.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_build", "perfbench-tmp")
DIGESTS = os.path.join(HERE, "digests.json")

MIN_OPS = 3            # timed operations per run, however long they take
OP_TIMEOUT_S = 150     # one operation; a hang counts as a failure
MEM_CYCLE_NS = 1.25    # DDR3-1600 memory clock
CPU_PER_MEM_CYCLE = 15 / 4  # 3 GHz cores over the 800 MHz memory clock
LAYER_REPEATS = 3
MICRO_MIN_TIME_S = "0.05"
PERTURBATION = '{"das": {"promotionThreshold": 2}}'
TRACE_REQUEST_RATE = 0.1
# Operation variants with their own stored digests; the tick engine and
# the perturbed self-test run under the plain variant's digest. The
# baseline variant adds an untimed standard-DRAM run for the DAS speedup.
VARIANTS = {None: (), "baseline": ("--baseline",),
            "traced": ("--trace-requests", str(TRACE_REQUEST_RATE))}
# Host timings are scaled to a fixed host speed: CPU seconds x
# CALIB_REF_S / the calibration kernel's CPU seconds around the
# operation (perfbench_run --calibrate). On a machine shared with other
# guests, cache contention slows the simulator by up to 2x for minutes
# at a time; the kernel slows with it and runs no simulator code.
CALIB_REF_S = 0.15
PAPER_DAS_GAIN_PCT = 7.25
ROADMAP_SPLIT = [("dram", "DRAM", 49), ("cpu", "core", 34),
                 ("core", "DAS", 10), (None, "epochs", 7)]


class Failure(Exception):
    """An operation whose output is missing or not the expected one."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------- build

def build(targets):
    """Configure and build @targets; returns the set that built."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def sh(cmd):
        return subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0

    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not sh(configure):
        # A cache from another checkout path cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        if not sh(configure):
            return set()
    return {t for t in targets
            if sh(["cmake", "--build", BUILD, "-j", jobs, "--target", t])}


# ------------------------------------------------- benchmark processes

def run_program(args, work):
    """Run a benchmark program; returns (its JSON line, peak RSS in MiB)."""
    out, err = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out, "w") as fo, open(err, "w") as fe:
        proc = subprocess.Popen(args, stdout=fo, stderr=fe)
    deadline = time.monotonic() + OP_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out) as f:
        lines = f.read().split("\n")
    lines = [line for line in lines if line.strip()]
    if proc.returncode != 0 or not lines:
        with open(err) as f:
            tail = f.read()[-600:]
        raise Failure(f"{os.path.basename(args[0])} exited "
                      f"{proc.returncode}: {tail.strip()}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def canonical(lines, drop_types=("meta", "host")):
    """JSONL records minus run-identity and host-timing fields."""
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("type") in drop_types:
            continue
        rec.pop("host", None)
        yield json.dumps(rec, sort_keys=True, separators=(",", ":"))


def digest(named_texts):
    h = hashlib.sha256()
    for name, text in named_texts:
        h.update(name.encode() + b"\0")
        for rec in canonical(text.split("\n")):
            h.update(rec.encode() + b"\n")
    return h.hexdigest()[:32]


def read(path):
    with open(path) as f:
        return f.read()


def parse_stats(text):
    """name -> record of one stats-JSONL dump (meta under 'meta')."""
    out = {}
    for line in text.split("\n"):
        if line.strip():
            rec = json.loads(line)
            out[rec.get("name", rec["type"])] = rec
    return out


def op_args(wl, seed):
    what = ["--sweep"] if wl["kind"] == "sweep" else ["--spec", wl["spec"]]
    return what + ["--instructions", str(wl["instructions_per_core"]),
                   "--seed", str(seed)]


def operation(wl, seed, extra=()):
    """One cold + warm operation: timings, digests and parsed stats."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=TMP_ROOT)
    program = os.path.join(BUILD, "perfbench_run")
    try:
        # The kernel runs in its own process, so it adds nothing to the
        # operation's memory or caches.
        calib = run_program([program, "--calibrate"], work)[0]["calib_s"]
        rec, rss = run_program(
            [program, *op_args(wl, seed),
             *(("--jobs", str(wl["jobs"])) if wl["kind"] == "sweep"
               else ("--design", wl["design"])),
             *extra, "--work-dir", work], work)
        calib += run_program([program, "--calibrate"], work)[0]["calib_s"]
        rec["host_scale"] = CALIB_REF_S / (calib / 2)
        rec["peak_rss_mib"] = rss
        cold = read(os.path.join(work, "cold.results.jsonl"))
        if cold != read(os.path.join(work, "warm.results.jsonl")):
            raise Failure("cold and warm result JSONL differ")
        names = sorted(os.path.basename(p) for p in glob.glob(
            os.path.join(work, "stats_cold", "*.jsonl")))
        stats = {side: [(n, read(os.path.join(work, "stats_" + side, n)))
                        for n in names] for side in ("cold", "warm")}
        stats_digest = digest(stats["cold"])
        if stats_digest != digest(stats["warm"]):
            raise Failure("cold and warm stats-JSONL differ")
        rec["digest"] = {"results": digest([("results", cold)]),
                         "stats": stats_digest}
        baseline = os.path.join(work, "baseline.results.jsonl")
        if os.path.exists(baseline):
            rec["digest"]["baseline"] = digest([("baseline",
                                                 read(baseline))])
        rec["results"] = [json.loads(line) for line in cold.split("\n")
                          if line.strip()]
        rec["stats"] = [parse_stats(text) for _, text in stats["cold"]]
        if rec["ipc_sum"] <= 0 or rec["cycles"] <= 0:
            raise Failure("operation simulated nothing")
        return rec
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Ledger:
    """Counts operations and checks each against the expected digests."""

    def __init__(self, name, wl, digests):
        self.name, self.wl, self.digests = name, wl, digests
        self.attempted = self.failed = 0
        self.reference = {}

    def run(self, fn, what):
        self.attempted += 1
        try:
            return fn()
        except (Failure, OSError, ValueError, KeyError) as e:
            self.failed += 1
            log(f"[perfbench] FAILED {what}: {e}")
            return None

    def checked(self, seed, variant=None, extra=(), same_as=None):
        """An operation whose digest must match the one stored for
        (workload, variant, seed) when recorded, that of every identical
        earlier operation, and @same_as when given."""
        key = self.name + ("/" + variant if variant else "")

        def go():
            rec = operation(self.wl, seed, VARIANTS[variant] + tuple(extra))
            want = self.digests.get(key, {}).get(str(seed))
            if want and rec["digest"] != want:
                raise Failure(f"digest {rec['digest']} != stored {want} "
                              f"for {key} seed {seed}")
            ref = same_as or self.reference.setdefault(
                (key, seed, tuple(extra)), rec["digest"])
            if rec["digest"] != ref:
                raise Failure(f"digest {rec['digest']} != {ref} of an "
                              f"identical earlier operation")
            return rec

        return self.run(go, f"{key} seed {seed} {' '.join(extra)}".strip())


# ------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def scaled(rec, key):
    """An operation's host timing in CPU seconds at the reference host
    speed (see CALIB_REF_S)."""
    return rec[key] * rec["host_scale"]


def counter(stats, pattern):
    rx = re.compile(pattern)
    return sum(r.get("value", 0) for n, r in stats.items() if rx.fullmatch(n))


def dist_sum(stats, pattern, field="sum"):
    rx = re.compile(pattern)
    total = 0.0
    for n, r in stats.items():
        if rx.fullmatch(n):
            total += r["mean"] * r["count"] if field == "sum" else r[field]
    return total


def ratio(a, b):
    return a / b if b else 0.0


def simulated(stats):
    """Simulated per-layer metrics of one stats-JSONL dump."""
    core = r"system\.core\d+\."
    retired = counter(stats, core + "retired")
    fills = counter(stats, r"system\.mshr\.allocations")
    dm = "system.dasManager."
    rb, fast, slow = (counter(stats, re.escape(dm + k)) for k in
                      ("rowBufferHits", "fastAccesses", "slowAccesses"))
    ch = r"system\.dram\.channel\d+\."
    requests = counter(stats, ch + "reads") + counter(stats, ch + "writes")
    forwarded = counter(stats, r"system\.dram\.forwardedReads")
    rollup = stats.get("rollup.readLatency", {})
    tenant = r"system\.reqtrace\.tenant\d+\."
    wait_total = dist_sum(stats, tenant + "total")
    tc = dm + "translationCache."
    return {
        "cpu.rob_stall_frac": ratio(counter(stats, core + "robStallCycles"),
                                    counter(stats, core + "cycles")),
        "cache.llc_mpki": ratio(1000.0 * fills, retired),
        "core.ppkm": ratio(
            1000.0 * counter(stats, re.escape(dm + "promotions")), fills),
        "core.tc_hit_ratio": ratio(
            counter(stats, re.escape(tc + "hits")),
            counter(stats, re.escape(tc) + "(hits|misses)")),
        "core.fast_access_frac": ratio(rb + fast, rb + fast + slow),
        "dram.row_hit_ratio": ratio(counter(stats, ch + "rowHits"), requests),
        "dram.read_latency_p50_ns": rollup.get("p50", 0) * MEM_CYCLE_NS,
        "dram.read_latency_p99_ns": rollup.get("p99", 0) * MEM_CYCLE_NS,
        "dram.read_queue_delay_mean": ratio(
            dist_sum(stats, ch + "readQueueDelay"),
            dist_sum(stats, ch + "readQueueDelay", "count")),
        "dram.forwarded_reads_frac": ratio(
            forwarded, counter(stats, ch + "reads") + forwarded),
        "mem.wait_queue_frac": ratio(
            dist_sum(stats, tenant + "waitQueue"), wait_total),
        "mem.wait_block_frac": ratio(
            dist_sum(stats, tenant + "waitBlock"), wait_total),
        "mem.wait_refresh_frac": ratio(
            dist_sum(stats, tenant + "waitRefresh"), wait_total),
    }


def call_counts(stats_list):
    """Calls each layer served in the measured window, from the stats."""
    c = dict.fromkeys(("records", "core_cycles", "run_cycles", "fills",
                       "das", "dram"), 0)
    for s in stats_list:
        core = r"system\.core\d+\."
        c["records"] += counter(s, core + "(loads|stores)")
        c["core_cycles"] += counter(s, core + "cycles")
        c["run_cycles"] += max((r["value"] for n, r in s.items()
                                if re.fullmatch(core + "cycles", n)),
                               default=0)
        c["fills"] += counter(s, r"system\.mshr\.allocations")
        c["das"] += counter(s, r"system\.dasManager\.(demandAccesses|"
                               r"writebacks)")
        c["dram"] += counter(s, r"system\.dram\.channel\d+\.(reads|writes)")
    return c


def est_shares(layers, counts, run_s):
    """Probe time per call x the run's call counts / its CPU seconds."""
    ns = 1e-9 / run_s if run_s else 0.0
    mem_cycles = counts["run_cycles"] / CPU_PER_MEM_CYCLE
    return {
        "workload.est_share":
            layers["workload.next_ns"] * counts["records"] * ns,
        "cpu.est_share": layers["cpu.tick_ns"] * counts["core_cycles"] * ns,
        "cache.est_share": (layers["cache.access_ns_p50"] * counts["records"]
                            + layers["cache.fill_ns"] * counts["fills"]) * ns,
        "core.est_share": (layers["core.das_access_ns"] * counts["das"]
                           + layers["core.das_tick_ns"]
                           * counts["run_cycles"]) * ns,
        "dram.est_share": (layers["dram.submit_ns"] * counts["dram"]
                           + layers["dram.tick_ns"] * mem_cycles) * ns,
    }


def report_gain(wl, speedup):
    log(f"[perfbench] DAS gain over standard DRAM: "
        f"{100.0 * (speedup - 1.0):+.2f} % at "
        f"{wl['instructions_per_core']:,} instructions per core; the paper "
        f"reports +{PAPER_DAS_GAIN_PCT} % (fig7 gmean, its own simulator at "
        f"full scale). This model is unvalidated against hardware.")


def micro_rows():
    """bench/micro_components rows as micro.<BM_name>_ns."""
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    proc = subprocess.run(
        [os.path.join(BUILD, "micro_components"), "--benchmark_format=json",
         f"--benchmark_min_time={MICRO_MIN_TIME_S}"],
        capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise Failure(f"micro_components exited {proc.returncode}")
    return {"micro." + b["name"].replace("/", "_") + "_ns":
            b["real_time"] * scale[b["time_unit"]]
            for b in json.loads(proc.stdout)["benchmarks"]}


def layer_rows(wl, seed):
    """Per-call host times of the layer probes, median of LAYER_REPEATS
    runs."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        runs = [run_program(
            [os.path.join(BUILD, "perfbench_layers"), *op_args(wl, seed),
             "--work-dir", work], work)[0] for _ in range(LAYER_REPEATS)]
        return {k: median([r[k] for r in runs]) for k in runs[0]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------- runs

def anchor(ledger, seed, default_seed):
    """Tie the run to the stored output: measured seeds without a stored
    digest are preceded by one operation at the default seed."""
    if str(seed) not in ledger.digests.get(ledger.name, {}):
        ledger.checked(default_seed)


def end_to_end(ledger, wl, seed, seconds, default_seed):
    anchor(ledger, seed, default_seed)
    single = wl["kind"] != "sweep"

    # A single run's first operation also runs standard DRAM, after its
    # timed part, for the DAS speedup.
    ops = []
    start = time.monotonic()
    while ((len(ops) < MIN_OPS or time.monotonic() - start < seconds)
           and time.monotonic() - start < 4 * seconds + 60):
        rec = ledger.checked(seed, "baseline" if single and not ops else None)
        if rec:
            ops.append(rec)
    if not ops:
        return {}
    first = ops[0]
    for r in ops:
        r["setup_s"] = (r["setup_s"] if single
                        else sum(r["setup_samples_s"]))
    # Host timings are means over the run's operations, and the rate is
    # total cycles over total time: on a shared machine the noise is
    # slow drift plus frequent short slowdowns, which a mean averages
    # out with fewer operations than a median needs.
    def mean_scaled(key):
        return statistics.fmean(scaled(r, key) for r in ops)

    metrics = {
        "cpu_s": mean_scaled("cpu_s"),
        "setup_s": mean_scaled("setup_s"),
        "sim_mcycles_per_cpu_s": sum(r["cycles"] for r in ops) / len(ops)
        / mean_scaled("warm_run_cpu_s" if single else "cpu_s") / 1e6,
        "warm_cpu_s": mean_scaled("warm_cpu_s"),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in ops]),
        "sim_ipc": first["ipc_sum"],
    }
    if "das_speedup" in first:
        metrics["sim_das_speedup"] = first["das_speedup"]
        report_gain(wl, metrics["sim_das_speedup"])
    log(f"[perfbench] {ledger.name}: {len(ops)} timed operations; mean "
        f"wall {statistics.fmean(r['wall_s'] for r in ops):.3f} s, CPU "
        f"{statistics.fmean(r['cpu_s'] for r in ops):.3f} s, scaled CPU "
        f"{metrics['cpu_s']:.3f} s; host scale "
        f"{min(r['host_scale'] for r in ops):.3f}-"
        f"{max(r['host_scale'] for r in ops):.3f}")
    return metrics


def traced(ledger, wl, seed, seconds, default_seed, built):
    anchor(ledger, seed, default_seed)
    single = wl["kind"] != "sweep"

    plain, spans = [], []
    start = time.monotonic()
    while ((len(spans) < 2 or time.monotonic() - start < seconds)
           and time.monotonic() - start < 4 * seconds + 60):
        # Alternate which side runs first, so order effects cancel.
        if len(spans) % 2:
            t = ledger.checked(seed, "traced")
            u = ledger.checked(seed)
        else:
            u = ledger.checked(seed)
            t = ledger.checked(seed, "traced")
        if u and t:
            if t["results"] != u["results"]:
                ledger.failed += 1
                log("[perfbench] FAILED: request tracing changed RunMetrics")
                continue
            plain.append(u)
            spans.append(t)
    if not spans:
        return {}
    metrics = {"trace_overhead_pct": 100.0 * (
        median([scaled(r, "cpu_s") for r in spans])
        / median([scaled(r, "cpu_s") for r in plain]) - 1.0)}

    if single:
        # bench_engine's metrics_identical guard: the tick engine is the
        # reference the event engine must reproduce.
        ledger.checked(seed, extra=("--engine", "tick"),
                       same_as=plain[0]["digest"])
        baseline = ledger.checked(seed, "baseline")
        if baseline:
            metrics["sim.das_gain_pct"] = 100.0 * (
                baseline["das_speedup"] - 1.0)
    else:
        metrics["sim.das_gain_pct"] = 100.0 * (
            plain[0]["das_speedup"] - 1.0)

    # Simulated layers: the traced run's stats (fig7-sweep: mean over its
    # DAS points).
    dumps = [s for s in spans[0]["stats"]
             if single or s["meta"]["design"] == "DAS-DRAM"]
    per_dump = [simulated(s) for s in dumps]
    for name in per_dump[0]:
        metrics[name] = statistics.fmean(d[name] for d in per_dump)

    if "perfbench_layers" in built:
        layers = ledger.run(lambda: layer_rows(wl, seed), "layer probes")
        if layers:
            metrics.update(layers)
            run_s = median([r["warm_run_cpu_s" if single else "warm_cpu_s"]
                            for r in plain])
            shares = est_shares(layers, call_counts(plain[0]["stats"]), run_s)
            metrics.update(shares)
            log(f"[perfbench] {ledger.name} est_share (outside estimate) vs "
                f"the ROADMAP phase split:")
            for key, label, pct in ROADMAP_SPLIT:
                est = (f"{100.0 * shares[key + '.est_share']:5.1f} %"
                       if key else "  n/a  ")
                log(f"    {label:7s} ROADMAP {pct:3d} %   est {est}")
            log(f"    cache   est {100.0 * shares['cache.est_share']:5.1f} %"
                f"   workload est "
                f"{100.0 * shares['workload.est_share']:5.1f} %")
    else:
        ledger.attempted += 1
        ledger.failed += 1
        log("[perfbench] FAILED: perfbench_layers did not build")

    if "micro_components" in built:
        rows = ledger.run(micro_rows, "micro_components")
        if rows:
            metrics.update(rows)
    else:
        ledger.attempted += 1
        ledger.failed += 1
        log("[perfbench] FAILED: micro_components did not build")
    return metrics


def selftest(ledger, default_seed):
    """A perturbed configuration must be caught by the digest gate."""
    ok = ledger.checked(default_seed) is not None
    probe = Ledger(ledger.name, ledger.wl, ledger.digests)
    probe.checked(default_seed, extra=("--config-patch", PERTURBATION))
    print(json.dumps({"selftest": ledger.name,
                      "unperturbed_ok": ok,
                      "perturbed_attempted": probe.attempted,
                      "perturbed_failed": probe.failed}))
    return 0 if ok and probe.failed > 0 else 1


def record_digests(workloads, seeds):
    out = {}
    for name, wl in workloads.items():
        for variant, extra in VARIANTS.items():
            if variant == "baseline" and wl["kind"] == "sweep":
                continue  # the grid runs its own standard baselines
            key = name + ("/" + variant if variant else "")
            for seed in seeds:
                rec = operation(wl, seed, extra)
                out.setdefault(key, {})[str(seed)] = rec["digest"]
                log(f"[perfbench] {key} seed {seed}: {rec['digest']}")
    with open(DIGESTS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ledger_cfg = load_json(os.path.join(HERE, "ledger.json"))
    workloads = ledger_cfg["workloads"]
    declared = {"0": bench["end_to_end"], "1": bench["per_layer"]}
    described = set(ledger_cfg["metrics"])
    for m in declared["0"] + declared["1"]:
        if m["name"] not in described:
            sys.exit(f"metric {m['name']} has no entry in ledger.json")

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                allow_abbrev=False)
    p.add_argument("--workload", choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=ledger_cfg["default_seed"])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--metric", action="append",
                   choices=sorted(m["name"] for v in declared.values()
                                  for m in v),
                   help="print only these metrics (repeatable)")
    p.add_argument("--selftest", action="store_true",
                   help="check that a perturbed configuration is caught")
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite digests.json for the default and "
                        "held-out seeds")
    args = p.parse_args()
    if not args.record_digests and not args.workload:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    targets = ["perfbench_run"]
    if args.trace == "1":
        targets += ["perfbench_layers", "micro_components"]
    built = build(targets)
    if "perfbench_run" not in built:
        log("[perfbench] build failed")
        return 1

    default_seed = ledger_cfg["default_seed"]
    try:
        if args.record_digests:
            record_digests(workloads,
                           [default_seed, ledger_cfg["held_out_seed"]])
            return 0
        digests = load_json(DIGESTS) if os.path.exists(DIGESTS) else {}
        wl = workloads[args.workload]
        ledger = Ledger(args.workload, wl, digests)
        if args.selftest:
            return selftest(ledger, default_seed)
        if args.trace == "1":
            metrics = traced(ledger, wl, args.seed, args.seconds,
                             default_seed, built)
        else:
            metrics = end_to_end(ledger, wl, args.seed, args.seconds,
                                 default_seed)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)

    wanted = declared[args.trace]
    if args.metric:
        wanted = [m for m in wanted if m["name"] in args.metric]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        ledger.attempted += 1
        ledger.failed += 1
        log(f"[perfbench] FAILED: no value for {', '.join(missing)}")
    out = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
