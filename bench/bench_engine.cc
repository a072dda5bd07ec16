/**
 * @file
 * Engine throughput benchmark: runs the same workloads under the tick
 * and the event engine and reports simulated-cycles-per-second for
 * each, plus the event/tick speedup. The two runs must also agree on
 * every end-of-run metric — a last-line defence on top of the
 * `ctest -L differential` suite.
 *
 * The event engine earns its keep on idle-heavy workloads — long
 * compute gaps and full-ROB stalls where the only activity is a
 * handful of timing-legal command edges the engine can hop between
 * (and bubble stretches its burst path collapses). The set therefore
 * spans both ends: a synthetic compute-gap workload ('idle') as the
 * idle-heavy pole, mcf/milc as memory-bound SPEC profiles where
 * per-cycle activity limits skipping, and cactusADM as a busy middle
 * ground.
 *
 * Writes BENCH_engine.json (override with --out). Scale the budget
 * with --instructions N or DAS_SIM_SCALE.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

using namespace dasdram;

namespace
{

/**
 * Idle-heavy pole: long compute gaps broken by sparse uniform-random
 * misses over a large footprint. Every miss goes all the way to DRAM
 * (no streams, no hot set, no reuse) and stalls the core serially,
 * but the dominant pattern is thousands-of-instruction bubble
 * stretches — exactly what the event engine batches: the burst path
 * collapses the gaps and the horizon hop clears the stalls, while the
 * tick engine pays for every cycle.
 */
BenchmarkProfile
idleProfile()
{
    BenchmarkProfile p;
    p.name = "idle";
    p.footprintMiB = 512;
    p.memRatio = 0.0002;
    p.writeFraction = 0.0;
    p.reuseProb = 0.0;
    p.pStream = 0.0;
    p.pWork = 0.0;
    p.pHot = 0.0;
    p.pUniform = 1.0;
    p.streams = 1;
    p.runLength = 1;
    return p;
}

const BenchmarkProfile &
profileFor(const std::string &name)
{
    static const BenchmarkProfile idle = idleProfile();
    if (name == "idle")
        return idle;
    return specProfile(name);
}

struct EngineSample
{
    double seconds = 0.0;
    double cyclesPerSec = 0.0; ///< simulated CPU cycles / wall second
    RunMetrics metrics;
};

EngineSample
timeOne(const std::string &bench, SimConfig cfg, SimEngine engine)
{
    cfg.engine = engine;
    cfg.obs.workloadName = bench;
    SyntheticTrace trace(profileFor(bench), cfg.seed * 1000003 + 1,
                         cfg.geom.rowBytes, cfg.geom.lineBytes);

    System sys(cfg, {&trace});
    auto t0 = std::chrono::steady_clock::now();
    RunMetrics m = sys.run();
    auto t1 = std::chrono::steady_clock::now();

    EngineSample s;
    s.seconds = std::chrono::duration<double>(t1 - t0).count();
    // Throughput over the whole run: both engines simulate the exact
    // same cycle count, so the speedup below reduces to the wall-time
    // ratio; cycles/sec makes the absolute rates comparable across
    // machines.
    s.cyclesPerSec = s.seconds > 0.0
                         ? static_cast<double>(m.cpuCycles) / s.seconds
                         : 0.0;
    s.metrics = std::move(m);
    return s;
}

/** Cross-engine identity of the end-of-run metrics (the differential
 *  suite checks command streams and stats exports; here we only guard
 *  the fields this bench prints). */
bool
agree(const RunMetrics &a, const RunMetrics &b)
{
    return a.cpuCycles == b.cpuCycles && a.instructions == b.instructions &&
           a.llcMisses == b.llcMisses && a.memAccesses == b.memAccesses &&
           a.promotions == b.promotions && a.ipc == b.ipc;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("bench_engine",
                  "tick vs event engine throughput on the same "
                  "workloads");
    cli.option("--out", "FILE",
               "JSON report path (default BENCH_engine.json)")
        .optionUInt("--instructions", "N",
                    "per-core budget (default 4M, scaled by "
                    "DAS_SIM_SCALE)")
        .option("--workload", "NAME",
                "bench a single workload (a SPEC profile or 'idle')");
    cli.parse(argc, argv);

    const std::string out_path = cli.str("--out", "BENCH_engine.json");
    const InstCount instructions = cli.uns("--instructions", 0);
    if (cli.given("--instructions") && instructions == 0)
        fatal("--instructions needs a positive integer");
    std::vector<std::string> benches{"idle", "mcf", "milc",
                                     "cactusADM"};
    if (cli.given("--workload"))
        benches = {cli.str("--workload")};

    SimConfig cfg;
    cfg.design = DesignKind::Das;
    cfg.instructionsPerCore = 4'000'000;
    applySimScale(cfg);
    if (instructions)
        cfg.instructionsPerCore = instructions;
    // Time the engines themselves, not the observability sample path.
    cfg.obs.histograms = false;

    benchutil::Table table("Engine throughput (simulated CPU "
                           "cycles per wall-clock second)");
    std::ofstream os(out_path);
    if (!os)
        fatal("cannot open '{}' for writing", out_path);

    bool all_agree = true;
    for (const std::string &bench : benches) {
        // Warm run: charge one-time setup (profile tables, allocator
        // warm-up) to neither engine.
        {
            SimConfig warm = cfg;
            warm.instructionsPerCore =
                std::min<InstCount>(cfg.instructionsPerCore, 50'000);
            (void)timeOne(bench, warm, SimEngine::Tick);
        }
        EngineSample tick = timeOne(bench, cfg, SimEngine::Tick);
        EngineSample event = timeOne(bench, cfg, SimEngine::Event);

        if (!agree(tick.metrics, event.metrics)) {
            warn("engine metrics diverge on '{}' — run "
                 "`ctest -L differential` and dasdram_fuzz "
                 "--differential",
                 bench);
            all_agree = false;
        }

        double speedup = tick.seconds > 0.0 && event.seconds > 0.0
                             ? tick.seconds / event.seconds
                             : 0.0;
        double ipc = tick.metrics.ipc.empty() ? 0.0 : tick.metrics.ipc[0];

        table.row({bench, benchutil::num(tick.cyclesPerSec / 1e6, 2),
                   benchutil::num(event.cyclesPerSec / 1e6, 2),
                   benchutil::num(speedup, 2),
                   benchutil::num(tick.metrics.mpki(), 1),
                   benchutil::num(ipc, 2)});

        os << "{\"bench\": \"engine\", \"workload\": \"" << bench
           << "\", \"instructions\": " << cfg.instructionsPerCore
           << ", \"cpu_cycles\": " << tick.metrics.cpuCycles
           << ", \"tick\": {\"seconds\": " << tick.seconds
           << ", \"cycles_per_sec\": " << tick.cyclesPerSec
           << "}, \"event\": {\"seconds\": " << event.seconds
           << ", \"cycles_per_sec\": " << event.cyclesPerSec
           << "}, \"speedup\": " << speedup
           << ", \"mpki\": " << tick.metrics.mpki()
           << ", \"metrics_identical\": "
           << (agree(tick.metrics, event.metrics) ? "true" : "false")
           << "}\n";
    }

    table.print({"workload", "tick Mcyc/s", "event Mcyc/s", "speedup",
                 "MPKI", "IPC"});
    std::printf("\nwrote %s\n", out_path.c_str());
    return all_agree ? 0 : 1;
}
