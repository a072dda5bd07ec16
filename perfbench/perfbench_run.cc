/**
 * @file
 * One end-to-end benchmark operation through the public simulator API,
 * timed from outside: a single workload through System, or a reduced
 * Figure 7 grid through SweepRunner. Each operation runs cold (and
 * publishes its post-warm-up snapshot) and is then re-run warm from that
 * snapshot. Times are host CPU seconds (see cpuNow), besides the cold
 * operation's wall time. Prints one JSON object on stdout; the simulated
 * outputs (RunMetrics lines, stats-JSONL, sweep result JSONL) are written
 * under --work-dir for perfbench/run.py to digest.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "perfbench_common.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"

using namespace dasdram;
using perfbench::Built;
using perfbench::build;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host CPU seconds used by the process, all threads. Unlike the wall
 *  clock it leaves out time the CPU spent on other programs or, on a
 *  virtual machine, on other guests (steal), so it measures the
 *  simulator's own work on a shared machine. */
double
cpuNow()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Host-speed calibration: a dependent random walk over 32 MiB with a
 *  little integer work per step. Other guests contending for the
 *  machine's shared cache and memory slow it as they slow the simulator,
 *  and it runs no simulator code, so its time at a given host speed is
 *  the same for every version of the simulator. Returns CPU seconds. */
double
calibrate()
{
    constexpr std::size_t kWords = (32u << 20) / sizeof(std::uint64_t);
    constexpr long kSteps = 1'000'000;
    // An LCG modulo a power of two with a = 1 (mod 4) and c odd has full
    // period, so the walk is one cycle through every word, in an order
    // the hardware prefetchers cannot follow.
    std::vector<std::uint64_t> next(kWords);
    for (std::size_t i = 0; i < kWords; ++i)
        next[i] = (i * 6364136223846793005ULL + 1442695040888963407ULL) &
                  (kWords - 1);
    double c0 = cpuNow();
    std::uint64_t p = 0, acc = 0;
    for (long k = 0; k < kSteps; ++k) {
        p = next[p];
        acc += (p & 7) ? (p >> 3) ^ acc : acc * 3 + 1;
        if ((k & 3) == 0)
            acc ^= next[(p + static_cast<std::uint64_t>(k)) % kWords];
    }
    double t = cpuNow() - c0;
    if (acc == 1) // keeps the walk from being optimised away
        std::fprintf(stderr, "\n");
    return t;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    if (!os || !(os << text))
        fatal("cannot write '{}'", path);
}

std::string
resultLine(const WorkloadSpec &w, const SimConfig &cfg,
           const RunMetrics &m)
{
    ExperimentResult r;
    r.workload = w.name;
    r.design = cfg.design;
    r.seed = cfg.seed;
    r.metrics = m;
    return toJsonLine(r);
}

double
ipcSum(const RunMetrics &m)
{
    double s = 0.0;
    for (double v : m.ipc)
        s += v;
    return s;
}

void
dumpStats(const System &sys, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write '{}'", path);
    sys.writeStatsJsonl(os);
}

/** Cold run (publishing the warm snapshot), then the warm re-run; with
 *  @p baseline also standard DRAM, untimed, for DAS's speedup over it. */
void
singleOp(const WorkloadSpec &w, const SimConfig &cfg,
         const std::string &work, bool baseline)
{
    const std::string ckpt = work + "/warm.ckpt";

    auto t0 = Clock::now();
    double c0 = cpuNow();
    Built cold = build(w, cfg);
    cold.sys->checkpointAtWarmup(ckpt);
    double setup = cpuNow() - c0;
    RunMetrics m = cold.sys->run();
    double cpu = cpuNow() - c0;
    double wall = since(t0);
    dumpStats(*cold.sys, work + "/stats_cold/stats.jsonl");
    cold.sys.reset();

    double c2 = cpuNow();
    Built warm = build(w, cfg);
    warm.sys->loadSnapshot(ckpt);
    double c3 = cpuNow();
    RunMetrics wm = warm.sys->run();
    double warm_run = cpuNow() - c3;
    double warm_cpu = cpuNow() - c2;
    dumpStats(*warm.sys, work + "/stats_warm/stats.jsonl");

    writeFile(work + "/cold.results.jsonl", resultLine(w, cfg, m) + "\n");
    writeFile(work + "/warm.results.jsonl", resultLine(w, cfg, wm) + "\n");

    JsonWriter j;
    j.beginObject()
        .field("setup_s", setup)
        .field("cpu_s", cpu)
        .field("wall_s", wall)
        .field("warm_cpu_s", warm_cpu)
        .field("warm_run_cpu_s", warm_run)
        .field("cycles", m.cpuCycles)
        .field("ipc_sum", ipcSum(m));
    if (baseline) {
        SimConfig std_cfg = cfg;
        std_cfg.design = DesignKind::Standard;
        RunMetrics base = runSimulation(w, std_cfg);
        writeFile(work + "/baseline.results.jsonl",
                  resultLine(w, std_cfg, base) + "\n");
        j.field("das_speedup", 1.0 + weightedSpeedupImprovement(m, base));
    }
    j.endObject();
    std::printf("%s\n", j.str().c_str());
}

/** Figure 7 grid: every Table 2 profile on every evaluated design. */
std::vector<ExperimentResult>
runSweep(const SimConfig &cfg, unsigned jobs, const std::string &warm_dir)
{
    SweepRunner sweep(cfg, jobs);
    sweep.setWarmStartDir(warm_dir);
    for (const std::string &bench : specBenchmarks())
        for (DesignKind d : evaluatedDesigns())
            sweep.add(WorkloadSpec::single(bench), d);
    return sweep.run();
}

void
writeResults(const std::string &path,
             const std::vector<ExperimentResult> &results)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write '{}'", path);
    writeJsonLines(os, results);
}

void
sweepOp(SimConfig cfg, unsigned jobs, const std::string &work)
{
    const std::string warm_dir = work + "/warm";

    // Set-up as a cold grid point of a statically profiled design pays
    // it (traces, System, profiling pre-pass), once per profile on SAS;
    // the sweep's own points set up inside run(), untimed.
    std::vector<double> setups;
    for (const std::string &bench : specBenchmarks()) {
        SimConfig pc = cfg;
        pc.design = DesignKind::Sas;
        pc.seed = SweepRunner::pointSeed(cfg.seed, bench, pc.design);
        double c = cpuNow();
        Built b = build(WorkloadSpec::single(bench), pc);
        perfbench::staticProfile(b);
        setups.push_back(cpuNow() - c);
    }

    cfg.obs.statsDir = work + "/stats_cold";
    auto t0 = Clock::now();
    double c0 = cpuNow();
    std::vector<ExperimentResult> cold = runSweep(cfg, jobs, warm_dir);
    double cpu = cpuNow() - c0;
    double wall = since(t0);

    cfg.obs.statsDir = work + "/stats_warm";
    double c1 = cpuNow();
    std::vector<ExperimentResult> warm = runSweep(cfg, jobs, warm_dir);
    double warm_cpu = cpuNow() - c1;

    writeResults(work + "/cold.results.jsonl", cold);
    writeResults(work + "/warm.results.jsonl", warm);

    std::uint64_t cycles = 0;
    double ipc = 0.0;
    std::vector<double> das_gains;
    for (const ExperimentResult &r : cold) {
        cycles += r.metrics.cpuCycles;
        ipc += ipcSum(r.metrics);
        if (r.design == DesignKind::Das)
            das_gains.push_back(r.perfImprovement);
    }

    JsonWriter j;
    j.beginObject()
        .field("cpu_s", cpu)
        .field("wall_s", wall)
        .field("warm_cpu_s", warm_cpu)
        .field("cycles", cycles)
        .field("ipc_sum",
               ipc / static_cast<double>(cold.empty() ? 1 : cold.size()))
        .field("das_speedup",
               1.0 + ExperimentRunner::gmeanImprovement(das_gains));
    j.key("setup_samples_s").beginArray();
    for (double s : setups)
        j.value(s);
    j.endArray().endObject();
    std::printf("%s\n", j.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("perfbench_run",
                  "one timed benchmark operation (cold run + warm re-run)");
    cli.option("--spec", "SPEC", "workload spec of a single run (e.g. mcf, M1)")
        .flag("--sweep", "run the reduced Figure 7 grid instead of --spec")
        .option("--design", "D", "DRAM design of a single run (default das)")
        .optionUInt("--instructions", "N", "instructions per core")
        .optionUInt("--seed", "N", "workload seed")
        .optionUInt("--jobs", "N", "sweep worker threads")
        .flag("--baseline",
              "single run: also run standard DRAM and print the speedup")
        .option("--engine", "E", "tick|event (default: SimConfig's)")
        .optionDouble("--trace-requests", "RATE",
                      "request-span sampling rate (default 0: off)")
        .option("--config-patch", "JSON",
                "configuration overrides, merged with configFromJson")
        .option("--work-dir", "DIR", "existing directory for outputs")
        .flag("--calibrate", "only time the host-speed calibration kernel");
    cli.parse(argc, argv);

    if (cli.given("--calibrate")) {
        std::printf("{\"calib_s\": %.9f}\n", calibrate());
        return 0;
    }

    const std::string work = cli.str("--work-dir");
    if (work.empty() || !std::filesystem::is_directory(work))
        fatal("--work-dir must name an existing directory");
    if (cli.given("--sweep") == cli.given("--spec"))
        fatal("give exactly one of --spec and --sweep");
    if (!cli.given("--instructions") || !cli.given("--seed"))
        fatal("--instructions and --seed are required");
    std::filesystem::create_directories(work + "/stats_cold");
    std::filesystem::create_directories(work + "/stats_warm");

    SimConfig cfg; // event engine, checker and histograms on, 1 channel thread
    cfg.design = parseDesign(cli.str("--design", "das"));
    cfg.instructionsPerCore = cli.uns("--instructions", 0);
    cfg.seed = cli.uns("--seed", 0);
    if (cli.given("--engine"))
        cfg.engine = parseEngine(cli.str("--engine"));
    cfg.obs.traceRequests = cli.dbl("--trace-requests", 0.0);
    if (cli.given("--config-patch"))
        cfg = configFromJson(cli.str("--config-patch"), cfg);

    if (cli.given("--sweep")) {
        auto jobs = static_cast<unsigned>(cli.uns("--jobs", 0));
        if (jobs == 0)
            fatal("--sweep needs --jobs N, N > 0");
        sweepOp(cfg, jobs, work);
    } else {
        // Static designs need runSimulation's profiling pre-pass, which
        // only the sweep exercises.
        if (designSpec(cfg.design).needsProfiling)
            fatal("single runs take designs without a profiling pass");
        singleOp(WorkloadSpec::parse(cli.str("--spec")), cfg, work,
                 cli.given("--baseline"));
    }
    return 0;
}
