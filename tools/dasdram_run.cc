/**
 * @file
 * dasdram_run — command-line front-end for the simulator.
 *
 * Runs any workload spec (see src/workload/workload_spec.hh: synthetic
 * Table 2 benchmarks and mixes, external trace files, or mixes of
 * both) on any DRAM design with arbitrary configuration overrides, and
 * reports either a human-readable summary, a full statistics dump, or
 * a CSV row for scripting.
 *
 * Usage: dasdram_run [options] — every value-taking option also
 * accepts the --flag=value spelling; see --help for the full list.
 *
 * Workload specs (--workload):
 *   mcf              synthetic SPEC profile (legacy spelling)
 *   spec:mcf         same, explicit
 *   M3 / spec:M3     a Table 2 four-core mix
 *   mcf,lbm          one profile per core (legacy spelling)
 *   file:t.trace     stream an external trace (ramulator, dramsim3 or
 *                    dasdram-binary format, auto-detected; .gz works
 *                    when the build found zlib)
 *   file:t.trace:cores=4   round-robin-shard one trace over 4 cores
 *   mix:spec:mcf,file:t.trace   per-core elements
 *
 * Configuration files (--config/--dump-config): --dump-config prints
 * the complete effective configuration as JSON and exits; --config
 * FILE loads such a file as the new defaults (command-line flags still
 * override it). Round trip: dasdram_run --seed 7 --dump-config > c.json
 * && dasdram_run --config c.json runs the same point. --set KEY=VALUE
 * patches one --dump-config field through the same reader, applied
 * after the other flags (--set das.promotionThreshold=4 equals a
 * --config file holding {"das":{"promotionThreshold":4}}).
 *
 * Trace recording (--record): re-runs the point directly (like
 * --stats) with every core's delivered trace captured to
 * <prefix>.core<i>.dastrace; replay with --workload file:<that file>.
 * The static-design profiling pre-pass is excluded from the capture.
 *
 * --trace-cmds and --trace-out are independent sinks over the same
 * command stream: both may be given at once (the controller fans out
 * to the text trace, the JSON timeline and the protocol checker).
 * Like --stats, either one reruns the point directly with the same
 * effective seed as the sweep point, so the exports match the summary.
 *
 * Runs go through the SweepRunner engine, so the effective trace seed
 * of a point is SweepRunner::pointSeed(--seed, workload, design) —
 * deterministic, and identical to the same point inside any figure
 * sweep with the same base seed.
 *
 * Snapshots (--checkpoint-out/--restore): --checkpoint-out CYCLE:PATH
 * saves a versioned binary snapshot at the first run-loop visit at or
 * after tick CYCLE ("warmup:PATH" saves right after the warm-up
 * reset); --restore PATH resumes from such a snapshot, and the resumed
 * run is bit-identical to the uninterrupted one (same stats JSONL,
 * same command-trace and span-JSONL suffix). Both flags run the
 * point directly — no summary, and --baseline/--csv/--json do not
 * apply. --warm-dir DIR instead enables warm-start
 * sharing inside the sweep engine: each point forks from (or
 * publishes) the warmed snapshot of its config fingerprint under DIR,
 * so re-running against the same directory skips all warm-up
 * re-simulation bit-identically.
 */

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "sim/config_cli.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"

using namespace dasdram;

namespace
{

void
printSummary(const WorkloadSpec &w, const ExperimentResult &r,
             bool with_baseline, const DramGeometry &geom)
{
    const RunMetrics &m = r.metrics;
    std::printf("workload  : %s\n", w.name.c_str());
    std::printf("design    : %s\n", toString(r.design).c_str());
    for (std::size_t i = 0; i < m.ipc.size(); ++i) {
        std::printf("ipc[%zu]    : %.4f  (%s)\n", i, m.ipc[i],
                    w.parts[i].label().c_str());
    }
    if (with_baseline)
        std::printf("speedup   : %+.2f%% vs standard DRAM\n",
                    100.0 * r.perfImprovement);
    std::printf("mpki      : %.2f\n", m.mpki());
    std::printf("ppkm      : %.2f\n", m.ppkm());
    std::printf("footprint : %.1f MiB\n",
                m.footprintMiB(geom.rowBytes));
    std::uint64_t total = m.locations.total();
    if (total) {
        auto pc = [total](std::uint64_t v) {
            return 100.0 * static_cast<double>(v) /
                   static_cast<double>(total);
        };
        std::printf("locations : row-buffer %.1f%% fast %.1f%% "
                    "slow %.1f%%\n",
                    pc(m.locations.rowBuffer), pc(m.locations.fastLevel),
                    pc(m.locations.slowLevel));
    }
    std::printf("promotions: %llu\n",
                static_cast<unsigned long long>(m.promotions));
    std::printf("energy/acc: %.2f nJ\n", r.energyPerAccessNj);
}

void
printCsv(const WorkloadSpec &w, const ExperimentResult &r,
         const DramGeometry &geom)
{
    const RunMetrics &m = r.metrics;
    double mean_ipc = 0;
    for (double v : m.ipc)
        mean_ipc += v;
    mean_ipc /= static_cast<double>(m.ipc.size());
    std::printf("%s,%s,%.6f,%.6f,%.3f,%.3f,%.1f,%llu,%.3f\n",
                w.name.c_str(), toString(r.design).c_str(), mean_ipc,
                r.perfImprovement, m.mpki(), m.ppkm(),
                m.footprintMiB(geom.rowBytes),
                static_cast<unsigned long long>(m.promotions),
                r.energyPerAccessNj);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("dasdram_run",
                  "run one workload on one DRAM design (see the header "
                  "of tools/dasdram_run.cc)");
    cli.option("--workload", "SPEC",
               "workload spec: name|M1..M8|b1,b2,..|spec:..|file:..|"
               "mix:.. (default mcf)")
        .option("--design", "D",
                "standard|sas|charm|das|das-fm|fs (default das)")
        .optionUInt("--instructions", "N",
                    "instructions per core (default 4000000)")
        .optionUInt("--seed", "N", "workload seed (default 42)")
        .optionUInt("--jobs", "N",
                    "worker threads (default: DAS_JOBS env, else "
                    "hardware)")
        .option("--json", "FILE", "JSONL export of every point that ran")
        .toggle("--check", "online DRAM protocol checker (default on)")
        .option("--trace-cmds", "FILE",
                "write every issued DRAM command as text (direct rerun)")
        .option("--trace-out", "FILE",
                "Chrome trace_event JSON timeline (direct rerun)")
        .option("--stats-out", "FILE",
                "schema-versioned stats JSONL dump (direct rerun)")
        .option("--record", "PREFIX",
                "capture each core's trace to PREFIX.core<i>.dastrace "
                "(direct rerun)")
        .optionDouble("--trace-requests", "RATE",
                      "sample RATE of memory requests with lifecycle "
                      "spans, 0..1 (direct rerun)")
        .option("--spans-out", "FILE",
                "request-span JSONL export; needs --trace-requests "
                "(direct rerun)")
        .optionUInt("--epoch", "N",
                    "stats time-series epoch in memory cycles (0 = off)")
        .flag("--baseline",
              "also run standard DRAM and report the improvement")
        .flag("--stats", "dump the full stats tree (direct rerun)")
        .flag("--csv", "one CSV row to stdout")
        .option("--checkpoint-out", "CYCLE:PATH",
                "save a snapshot at tick CYCLE (or 'warmup:PATH' for "
                "right after the warm-up reset); repeatable; runs the "
                "point directly")
        .option("--restore", "PATH",
                "resume from a snapshot saved by --checkpoint-out; "
                "runs the point directly")
        .option("--warm-dir", "DIR",
                "warm-start checkpoint directory shared by sweep "
                "points (see the header of tools/dasdram_run.cc)")
        .option("--set", "key=value",
                "config override, repeatable; keys are --dump-config "
                "paths (e.g. das.promotionThreshold=4, "
                "das.replacement=random, warmupFraction=0.2) and "
                "unknown keys are fatal");
    addConfigOptions(cli);
    cli.parse(argc, argv);

    SimConfig cfg;
    cfg.instructionsPerCore = 4'000'000;
    loadConfigFile(cli, cfg);
    if (cli.given("--workload"))
        cfg.workload = cli.str("--workload");
    if (cli.given("--design"))
        cfg.design = parseDesign(cli.str("--design"));
    if (cli.given("--instructions"))
        cfg.instructionsPerCore = cli.uns("--instructions", 0);
    if (cli.given("--seed"))
        cfg.seed = cli.uns("--seed", 0);
    if (cli.given("--epoch"))
        cfg.obs.epochMemCycles = cli.uns("--epoch", 0);
    cfg.protocolCheck = cli.enabled("--check", cfg.protocolCheck);

    unsigned jobs = static_cast<unsigned>(cli.uns("--jobs", 0));
    if (cli.given("--jobs") && jobs == 0)
        fatal("--jobs needs a positive integer");

    applySimScale(cfg);
    for (const std::string &kv : cli.strs("--set"))
        applyConfigAssignment(cfg, kv);

    if (dumpConfigIfRequested(cli, cfg))
        return 0;

    WorkloadSpec w = WorkloadSpec::parse(cfg.workload);
    DesignKind kind = cfg.design;
    bool with_baseline = cli.given("--baseline");
    bool csv = cli.given("--csv");

    // The snapshot flags run the point directly: a restore exists to
    // skip re-simulation, so the summary pass through the sweep engine
    // (and everything computed from it) does not apply.
    std::vector<std::string> checkpoint_specs =
        cli.strs("--checkpoint-out");
    std::string restore_path = cli.str("--restore");
    bool direct_only = !checkpoint_specs.empty() || !restore_path.empty();
    if (direct_only && (with_baseline || csv || cli.given("--json")))
        fatal("--checkpoint-out/--restore run the point directly; "
              "--baseline, --csv and --json do not apply");

    std::string trace_path = cli.str("--trace-cmds");
    std::string trace_out = cli.str("--trace-out");
    std::string stats_out = cli.str("--stats-out");
    std::string record_prefix = cli.str("--record");
    double trace_requests = cli.dbl("--trace-requests", 0.0);
    std::string spans_out = cli.str("--spans-out");
    if (!spans_out.empty() && trace_requests <= 0.0)
        fatal("--spans-out requires --trace-requests > 0");
    if (trace_requests < 0.0 || trace_requests > 1.0)
        fatal("--trace-requests must be in [0, 1], got {}",
              trace_requests);
    if (direct_only && !record_prefix.empty())
        fatal("--record cannot be combined with --checkpoint-out/"
              "--restore (recorder file positions are not part of a "
              "snapshot)");

    if (!direct_only) {
        // Every run goes through the sweep engine; with --baseline the
        // standard point and the design point are two grid points, so
        // --jobs 2 runs them concurrently.
        SweepRunner sweep(cfg, jobs);
        if (cli.given("--warm-dir"))
            sweep.setWarmStartDir(cli.str("--warm-dir"));
        std::size_t result_index = 0;
        if (with_baseline || csv) {
            sweep.add(w, DesignKind::Standard);
            result_index = sweep.add(w, kind);
        } else {
            // Raw metrics only: skip the baseline simulation entirely.
            result_index = sweep.add(
                SweepPoint{w, kind, {}, {}, /*needBaseline=*/false});
        }
        std::vector<ExperimentResult> results = sweep.run();
        const ExperimentResult &r = results[result_index];

        if (cli.given("--json")) {
            std::ofstream os(cli.str("--json"));
            if (!os)
                fatal("cannot open '{}' for writing", cli.str("--json"));
            writeJsonLines(os, results);
        }

        if (csv) {
            printCsv(w, r, cfg.geom);
        } else {
            printSummary(w, r, with_baseline || csv, cfg.geom);
        }
    }

    if (cli.given("--stats") || !trace_path.empty() ||
        !trace_out.empty() || !stats_out.empty() ||
        !record_prefix.empty() || trace_requests > 0.0 || direct_only) {
        // Re-run with direct System access for the stats tree, the
        // command trace, the observability exports and/or the trace
        // recording. prepareRun is the sweep point's own setup (static
        // profile included) and the seed is the sweep point's, so the
        // dumps match the summary.
        SimConfig scfg = cfg;
        scfg.design = kind;
        scfg.seed = SweepRunner::pointSeed(cfg.seed, w.name, kind);
        scfg.obs.statsOut = stats_out;
        scfg.obs.traceOut = trace_out;
        scfg.obs.traceRequests = trace_requests;
        scfg.obs.spansOut = spans_out;
        PreparedRun run =
            prepareRun(w, scfg, record_prefix, restore_path);
        System &sys = *run.system;
        std::ofstream trace_os;
        if (!trace_path.empty()) {
            trace_os.open(trace_path);
            if (!trace_os)
                fatal("cannot open '{}' for writing", trace_path);
            sys.attachCommandTrace(trace_os);
        }
        for (const std::string &spec : checkpoint_specs) {
            std::size_t colon = spec.find(':');
            if (colon == std::string::npos || colon + 1 == spec.size())
                fatal("--checkpoint-out needs CYCLE:PATH or "
                      "warmup:PATH, got '{}'",
                      spec);
            std::string when = spec.substr(0, colon);
            std::string path = spec.substr(colon + 1);
            if (when == "warmup") {
                sys.checkpointAtWarmup(path);
            } else {
                // strtoull accepts a sign and leading blanks ("-5"
                // wraps to a huge tick): digits only, in range.
                char *end = nullptr;
                errno = 0;
                unsigned long long tick =
                    std::strtoull(when.c_str(), &end, 10);
                if (!std::isdigit(static_cast<unsigned char>(when[0])) ||
                    *end != '\0' || errno == ERANGE)
                    fatal("bad --checkpoint-out cycle '{}'", when);
                sys.scheduleCheckpoint(tick, path);
            }
        }
        sys.run();
        for (auto &rec : run.recorders) {
            rec->close();
            inform("recorded {} trace record(s)", rec->recorded());
        }
        if (const RequestTracer *t = sys.requestTracer()) {
            inform("request tracing: sampled {} of {} requests "
                   "(rate {})",
                   t->sampled(), t->decisions(), t->rate());
        }
        if (cli.given("--stats"))
            sys.dumpStats(std::cout);
    }
    return 0;
}
