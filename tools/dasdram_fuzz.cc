/**
 * @file
 * Deterministic DRAM protocol fuzzer. Drives the standard fuzz grid
 * (designs × controller corners) of randomized synthetic traffic
 * through the controller with the online ProtocolChecker attached.
 *
 * Every case's RNG stream derives from (--seed, case name, design);
 * a failing case replays from the one-line command printed with it.
 *
 *   dasdram_fuzz                       # whole grid, base seed 42
 *   dasdram_fuzz --seed 7 --requests 5000
 *   dasdram_fuzz --filter das/tiny-queues
 *   dasdram_fuzz --trace-cmds cmds.txt --filter das/base
 *   dasdram_fuzz --trace-out t.json --filter das/migrate-heavy
 *   dasdram_fuzz --differential        # cross span sampling off/on
 *   dasdram_fuzz --differential --checkpoint-cycle 3000
 *                                      # also cross a mid-run snapshot
 *                                      # round trip vs straight runs
 *   dasdram_fuzz --workload spec:mcf   # trace-driven addresses
 *   dasdram_fuzz --workload file:t.trace --filter das/base
 *
 * --trace-cmds appends every issued command of every matching case as
 * text; --trace-out writes a Chrome trace_event JSON timeline of the
 * FIRST matching case only (each case has its own geometry, and a
 * Chrome trace is a single timeline) — narrow with --filter to pick
 * the case. Both may be given at once.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "common/cli.hh"
#include "common/log.hh"
#include "dram/trace_json.hh"
#include "sim/config_cli.hh"
#include "sim/fuzz.hh"

using namespace dasdram;

int
main(int argc, char **argv)
{
    CliParser cli("dasdram_fuzz",
                  "deterministic DRAM protocol fuzzer over the designs "
                  "x controller-corners grid");
    cli.optionUInt("--seed", "N",
                   "base seed the per-case seeds derive from "
                   "(default 42)")
        .optionUInt("--requests", "N",
                    "demand requests per case (default 2000)")
        .option("--filter", "STR",
                "only run cases whose name contains STR")
        .option("--workload", "SPEC",
                "drive addresses from a workload spec (synthetic "
                "profile or file: trace) instead of the row picker")
        .option("--trace-cmds", "FILE",
                "also write every issued command to FILE")
        .option("--trace-out", "FILE",
                "Chrome trace_event JSON timeline of the first matching "
                "case (use --filter to pick it)")
        .optionDouble("--trace-requests", "RATE",
                      "request-span sampling rate in [0,1]; plain runs "
                      "attach a counting span sink, --differential "
                      "crosses RATE (default 1) against sampling off")
        .optionUInt("--checkpoint-cycle", "N",
                    "serialize/destroy/restore the DRAM system and "
                    "checker at memory cycle N mid-run; with "
                    "--differential, crosses checkpointed runs against "
                    "straight ones and fails on any divergence")
        .flag("--differential",
              "cross every matching case's sampled (and, with "
              "--checkpoint-cycle, checkpointed) runs against its "
              "straight run and fail on any divergence")
        .flag("--list",
              "print case names and per-case seeds, then exit")
        .flag("--quiet",
              "only report failures and the final summary");
    addConfigOptions(cli);
    cli.parse(argc, argv);

    // The uniform --config protocol: a configuration file supplies the
    // defaults the simulation-shaped flags fall back to (the fuzz grid
    // keeps its own per-case geometry and timing).
    SimConfig cfg;
    cfg.seed = 42;
    cfg.workload.clear();
    loadConfigFile(cli, cfg);

    std::uint64_t base_seed =
        cli.given("--seed") ? cli.uns("--seed", 42) : cfg.seed;
    auto requests = static_cast<unsigned>(cli.uns("--requests", 2000));
    if (requests == 0)
        fatal("--requests needs a positive integer");
    std::string filter = cli.str("--filter");
    std::string workload =
        cli.given("--workload") ? cli.str("--workload") : cfg.workload;
    std::string trace_path = cli.str("--trace-cmds");
    std::string chrome_path = cli.str("--trace-out");
    bool differential = cli.given("--differential");
    bool list_only = cli.given("--list");
    bool quiet = cli.given("--quiet");
    double trace_requests = cli.given("--trace-requests")
                                ? cli.dbl("--trace-requests", 0.0)
                                : cfg.obs.traceRequests;

    cfg.seed = base_seed;
    cfg.workload = workload;
    cfg.obs.traceRequests = trace_requests;
    if (dumpConfigIfRequested(cli, cfg))
        return 0;
    if (trace_requests < 0.0 || trace_requests > 1.0)
        fatal("--trace-requests needs a rate in [0, 1], got {}",
              trace_requests);

    std::ofstream trace_os;
    std::unique_ptr<CommandTrace> trace;
    if (!trace_path.empty()) {
        trace_os.open(trace_path);
        if (!trace_os)
            fatal("cannot open '{}' for writing", trace_path);
        trace = std::make_unique<CommandTrace>(trace_os);
    }

    unsigned ran = 0, failed = 0;
    for (FuzzCase &c : defaultFuzzCases(base_seed, requests)) {
        if (!filter.empty() && c.name.find(filter) == std::string::npos)
            continue;
        if (list_only) {
            std::printf("%-24s seed=%llu\n", c.name.c_str(),
                        static_cast<unsigned long long>(c.seed));
            continue;
        }
        c.workload = workload;
        c.traceRequests = trace_requests;
        c.checkpointAtCycle = cli.uns("--checkpoint-cycle", 0);
        std::string replay_wl =
            workload.empty() ? "" : " --workload '" + workload + "'";
        if (differential) {
            FuzzDifferential d = runFuzzDifferential(c);
            ++ran;
            if (d.ok()) {
                if (!quiet) {
                    std::printf("ok   %-24s seed=%llu commands=%llu "
                                "(crossings identical)\n",
                                c.name.c_str(),
                                static_cast<unsigned long long>(c.seed),
                                static_cast<unsigned long long>(
                                    d.reference.commands));
                }
                continue;
            }
            ++failed;
            std::printf("FAIL %-24s seed=%llu%s\n", c.name.c_str(),
                        static_cast<unsigned long long>(c.seed),
                        d.identical ? " (crossings agree, reference fails)"
                                    : " (crossings diverge)");
            if (!d.detail.empty())
                std::printf("     diff: %s\n", d.detail.c_str());
            if (!d.reference.firstViolation.empty())
                std::printf("     first violation: %s\n",
                            d.reference.firstViolation.c_str());
            std::printf("     replay: %s --seed %llu --requests %u "
                        "--differential --filter '%s'%s\n",
                        argv[0],
                        static_cast<unsigned long long>(base_seed),
                        requests, c.name.c_str(), replay_wl.c_str());
            continue;
        }
        if (trace)
            trace_os << "# case " << c.name << " seed=" << c.seed
                     << '\n';
        const DesignSpec &spec = designSpec(c.design);
        DramTiming t = ddr3_1600Timing(spec.charmColumnOpt);
        FuzzReport rep;
        if (!chrome_path.empty()) {
            // Chrome timeline of this (first matching) case only: the
            // writer is per-geometry, so later cases fall back to the
            // text trace alone.
            std::ofstream chrome_os(chrome_path);
            if (!chrome_os)
                fatal("cannot open '{}' for writing", chrome_path);
            ChromeTraceWriter chrome(chrome_os, c.geom, t);
            CommandFanout fan;
            fan.addSink(trace.get());
            fan.addSink(&chrome);
            rep = runProtocolFuzz(c, t, t, &fan);
            chrome.finish();
            chrome_path.clear();
        } else {
            rep = runProtocolFuzz(c, t, t, trace.get());
        }
        ++ran;
        if (rep.ok()) {
            if (!quiet) {
                std::printf("ok   %-24s seed=%llu commands=%llu "
                            "migrations=%llu",
                            rep.name.c_str(),
                            static_cast<unsigned long long>(rep.seed),
                            static_cast<unsigned long long>(
                                rep.commands),
                            static_cast<unsigned long long>(
                                rep.migrationsDone));
                if (trace_requests > 0.0) {
                    std::printf(" spans=%llu",
                                static_cast<unsigned long long>(
                                    rep.spansEmitted));
                }
                std::printf("\n");
            }
            continue;
        }
        ++failed;
        std::printf("FAIL %-24s seed=%llu commands=%llu "
                    "violations=%llu drained=%d\n",
                    rep.name.c_str(),
                    static_cast<unsigned long long>(rep.seed),
                    static_cast<unsigned long long>(rep.commands),
                    static_cast<unsigned long long>(rep.violations),
                    rep.drained ? 1 : 0);
        if (!rep.firstViolation.empty())
            std::printf("     first: %s\n", rep.firstViolation.c_str());
        std::printf("     replay: %s --seed %llu --requests %u "
                    "--filter '%s'%s\n",
                    argv[0],
                    static_cast<unsigned long long>(base_seed),
                    requests, rep.name.c_str(), replay_wl.c_str());
    }

    if (list_only)
        return 0;
    if (ran == 0)
        fatal("no fuzz case matches filter '{}'", filter);
    std::printf("%u case(s), %u failure(s)\n", ran, failed);
    return failed == 0 ? 0 : 1;
}
