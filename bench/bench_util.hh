/**
 * @file
 * Shared helpers for the benchmark harness binaries: the common Table 1
 * configuration, command-line handling (--jobs / --json), simple
 * aligned-table printing and number formatting.
 */

#ifndef DASDRAM_BENCH_BENCH_UTIL_HH
#define DASDRAM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

namespace dasdram
{
namespace benchutil
{

/** Default bench configuration: Table 1 system, scaled instruction
 *  budget (override with DAS_SIM_SCALE). */
inline SimConfig
defaultConfig()
{
    SimConfig cfg;
    cfg.instructionsPerCore = 16'000'000;
    applySimScale(cfg);
    return cfg;
}

struct BenchOptions;

/** defaultConfig() with the parsed command-line options applied. */
SimConfig defaultConfig(const BenchOptions &opts);

/** Options every figure binary accepts. */
struct BenchOptions
{
    unsigned jobs = 0;    ///< 0 = auto (DAS_JOBS env, else hardware)
    std::string jsonPath; ///< when non-empty, export results as JSONL
    /** When non-empty, every sweep point writes its stats-JSONL dump
     *  (histograms, percentiles, epoch series) into this existing
     *  directory — one point<idx>_... file per point; compare them
     *  with dasdram_report. */
    std::string statsDir;
    /** Epoch length of the stats time-series in memory cycles
     *  (0 = no series); only meaningful with --stats-dir. */
    Cycle epochMemCycles = 0;
    /** When non-empty, fork every sweep point from the shared warmed
     *  checkpoint of its config fingerprint in this directory
     *  (created on demand): the first run of a fingerprint publishes
     *  `warm_<fp>.ckpt`, later runs restore it and skip warm-up
     *  re-simulation bit-identically (see DESIGN.md §12). */
    std::string warmDir;
};

/** Parse the shared bench options (--jobs/-j, --json, --stats-dir,
 *  --epoch, --warm-dir); fatal on unknown arguments, prints generated
 *  usage on --help. */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    CliParser cli(argv[0] && argv[0][0] ? argv[0] : "bench",
                  "figure sweep (shared bench harness options)");
    cli.optionUInt("--jobs", "N",
                   "worker threads (default: DAS_JOBS env, else "
                   "hardware)", "-j")
        .option("--json", "FILE", "export all sweep points as JSON lines")
        .option("--stats-dir", "DIR",
                "per-point stats-JSONL dumps (histograms, percentiles) "
                "into DIR")
        .optionUInt("--epoch", "N",
                    "stats time-series epoch in memory cycles (0 = off)")
        .option("--warm-dir", "DIR",
                "fork every point from the shared warmed checkpoint in "
                "DIR; re-running against the same DIR skips warm-up");
    cli.parse(argc, argv);

    BenchOptions opts;
    opts.jobs = static_cast<unsigned>(cli.uns("--jobs", 0));
    if (cli.given("--jobs") && opts.jobs == 0)
        fatal("--jobs needs a positive integer");
    opts.jsonPath = cli.str("--json");
    if (!opts.jsonPath.empty()) {
        // Fail on an unwritable path now, not after an hour-long
        // sweep has already run.
        std::ofstream probe(opts.jsonPath);
        if (!probe)
            fatal("cannot open '{}' for writing", opts.jsonPath);
    }
    opts.statsDir = cli.str("--stats-dir");
    opts.epochMemCycles = cli.uns("--epoch", 0);
    opts.warmDir = cli.str("--warm-dir");
    return opts;
}

/** Apply the sweep-level bench options (today: --warm-dir) to a
 *  freshly constructed SweepRunner. Call before sweep.run(). */
inline void
configureSweep(SweepRunner &sweep, const BenchOptions &opts)
{
    if (!opts.warmDir.empty())
        sweep.setWarmStartDir(opts.warmDir);
}

inline SimConfig
defaultConfig(const BenchOptions &opts)
{
    SimConfig cfg = defaultConfig();
    cfg.obs.statsDir = opts.statsDir;
    cfg.obs.epochMemCycles = opts.epochMemCycles;
    return cfg;
}

/** Export @p results as JSON lines when --json was given. */
inline void
exportResults(const BenchOptions &opts,
              const std::vector<ExperimentResult> &results)
{
    if (opts.jsonPath.empty())
        return;
    std::ofstream os(opts.jsonPath);
    if (!os)
        fatal("cannot open '{}' for writing", opts.jsonPath);
    writeJsonLines(os, results);
    inform("wrote {} sweep results to {}", results.size(),
           opts.jsonPath);
}

inline std::string
num(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

inline std::string
pct(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.2f", 100.0 * v);
    return buf;
}

/** Minimal aligned-column table printer. */
class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    void row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print(const std::vector<std::string> &header) const
    {
        std::vector<std::size_t> width(header.size());
        for (std::size_t c = 0; c < header.size(); ++c)
            width[c] = header[c].size();
        for (const auto &r : rows_)
            for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], r[c].size());

        std::printf("\n== %s ==\n", title_.c_str());
        auto print_row = [&](const std::vector<std::string> &r) {
            for (std::size_t c = 0; c < r.size() && c < width.size();
                 ++c) {
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            r[c].c_str());
            }
            std::printf("\n");
        };
        print_row(header);
        for (const auto &r : rows_)
            print_row(r);
    }

  private:
    std::string title_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace benchutil
} // namespace dasdram

#endif // DASDRAM_BENCH_BENCH_UTIL_HH
