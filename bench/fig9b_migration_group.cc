/**
 * @file
 * Reproduces Figure 9b: sensitivity to the migration-group size
 * (8/16/32/64 rows). Smaller groups need fewer mapping bits but risk
 * contention; the paper finds the effect subtle (Section 7.5).
 *
 * Parallelise with --jobs N (or DAS_JOBS); export with --json FILE.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace dasdram;

int
main(int argc, char **argv)
{
    benchutil::BenchOptions opts = benchutil::parseBenchArgs(argc, argv);
    SimConfig base = benchutil::defaultConfig(opts);
    const unsigned kGroups[] = {8, 16, 32, 64};

    const std::vector<std::string> &benches = specBenchmarks();

    SweepRunner sweep(base, opts.jobs);
    benchutil::configureSweep(sweep, opts);
    for (const std::string &bench : benches) {
        for (unsigned g : kGroups) {
            sweep.add(WorkloadSpec::single(bench), DesignKind::Das,
                      [g](SimConfig &c) { c.layout.groupSize = g; },
                      std::to_string(g) + "-row");
        }
    }
    std::vector<ExperimentResult> results = sweep.run();
    benchutil::exportResults(opts, results);

    benchutil::Table perf(
        "Figure 9b: performance improvement (%) by migration group "
        "size");

    std::vector<std::vector<double>> imp(4);
    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::vector<std::string> row{benches[b]};
        for (std::size_t i = 0; i < 4; ++i) {
            const ExperimentResult &r = results[b * 4 + i];
            imp[i].push_back(r.perfImprovement);
            row.push_back(benchutil::pct(r.perfImprovement));
        }
        perf.row(row);
    }
    std::vector<std::string> gmean_row{"gmean"};
    for (std::size_t i = 0; i < 4; ++i)
        gmean_row.push_back(benchutil::pct(gmeanImprovement(imp[i])));
    perf.row(gmean_row);

    perf.print({"benchmark", "8-row", "16-row", "32-row", "64-row"});
    std::printf("\nPaper reference: the effect of the migration group "
                "size is subtle (Section 7.5); DAS-DRAM uses 32 rows so "
                "each table entry fits in one byte.\n");
    return 0;
}
