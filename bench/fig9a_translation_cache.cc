/**
 * @file
 * Reproduces Figure 9a: sensitivity to the translation-cache capacity
 * (32/64/128/256 KB). Expected: 128 KB achieves good performance
 * (it covers the fast level's translation entries); smaller caches
 * lose some, larger ones add little.
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
    const std::uint64_t kCapacities[] = {32 * KiB, 64 * KiB, 128 * KiB,
                                         256 * KiB};
    const char *kLabels[] = {"32KB", "64KB", "128KB", "256KB"};

    const std::vector<std::string> &benches = specBenchmarks();

    SweepRunner sweep(base, opts.jobs);
    benchutil::configureSweep(sweep, opts);
    for (const std::string &bench : benches) {
        for (std::size_t i = 0; i < 4; ++i) {
            std::uint64_t cap = kCapacities[i];
            sweep.add(WorkloadSpec::single(bench), DesignKind::Das,
                      [cap](SimConfig &c) {
                          c.das.translationCacheBytes = cap;
                      },
                      kLabels[i]);
        }
    }
    std::vector<ExperimentResult> results = sweep.run();
    benchutil::exportResults(opts, results);

    benchutil::Table perf(
        "Figure 9a: performance improvement (%) by translation-cache "
        "capacity");

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

    perf.print({"benchmark", "32KB", "64KB", "128KB", "256KB"});
    std::printf("\nPaper reference: a 128 KB on-chip translation cache "
                "achieves good performance; its lookup overlaps the LLC "
                "so hits are free (Section 7.4).\n");
    return 0;
}
