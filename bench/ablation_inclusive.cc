/**
 * @file
 * Ablation (Section 5's design discussion): exclusive-cache management
 * (the paper's choice) vs. the inclusive alternative. Inclusive
 * promotions with clean victims need one migration (1.5 tRC) instead
 * of a swap (3 tRC), but write-heavy workloads pay victim write-backs,
 * and the real design also loses 1/8 of capacity to duplication (not
 * visible in a timing model — noted in the caption).
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

    const std::vector<std::string> &benches = specBenchmarks();

    SweepRunner sweep(base, opts.jobs);
    benchutil::configureSweep(sweep, opts);
    for (const std::string &bench : benches) {
        sweep.add(WorkloadSpec::single(bench), DesignKind::Das,
                  [](SimConfig &c) { c.das.exclusiveCache = true; },
                  "exclusive");
        sweep.add(WorkloadSpec::single(bench), DesignKind::Das,
                  [](SimConfig &c) { c.das.exclusiveCache = false; },
                  "inclusive");
    }
    std::vector<ExperimentResult> results = sweep.run();
    benchutil::exportResults(opts, results);

    benchutil::Table perf("Ablation: exclusive vs inclusive fast-level "
                          "management (performance improvement %)");

    std::vector<double> excl_imp, incl_imp;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const ExperimentResult &excl = results[b * 2];
        const ExperimentResult &incl = results[b * 2 + 1];
        excl_imp.push_back(excl.perfImprovement);
        incl_imp.push_back(incl.perfImprovement);
        perf.row({benches[b], benchutil::pct(excl.perfImprovement),
                  benchutil::pct(incl.perfImprovement),
                  benchutil::num(excl.metrics.ppkm(), 1),
                  benchutil::num(incl.metrics.ppkm(), 1)});
    }

    perf.row({"gmean",
              benchutil::pct(gmeanImprovement(excl_imp)),
              benchutil::pct(gmeanImprovement(incl_imp)),
              "", ""});
    perf.print({"benchmark", "exclusive", "inclusive", "PPKM(ex)",
                "PPKM(in)"});

    std::printf("\nThe paper adopts the exclusive scheme: comparable "
                "performance without duplicating 1/8 of capacity "
                "(the capacity loss itself is outside a timing "
                "model's scope).\n");
    return 0;
}
