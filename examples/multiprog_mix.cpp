/**
 * @file
 * Multi-programming example: run one of the Table 2 mixes (M1-M8) on
 * every DRAM design and report per-core IPCs and weighted speedup —
 * the experiment behind Figure 7d.
 *
 * Usage: multiprog_mix [mix-index 1..8] [instructions-per-core]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/log.hh"
#include "sim/sweep.hh"

using namespace dasdram;

int
main(int argc, char **argv)
{
    std::size_t mix_idx = argc > 1 ? std::strtoul(argv[1], nullptr, 10)
                                   : 3; // M3 by default
    if (mix_idx < 1 || mix_idx > 8)
        fatal("mix index must be 1..8");

    SimConfig cfg;
    cfg.instructionsPerCore = argc > 2
                                  ? std::strtoull(argv[2], nullptr, 0)
                                  : 1'000'000;
    applySimScale(cfg);

    WorkloadSpec w = WorkloadSpec::mix(mix_idx - 1);
    std::printf("Mix %s:", w.name.c_str());
    for (const auto &p : w.parts)
        std::printf(" %s", p.label().c_str());
    std::printf("  (%llu instructions per core)\n\n",
                static_cast<unsigned long long>(cfg.instructionsPerCore));

    SweepRunner sweep(cfg);
    std::size_t das_idx = 0;
    for (DesignKind d : allDesigns()) {
        std::size_t i = sweep.add(w, d);
        if (d == DesignKind::Das)
            das_idx = i;
    }
    std::vector<ExperimentResult> results = sweep.run();

    std::printf("%-14s %-10s  per-core IPC\n", "design", "speedup");
    for (const ExperimentResult &r : results) {
        std::printf("%-14s %+8.2f%%  [", toString(r.design).c_str(),
                    100.0 * r.perfImprovement);
        for (std::size_t i = 0; i < r.metrics.ipc.size(); ++i)
            std::printf("%s%.3f", i ? ", " : "", r.metrics.ipc[i]);
        std::printf("]\n");
    }

    const ExperimentResult &das = results[das_idx];
    const RunMetrics &m = das.metrics;
    std::printf("\nDAS-DRAM behaviour: MPKI %.2f, PPKM %.2f, "
                "footprint %.1f MiB, promotions %llu\n",
                m.mpki(), m.ppkm(), m.footprintMiB(8192),
                static_cast<unsigned long long>(m.promotions));
    return 0;
}
