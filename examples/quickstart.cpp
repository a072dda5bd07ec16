/**
 * @file
 * Quickstart: simulate one SPEC-like workload on standard DRAM and on
 * DAS-DRAM, and print the headline comparison. Start here.
 *
 * Usage: quickstart [benchmark] [design]
 *   benchmark: one of the Table 2 names (default: mcf)
 *   design:    standard | sas | charm | das | das-fm | fs (default: das)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/sweep.hh"

using namespace dasdram;

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "mcf";
    std::string design_name = argc > 2 ? argv[2] : "das";

    SimConfig cfg;
    cfg.instructionsPerCore = 2'000'000;
    applySimScale(cfg);

    WorkloadSpec workload = WorkloadSpec::single(bench);
    DesignKind design = parseDesign(design_name);

    std::printf("Simulating '%s' (%llu instructions per core)...\n",
                bench.c_str(),
                static_cast<unsigned long long>(cfg.instructionsPerCore));

    // Two points of one sweep: the standard-DRAM baseline and the
    // chosen design (its improvement is computed against the former).
    SweepRunner sweep(cfg);
    std::size_t std_idx = sweep.add(workload, DesignKind::Standard);
    std::size_t idx = sweep.add(workload, design);
    std::vector<ExperimentResult> results = sweep.run();
    const ExperimentResult &std_res = results[std_idx];
    const ExperimentResult &res = results[idx];

    const RunMetrics &m = res.metrics;
    std::uint64_t total = m.locations.total();
    auto pct = [total](std::uint64_t v) {
        return total ? 100.0 * static_cast<double>(v) /
                           static_cast<double>(total)
                     : 0.0;
    };

    std::printf("\n=== %s vs Standard DRAM ===\n",
                toString(design).c_str());
    std::printf("IPC (standard)        : %.4f\n",
                std_res.metrics.ipc[0]);
    std::printf("IPC (%-14s): %.4f\n", toString(design).c_str(),
                m.ipc[0]);
    std::printf("Performance improvement: %+.2f%%\n",
                100.0 * res.perfImprovement);
    std::printf("MPKI                  : %.2f\n", m.mpki());
    std::printf("PPKM                  : %.2f\n", m.ppkm());
    std::printf("Footprint             : %.1f MiB\n",
                m.footprintMiB(8192));
    std::printf("Access locations      : row-buffer %.1f%%, fast %.1f%%, "
                "slow %.1f%%\n",
                pct(m.locations.rowBuffer), pct(m.locations.fastLevel),
                pct(m.locations.slowLevel));
    std::printf("Promotions            : %llu\n",
                static_cast<unsigned long long>(m.promotions));
    std::printf("Energy per access     : %.2f nJ (standard: %.2f nJ)\n",
                res.energyPerAccessNj, std_res.energyPerAccessNj);
    return 0;
}
