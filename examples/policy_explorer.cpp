/**
 * @file
 * Policy explorer: sweep the management knobs the paper studies —
 * promotion threshold, victim replacement policy, fast-level ratio and
 * migration group size — on one benchmark, printing a compact report.
 * A miniature of the Figure 8/9 sensitivity studies for interactive
 * use.
 *
 * Usage: policy_explorer [benchmark] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strfmt.hh"
#include "sim/sweep.hh"

using namespace dasdram;

namespace
{

void
report(const ExperimentResult &r)
{
    const RunMetrics &m = r.metrics;
    double slow_share =
        m.locations.total()
            ? 100.0 * static_cast<double>(m.locations.slowLevel) /
                  static_cast<double>(m.locations.total())
            : 0.0;
    std::printf("  %-22s %+7.2f%%   %8.2f   %6.2f%%\n", r.label.c_str(),
                100.0 * r.perfImprovement, m.ppkm(), slow_share);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "omnetpp";
    SimConfig cfg;
    cfg.instructionsPerCore =
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 1'000'000;
    applySimScale(cfg);

    WorkloadSpec w = WorkloadSpec::single(bench);

    // One DAS point per knob setting, each a labelled override of the
    // base configuration; every point is compared with the one
    // standard-DRAM baseline of the workload.
    SweepRunner sweep(cfg);
    std::vector<std::pair<std::size_t, const char *>> sections;
    auto section = [&](const char *title) {
        sections.emplace_back(sweep.size(), title);
    };
    auto point = [&](std::string label, ConfigOverride override) {
        sweep.add(w, DesignKind::Das, std::move(override),
                  std::move(label));
    };

    section("promotion threshold (Figure 8):");
    for (unsigned th : {1u, 2u, 4u, 8u}) {
        point(formatStr("threshold {}", th),
              [th](SimConfig &c) { c.das.promotion.threshold = th; });
    }
    section("victim replacement (Section 7.6):");
    for (FastReplPolicy p :
         {FastReplPolicy::Lru, FastReplPolicy::Random,
          FastReplPolicy::Sequential, FastReplPolicy::PseudoRandom}) {
        point(toString(p), [p](SimConfig &c) { c.das.replacement = p; });
    }
    section("fast-level ratio (Figure 9c/d):");
    for (unsigned denom : {32u, 16u, 8u, 4u}) {
        point(formatStr("ratio 1/{}", denom), [denom](SimConfig &c) {
            c.layout.fastRatioDenom = denom;
        });
    }
    section("migration group size (Figure 9b):");
    for (unsigned g : {8u, 16u, 32u, 64u}) {
        point(formatStr("{}-row groups", g),
              [g](SimConfig &c) { c.layout.groupSize = g; });
    }
    std::vector<ExperimentResult> results = sweep.run();

    std::printf("Policy exploration on '%s'\n", bench.c_str());
    std::printf("  %-22s %-9s  %-8s  %s\n", "configuration", "speedup",
                "PPKM", "slow-share");
    std::size_t next_section = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (next_section < sections.size() &&
            sections[next_section].first == i)
            std::printf("%s\n", sections[next_section++].second);
        report(results[i]);
    }
    return 0;
}
