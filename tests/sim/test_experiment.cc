/**
 * @file
 * Tests for the experiment layer: workload construction, point setup
 * (prepareRun) and improvement arithmetic.
 */

#include <gtest/gtest.h>

#include "metrics_equal.hh"
#include "sim/sweep.hh"

using namespace dasdram;

namespace
{

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.instructionsPerCore = 120'000;
    return cfg;
}

} // namespace

TEST(WorkloadSpec, SingleAndMix)
{
    WorkloadSpec s = WorkloadSpec::single("mcf");
    EXPECT_EQ(s.name, "mcf");
    ASSERT_EQ(s.parts.size(), 1u);
    WorkloadSpec m = WorkloadSpec::mix(0);
    EXPECT_EQ(m.name, "M1");
    EXPECT_EQ(m.parts.size(), 4u);
    EXPECT_DEATH(WorkloadSpec::mix(8), "out of range");
}

TEST(Experiment, GmeanImprovement)
{
    EXPECT_NEAR(gmeanImprovement({0.1, 0.1}), 0.1, 1e-9);
    EXPECT_NEAR(gmeanImprovement({}), 0.0, 1e-12);
    // gmean of (1.21, 1.0) = 1.1.
    EXPECT_NEAR(gmeanImprovement({0.21, 0.0}), 0.1, 1e-3);
}

TEST(Experiment, StaticDesignGetsProfiledTable)
{
    // A SAS run must complete and produce sane metrics (the profiling
    // pass runs inside prepareRun).
    SimConfig cfg = quickConfig();
    cfg.design = DesignKind::Sas;
    RunMetrics m = runSimulation(WorkloadSpec::single("omnetpp"), cfg);
    EXPECT_GT(m.ipc[0], 0.0);
    EXPECT_EQ(m.promotions, 0u); // static never migrates
}

TEST(Experiment, DirectSetupMatchesSweepPoint)
{
    // dasdram_run's direct run (--stats, --stats-out, the traces, the
    // snapshots) promises dumps that match its summary: prepareRun +
    // run() with the point's seed must reproduce the sweep point
    // bit for bit, static-profile designs included.
    WorkloadSpec w = WorkloadSpec::single("mcf");
    for (DesignKind d : allDesigns()) {
        SCOPED_TRACE(toString(d));
        SweepRunner sweep(quickConfig(), 1);
        sweep.add(SweepPoint{w, d, {}, {}, /*needBaseline=*/false});
        RunMetrics swept = sweep.run().at(0).metrics;

        SimConfig cfg = quickConfig();
        cfg.design = d;
        cfg.seed = SweepRunner::pointSeed(cfg.seed, w.name, d);
        PreparedRun run = prepareRun(w, cfg);
        expectMetricsExactlyEqual(run.system->run(), swept);
    }
}

TEST(RunMetrics, DerivedQuantities)
{
    RunMetrics m;
    m.instructions = 1'000'000;
    m.llcMisses = 20'000;
    m.promotions = 400;
    m.memAccesses = 25'000;
    m.footprintRows = 1024;
    EXPECT_DOUBLE_EQ(m.mpki(), 20.0);
    EXPECT_DOUBLE_EQ(m.ppkm(), 20.0);
    EXPECT_DOUBLE_EQ(m.promotionsPerAccess(), 0.016);
    EXPECT_DOUBLE_EQ(m.footprintMiB(8192), 8.0);
}

TEST(RunMetrics, ZeroSafe)
{
    RunMetrics m;
    EXPECT_DOUBLE_EQ(m.mpki(), 0.0);
    EXPECT_DOUBLE_EQ(m.ppkm(), 0.0);
    EXPECT_DOUBLE_EQ(m.promotionsPerAccess(), 0.0);
}
