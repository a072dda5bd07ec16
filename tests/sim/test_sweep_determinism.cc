/**
 * @file
 * The sweep engine's determinism contract: the same sweep produces
 * exactly the same results — bit-identical metrics and byte-identical
 * JSON — whatever the worker-thread count, because every point's seed
 * derives only from (base seed, workload name, design) and results
 * are collected in submission order.
 */

#include <gtest/gtest.h>

#include <cstdlib>

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

/** The 3-point sweep the determinism guarantee is tested on. */
std::vector<ExperimentResult>
runSweep(unsigned jobs)
{
    SweepRunner sweep(quickConfig(), jobs);
    sweep.add(WorkloadSpec::single("mcf"), DesignKind::Das);
    sweep.add(WorkloadSpec::single("omnetpp"), DesignKind::Fs);
    sweep.add(WorkloadSpec::single("mcf"), DesignKind::Das,
              [](SimConfig &c) { c.das.promotion.threshold = 4; },
              "th=4");
    return sweep.run();
}

} // namespace

TEST(SweepDeterminism, SameResultsWithOneAndFourJobs)
{
    std::vector<ExperimentResult> serial = runSweep(1);
    std::vector<ExperimentResult> parallel = runSweep(4);

    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(parallel.size(), 3u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].design, parallel[i].design);
        EXPECT_EQ(serial[i].label, parallel[i].label);
        EXPECT_EQ(serial[i].seed, parallel[i].seed);
        expectMetricsExactlyEqual(serial[i].metrics,
                                  parallel[i].metrics);
        EXPECT_EQ(serial[i].perfImprovement,
                  parallel[i].perfImprovement);
        EXPECT_EQ(serial[i].energyPerAccessNj,
                  parallel[i].energyPerAccessNj);
        // The exported form is what figure outputs are built from:
        // byte-identical, not merely numerically close.
        EXPECT_EQ(toJsonLine(serial[i]), toJsonLine(parallel[i]));
    }

    // The two mcf points differ only in the promotion threshold, so
    // they must share both seed (paired comparison) and baseline.
    EXPECT_EQ(serial[0].seed, serial[2].seed);
}

TEST(SweepDeterminism, PointSeedDependsOnAllInputs)
{
    std::uint64_t s = SweepRunner::pointSeed(42, "mcf", DesignKind::Das);
    EXPECT_EQ(s, SweepRunner::pointSeed(42, "mcf", DesignKind::Das));
    EXPECT_NE(s, SweepRunner::pointSeed(43, "mcf", DesignKind::Das));
    EXPECT_NE(s, SweepRunner::pointSeed(42, "milc", DesignKind::Das));
    EXPECT_NE(s, SweepRunner::pointSeed(42, "mcf", DesignKind::Fs));
    EXPECT_NE(SweepRunner::pointSeed(42, "mcf", DesignKind::Standard),
              s);
}

TEST(SweepDeterminism, StandardPointsReportZeroImprovement)
{
    SweepRunner sweep(quickConfig(), 2);
    sweep.add(WorkloadSpec::single("omnetpp"), DesignKind::Standard);
    sweep.add(WorkloadSpec::single("omnetpp"), DesignKind::Fs);
    auto results = sweep.run();
    EXPECT_DOUBLE_EQ(results[0].perfImprovement, 0.0);
    EXPECT_GT(results[0].energyPerAccessNj, 0.0);
    EXPECT_GT(results[1].perfImprovement, 0.0);
}

TEST(SweepDeterminism, MoreJobsThanPointsIsFine)
{
    SweepRunner sweep(quickConfig(), 16);
    sweep.add(WorkloadSpec::single("omnetpp"), DesignKind::Das);
    auto results = sweep.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].metrics.ipc.at(0), 0.0);
}

TEST(SweepDeterminism, ResolveJobsHonoursEnvAndRequest)
{
    EXPECT_EQ(SweepRunner::resolveJobs(3), 3u);

    ::setenv("DAS_JOBS", "5", 1);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 5u);
    EXPECT_EQ(SweepRunner::resolveJobs(2), 2u); // explicit wins

    ::unsetenv("DAS_JOBS");
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);

    // A malformed value is fatal, not a silent fall-back to all cores
    // (the death-test child sets the variable; this process keeps it
    // unset).
    for (const char *bad : {"bogus", "0", "-2", "4x"}) {
        SCOPED_TRACE(bad);
        EXPECT_DEATH(
            {
                ::setenv("DAS_JOBS", bad, 1);
                SweepRunner::resolveJobs(0);
            },
            "DAS_JOBS=.* is not a positive integer");
    }
}
