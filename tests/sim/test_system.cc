/**
 * @file
 * Integration tests: the full System on tiny synthetic workloads, and
 * the design-level invariants the paper's evaluation rests on.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

using namespace dasdram;

namespace
{

SimConfig
tinyConfig(DesignKind design, InstCount instructions = 150'000)
{
    SimConfig cfg;
    cfg.design = design;
    cfg.instructionsPerCore = instructions;
    cfg.warmupFraction = 0.2;
    return cfg;
}

BenchmarkProfile
tinyProfile()
{
    BenchmarkProfile p = specProfile("omnetpp");
    p.footprintMiB = 64;
    p.workingSetPages = 400;
    p.phaseInstructions = 40'000;
    return p;
}

} // namespace

TEST(System, RunsToCompletionAndReportsMetrics)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    SyntheticTrace trace(tinyProfile(), 1);
    System sys(cfg, {&trace});
    RunMetrics m = sys.run();
    EXPECT_EQ(m.ipc.size(), 1u);
    EXPECT_GT(m.ipc[0], 0.1);
    EXPECT_LT(m.ipc[0], 4.0);
    EXPECT_GT(m.instructions, cfg.instructionsPerCore / 2);
    EXPECT_GT(m.llcMisses, 0u);
    EXPECT_GT(m.memAccesses, 0u);
    EXPECT_GT(m.footprintRows, 0u);
    // Some requests may still be in flight at termination.
    EXPECT_LE(m.locations.total(), m.memAccesses);
    EXPECT_GT(m.locations.total(), m.memAccesses / 2);
}

TEST(System, DeterministicAcrossRuns)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    SyntheticTrace t1(tinyProfile(), 1), t2(tinyProfile(), 1);
    System s1(cfg, {&t1}), s2(cfg, {&t2});
    RunMetrics m1 = s1.run(), m2 = s2.run();
    EXPECT_DOUBLE_EQ(m1.ipc[0], m2.ipc[0]);
    EXPECT_EQ(m1.llcMisses, m2.llcMisses);
    EXPECT_EQ(m1.promotions, m2.promotions);
}

TEST(System, FsDramBeatsStandard)
{
    SyntheticTrace t1(tinyProfile(), 1), t2(tinyProfile(), 1);
    System std_sys(tinyConfig(DesignKind::Standard), {&t1});
    System fs_sys(tinyConfig(DesignKind::Fs), {&t2});
    RunMetrics std_m = std_sys.run();
    RunMetrics fs_m = fs_sys.run();
    EXPECT_GT(fs_m.ipc[0], std_m.ipc[0]);
    // FS never touches a slow subarray.
    EXPECT_EQ(fs_m.locations.slowLevel, 0u);
    EXPECT_EQ(fs_m.energy.actsSlow, 0u);
}

TEST(System, StandardDramHasNoFastAccesses)
{
    SyntheticTrace t(tinyProfile(), 1);
    System sys(tinyConfig(DesignKind::Standard), {&t});
    RunMetrics m = sys.run();
    EXPECT_EQ(m.locations.fastLevel, 0u);
    EXPECT_EQ(m.promotions, 0u);
}

TEST(System, DasPromotesAndUsesFastLevel)
{
    SyntheticTrace t(tinyProfile(), 1);
    System sys(tinyConfig(DesignKind::Das), {&t});
    RunMetrics m = sys.run();
    EXPECT_GT(m.promotions, 0u);
    EXPECT_GT(m.locations.fastLevel, 0u);
    EXPECT_GT(m.energy.swaps, 0u);
}

TEST(System, MultiCoreSharesMemorySystem)
{
    SimConfig cfg = tinyConfig(DesignKind::Das, 100'000);
    cfg.numCores = 2;
    SyntheticTrace t0(tinyProfile(), 1), t1(tinyProfile(), 2);
    System sys(cfg, std::vector<TraceSource *>{&t0, &t1});
    RunMetrics m = sys.run();
    EXPECT_EQ(m.ipc.size(), 2u);
    EXPECT_GT(m.ipc[0], 0.05);
    EXPECT_GT(m.ipc[1], 0.05);
}

TEST(System, DumpStatsProducesTree)
{
    SyntheticTrace t(tinyProfile(), 1);
    System sys(tinyConfig(DesignKind::Das), {&t});
    sys.run();
    std::ostringstream oss;
    sys.dumpStats(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("system.core0.retired"), std::string::npos);
    EXPECT_NE(out.find("system.dasManager.promotions"),
              std::string::npos);
    EXPECT_NE(out.find("system.dram.channel0.reads"), std::string::npos);
    EXPECT_NE(out.find("system.caches.llc.hits"), std::string::npos);
}

TEST(SystemDeathTest, TraceCountMustMatchCores)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    cfg.numCores = 2;
    SyntheticTrace t(tinyProfile(), 1);
    EXPECT_DEATH(System(cfg, {&t}), "one trace per core");
}

TEST(SystemDeathTest, OutOfRangeFractionsAreFatal)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double f : {-1.0, 1.0, 2.0, nan}) {
        SimConfig cfg = tinyConfig(DesignKind::Das);
        cfg.warmupFraction = f;
        SyntheticTrace t(tinyProfile(), 1);
        EXPECT_DEATH(System(cfg, {&t}), "warmupFraction must be in")
            << "warmupFraction=" << f;
    }
    for (double r : {-0.5, 1.5, nan}) {
        SimConfig cfg = tinyConfig(DesignKind::Das);
        cfg.obs.traceRequests = r;
        SyntheticTrace t(tinyProfile(), 1);
        EXPECT_DEATH(System(cfg, {&t}), "traceRequests must be")
            << "traceRequests=" << r;
    }
}

TEST(SimConfig, WarmupInstructionArithmetic)
{
    SimConfig cfg;
    cfg.instructionsPerCore = 1000;
    cfg.warmupFraction = 0.2;
    EXPECT_EQ(cfg.warmupInstructions(), 200u);
    EXPECT_EQ(cfg.coreBase(0), 0u);
    EXPECT_EQ(cfg.coreBase(2), 2 * GiB);
}

TEST(SimConfig, SimScaleEnvOverride)
{
    SimConfig cfg;
    cfg.instructionsPerCore = 1'000'000;
    setenv("DAS_SIM_SCALE", "0.5", 1);
    double f = applySimScale(cfg);
    unsetenv("DAS_SIM_SCALE");
    EXPECT_DOUBLE_EQ(f, 0.5);
    EXPECT_EQ(cfg.instructionsPerCore, 500'000u);
}

TEST(SimConfig, SimScaleMalformedFatal)
{
    // A malformed scale is fatal, not a silent full-scale run (the
    // death-test child sets the variable; this process never does).
    for (const char *bad : {"banana", "abc", "0", "-1", "0.5x"}) {
        SCOPED_TRACE(bad);
        SimConfig cfg;
        EXPECT_DEATH(
            {
                setenv("DAS_SIM_SCALE", bad, 1);
                applySimScale(cfg);
            },
            "DAS_SIM_SCALE=.* is not a positive number");
    }
}
