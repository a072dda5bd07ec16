/**
 * @file
 * Golden-stats regression test: small fixed-seed runs, one or more
 * per design class, with key metrics checked against checked-in
 * golden values. Event counts are compared exactly and derived ratios
 * tightly, so any PR that shifts the model's behaviour — timing,
 * caching, promotion, energy accounting — trips this test and has to
 * update the goldens consciously (and justify the shift in review).
 *
 * The goldens encode the simulator's output for:
 *   workload mcf (single core), seed 42, 200k instructions/core,
 *   default Table 1 configuration, DAS and Standard designs;
 *   workload lbm (single core), seed 42, 4 M instructions/core,
 *   Standard design (the write path and the write-drain hysteresis);
 *   mix M4 (four cores), DAS; mcf, DAS with promotion threshold 4
 *   and random fast-slot replacement; lbm, SAS at 2 M
 *   instructions/core (the profiling pre-pass and remapped writes),
 * run through runSimulation() directly (no sweep seed derivation), so
 * they are independent of the sweep layer.
 *
 * To regenerate after an intentional model change:
 *   build/tools/dasdram_run --workload mcf --design das \
 *       --instructions 200000 --stats   (and read the fields below)
 * or temporarily print the failing values and paste them here.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

using namespace dasdram;

namespace
{

SimConfig
goldenConfig()
{
    SimConfig cfg;
    cfg.instructionsPerCore = 200'000;
    cfg.seed = 42;
    return cfg;
}

// Relative tolerance for derived floating-point metrics. The model is
// deterministic, so this only absorbs harmless FP-contraction
// differences between compilers, not behaviour drift.
constexpr double kRelTol = 1e-9;

void
expectNear(double value, double golden, const char *what)
{
    EXPECT_NEAR(value, golden, std::abs(golden) * kRelTol + 1e-12)
        << what;
}

} // namespace

TEST(GoldenStats, McfDasFixedSeed)
{
    SimConfig cfg = goldenConfig();
    cfg.design = DesignKind::Das;
    RunMetrics m = runSimulation(WorkloadSpec::single("mcf"), cfg);

    // Goldens regenerated when the controller gained the migration
    // start gate (a MIGRATE now waits out a pending tRP/tRC/tRFC
    // window like an ACT would) — migrations land slightly later, so
    // the mcf run completes a few hundred cycles later.
    ASSERT_EQ(m.ipc.size(), 1u);
    expectNear(m.ipc[0], 0.94734598419136151, "ipc");
    EXPECT_EQ(m.cpuCycles, 168895u);
    EXPECT_EQ(m.instructions, 160002u);
    EXPECT_EQ(m.llcMisses, 5697u);
    EXPECT_EQ(m.memAccesses, 5697u);
    EXPECT_EQ(m.promotions, 2150u);
    EXPECT_EQ(m.footprintRows, 3064u);
    EXPECT_EQ(m.locations.rowBuffer, 351u);
    EXPECT_EQ(m.locations.fastLevel, 3189u);
    EXPECT_EQ(m.locations.slowLevel, 2153u);
    EXPECT_EQ(m.energy.actsSlow, 2161u);
    EXPECT_EQ(m.energy.actsFast, 3443u);
    EXPECT_EQ(m.energy.reads, 5963u);
    EXPECT_EQ(m.energy.writes, 0u);
    EXPECT_EQ(m.energy.refreshes, 36u);
    EXPECT_EQ(m.energy.swaps, 2157u);
    expectNear(m.mpki(), 35.605804927438406, "mpki");
    expectNear(m.ppkm(), 377.39160961909778, "ppkm");
}

TEST(GoldenStats, McfStandardFixedSeed)
{
    SimConfig cfg = goldenConfig();
    cfg.design = DesignKind::Standard;
    RunMetrics m = runSimulation(WorkloadSpec::single("mcf"), cfg);

    ASSERT_EQ(m.ipc.size(), 1u);
    expectNear(m.ipc[0], 0.97734422244076447, "ipc");
    EXPECT_EQ(m.cpuCycles, 163711u);
    EXPECT_EQ(m.instructions, 160002u);
    EXPECT_EQ(m.llcMisses, 5780u);
    EXPECT_EQ(m.memAccesses, 5780u);
    EXPECT_EQ(m.promotions, 0u);
    EXPECT_EQ(m.locations.rowBuffer, 540u);
    EXPECT_EQ(m.locations.fastLevel, 0u);
    EXPECT_EQ(m.locations.slowLevel, 5238u);
    EXPECT_EQ(m.energy.actsSlow, 5256u);
    EXPECT_EQ(m.energy.actsFast, 0u);
    EXPECT_EQ(m.energy.reads, 5777u);
    EXPECT_EQ(m.energy.refreshes, 32u);
    EXPECT_EQ(m.energy.swaps, 0u);
    expectNear(m.mpki(), 36.124548443144462, "mpki");
}

/**
 * The write path: lbm streams writebacks, so this point issues DRAM
 * writes and crosses the write-drain hysteresis (the mcf points above
 * never write). It is sized so scheduler changes show: at 2 M
 * instructions and below, a DRAM clock that skipped to each channel's
 * next wake cycle gave the same output as the per-cycle one; at 4 M
 * they differ. The skipping clock's values ("skip:") are kept beside
 * the fields that changed, to show this gate sees the difference.
 */
TEST(GoldenStats, LbmStandardFixedSeed)
{
    SimConfig cfg = goldenConfig();
    cfg.instructionsPerCore = 4'000'000;
    cfg.design = DesignKind::Standard;
    RunMetrics m = runSimulation(WorkloadSpec::single("lbm"), cfg);

    ASSERT_EQ(m.ipc.size(), 1u);
    expectNear(m.ipc[0], 1.513358701008559, "ipc"); // skip: 1.51196436...
    EXPECT_EQ(m.cpuCycles, 2114502u);               // skip: 2116452
    EXPECT_EQ(m.instructions, 3200000u);
    EXPECT_EQ(m.llcMisses, 81204u);
    EXPECT_EQ(m.memAccesses, 96804u); // skip: 96808
    EXPECT_EQ(m.promotions, 0u);
    EXPECT_EQ(m.locations.rowBuffer, 76502u); // skip: 76498
    EXPECT_EQ(m.locations.fastLevel, 0u);
    EXPECT_EQ(m.locations.slowLevel, 20300u); // skip: 20308
    EXPECT_EQ(m.energy.actsSlow, 20351u);     // skip: 20363
    EXPECT_EQ(m.energy.actsFast, 0u);
    EXPECT_EQ(m.energy.reads, 81203u);
    EXPECT_GT(m.energy.writes, 0u);
    EXPECT_EQ(m.energy.writes, 15598u); // skip: 15602
    EXPECT_EQ(m.energy.refreshes, 444u);
    EXPECT_EQ(m.energy.swaps, 0u);
    expectNear(m.mpki(), 25.37625, "mpki");
}

/** Four cores sharing the LLC, MSHRs and channel queues on DAS. */
TEST(GoldenStats, M4DasFixedSeed)
{
    SimConfig cfg = goldenConfig();
    cfg.design = DesignKind::Das;
    RunMetrics m = runSimulation(WorkloadSpec::mix(3), cfg);

    ASSERT_EQ(m.ipc.size(), 4u);
    expectNear(m.ipc[0], 1.1135119694349651, "ipc[0]");
    expectNear(m.ipc[1], 1.588728888344785, "ipc[1]");
    expectNear(m.ipc[2], 1.0030554832917604, "ipc[2]");
    expectNear(m.ipc[3], 0.81616600609056267, "ipc[3]");
    EXPECT_EQ(m.cpuCycles, 196041u);
    EXPECT_EQ(m.instructions, 886392u);
    EXPECT_EQ(m.llcMisses, 14086u);
    EXPECT_EQ(m.memAccesses, 14086u);
    EXPECT_EQ(m.promotions, 1687u);
    EXPECT_EQ(m.footprintRows, 2069u);
    EXPECT_EQ(m.locations.rowBuffer, 9997u);
    EXPECT_EQ(m.locations.fastLevel, 2405u);
    EXPECT_EQ(m.locations.slowLevel, 1691u);
    EXPECT_EQ(m.energy.actsSlow, 1696u);
    EXPECT_EQ(m.energy.actsFast, 3189u);
    EXPECT_EQ(m.energy.reads, 14944u);
    EXPECT_EQ(m.energy.writes, 0u);
    EXPECT_EQ(m.energy.refreshes, 40u);
    EXPECT_EQ(m.energy.swaps, 1687u);
    expectNear(m.mpki(), 15.891388911452269, "mpki");
    expectNear(m.ppkm(), 119.76430498367174, "ppkm");
}

/** The counting promotion filter and random victim selection. */
TEST(GoldenStats, McfDasThresholdFourRandomFixedSeed)
{
    SimConfig cfg = goldenConfig();
    cfg.design = DesignKind::Das;
    cfg.das.promotion.threshold = 4;
    cfg.das.replacement = FastReplPolicy::Random;
    RunMetrics m = runSimulation(WorkloadSpec::single("mcf"), cfg);

    ASSERT_EQ(m.ipc.size(), 1u);
    expectNear(m.ipc[0], 0.9093962783189915, "ipc");
    EXPECT_EQ(m.cpuCycles, 175942u);
    EXPECT_EQ(m.instructions, 160001u);
    EXPECT_EQ(m.llcMisses, 5737u);
    EXPECT_EQ(m.memAccesses, 5737u);
    EXPECT_EQ(m.promotions, 59u);
    EXPECT_EQ(m.footprintRows, 3064u);
    EXPECT_EQ(m.locations.rowBuffer, 481u);
    EXPECT_EQ(m.locations.fastLevel, 823u);
    EXPECT_EQ(m.locations.slowLevel, 4432u);
    EXPECT_EQ(m.energy.actsSlow, 4440u);
    EXPECT_EQ(m.energy.actsFast, 1073u);
    EXPECT_EQ(m.energy.reads, 6001u);
    EXPECT_EQ(m.energy.writes, 0u);
    EXPECT_EQ(m.energy.refreshes, 40u);
    EXPECT_EQ(m.energy.swaps, 59u);
    expectNear(m.mpki(), 35.856025899838123, "mpki");
    expectNear(m.ppkm(), 10.284120620533379, "ppkm");
}

/**
 * A static design: the profiling pre-pass fixes the mapping. At 2 M
 * instructions lbm writes back to DRAM (at 200 k and 400 k it issues
 * no write), so the remapped write path is covered too.
 */
TEST(GoldenStats, LbmSasFixedSeed)
{
    SimConfig cfg = goldenConfig();
    cfg.instructionsPerCore = 2'000'000;
    cfg.design = DesignKind::Sas;
    RunMetrics m = runSimulation(WorkloadSpec::single("lbm"), cfg);

    ASSERT_EQ(m.ipc.size(), 1u);
    expectNear(m.ipc[0], 1.7306670964489956, "ipc");
    EXPECT_EQ(m.cpuCycles, 924499u);
    EXPECT_EQ(m.instructions, 1600000u);
    EXPECT_EQ(m.llcMisses, 44327u);
    EXPECT_EQ(m.memAccesses, 45656u);
    EXPECT_EQ(m.promotions, 0u);
    EXPECT_EQ(m.footprintRows, 1783u);
    EXPECT_EQ(m.locations.rowBuffer, 40480u);
    EXPECT_EQ(m.locations.fastLevel, 4791u);
    EXPECT_EQ(m.locations.slowLevel, 377u);
    EXPECT_EQ(m.energy.actsSlow, 377u);
    EXPECT_EQ(m.energy.actsFast, 4800u);
    EXPECT_EQ(m.energy.reads, 44326u);
    EXPECT_EQ(m.energy.writes, 1325u);
    EXPECT_EQ(m.energy.refreshes, 196u);
    EXPECT_EQ(m.energy.swaps, 0u);
    expectNear(m.mpki(), 27.704374999999999, "mpki");
}
