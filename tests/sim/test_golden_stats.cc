/**
 * @file
 * Golden-stats regression test: one small fixed-seed single-program
 * run per design class, with key metrics checked against checked-in
 * golden values. Event counts are compared exactly and derived ratios
 * tightly, so any PR that shifts the model's behaviour — timing,
 * caching, promotion, energy accounting — trips this test and has to
 * update the goldens consciously (and justify the shift in review).
 *
 * The goldens encode the simulator's output for:
 *   workload mcf (single core), seed 42, 200k instructions/core,
 *   default Table 1 configuration, DAS and Standard designs;
 *   workload lbm (single core), seed 42, 4 M instructions/core,
 *   Standard design (the one point that issues DRAM writes),
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
