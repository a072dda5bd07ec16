/**
 * @file
 * Unit tests for the DDR3-1600 timing parameters (Table 1 values).
 */

#include <gtest/gtest.h>

#include "dram/timing.hh"
#include "mem/clock.hh"

using namespace dasdram;

TEST(Timing, Table1SlowParameters)
{
    DramTiming t = ddr3_1600Timing();
    EXPECT_EQ(t.slow.tRCD, 11u); // 13.75 ns
    EXPECT_EQ(t.slow.tRP, 11u);
    EXPECT_EQ(t.slow.tRAS, 28u); // 35 ns
    EXPECT_EQ(t.slow.tRC, 39u);  // 48.75 ns
    EXPECT_TRUE(t.slow.consistent());
}

TEST(Timing, Table1FastParameters)
{
    DramTiming t = ddr3_1600Timing();
    EXPECT_EQ(t.fast.tRCD, 7u); // 8.75 ns
    EXPECT_EQ(t.fast.tRC, 20u); // 25 ns
    EXPECT_TRUE(t.fast.consistent());
    EXPECT_LT(t.fast.tRCD, t.slow.tRCD);
    EXPECT_LT(t.fast.tRC, t.slow.tRC);
}

TEST(Timing, MigrationLatencyMatchesTable1)
{
    DramTiming t = ddr3_1600Timing();
    // Table 1: migration (swap) latency 146.25 ns = 117 cycles = 3 tRC.
    EXPECT_EQ(t.swapCycles, 117u);
}

TEST(Timing, CharmColumnOptOnlyChangesFastTcl)
{
    DramTiming base = ddr3_1600Timing(false);
    DramTiming charm = ddr3_1600Timing(true);
    EXPECT_EQ(base.fast.tCL, base.slow.tCL);
    EXPECT_LT(charm.fast.tCL, charm.slow.tCL);
    EXPECT_EQ(charm.slow.tCL, base.slow.tCL);
    EXPECT_EQ(charm.fast.tRCD, base.fast.tRCD);
}

TEST(Timing, SharedBusParameters)
{
    DramTiming t = ddr3_1600Timing();
    EXPECT_EQ(t.tBL, 4u);
    EXPECT_EQ(t.tCCD, 4u);
    EXPECT_EQ(t.tFAW, 32u);   // 40 ns
    EXPECT_EQ(t.tRFC, 128u);  // 160 ns
    EXPECT_EQ(t.tREFI, 6240u); // 7.8 us
    EXPECT_GE(t.tFAW, 4 * t.tRRD / 2); // sane relationship
}

TEST(Timing, ReadLatencyPerClass)
{
    DramTiming t = ddr3_1600Timing(true);
    EXPECT_EQ(t.readLatency(RowClass::Slow), t.slow.tCL + t.tBL);
    EXPECT_LT(t.readLatency(RowClass::Fast),
              t.readLatency(RowClass::Slow));
}

TEST(Clock, TickConversions)
{
    EXPECT_EQ(nsToMemCycles(13.75), 11u);
    EXPECT_EQ(nsToMemCycles(48.75), 39u);
    EXPECT_EQ(nsToMemCycles(1.25), 1u);
    EXPECT_EQ(cpuCyclesToTicks(3), 12u);  // 3 GHz CPU → 4 ticks/cycle
    EXPECT_EQ(memCyclesToTicks(2), 30u);  // 800 MHz → 15 ticks/cycle
    EXPECT_EQ(nsToTicks(1.0), 12u);
}
