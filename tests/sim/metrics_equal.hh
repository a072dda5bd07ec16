/**
 * @file
 * Bitwise comparison of two RunMetrics, shared by the tests that pin
 * one run's results to another's.
 */

#ifndef DASDRAM_TESTS_SIM_METRICS_EQUAL_HH
#define DASDRAM_TESTS_SIM_METRICS_EQUAL_HH

#include <gtest/gtest.h>

#include "sim/system.hh"

namespace dasdram
{

inline void
expectMetricsExactlyEqual(const RunMetrics &a, const RunMetrics &b)
{
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]); // bitwise, not NEAR
    EXPECT_EQ(a.cpuCycles, b.cpuCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.locations.rowBuffer, b.locations.rowBuffer);
    EXPECT_EQ(a.locations.fastLevel, b.locations.fastLevel);
    EXPECT_EQ(a.locations.slowLevel, b.locations.slowLevel);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.footprintRows, b.footprintRows);
    EXPECT_EQ(a.energy.actsSlow, b.energy.actsSlow);
    EXPECT_EQ(a.energy.actsFast, b.energy.actsFast);
    EXPECT_EQ(a.energy.reads, b.energy.reads);
    EXPECT_EQ(a.energy.writes, b.energy.writes);
    EXPECT_EQ(a.energy.refreshes, b.energy.refreshes);
    EXPECT_EQ(a.energy.swaps, b.energy.swaps);
}

} // namespace dasdram

#endif // DASDRAM_TESTS_SIM_METRICS_EQUAL_HH
