/**
 * @file
 * Unit tests for rank-level constraints (tRRD, tFAW, tWTR, refresh).
 */

#include <gtest/gtest.h>

#include "dram/rank.hh"

using namespace dasdram;

class RankTest : public ::testing::Test
{
  protected:
    RankTest() : timing(ddr3_1600Timing()), rank(timing, 8) {}

    DramTiming timing;
    Rank rank;
};

TEST_F(RankTest, FirstActivateUnconstrained)
{
    EXPECT_TRUE(rank.canActivate(0));
    EXPECT_EQ(rank.activateAllowedAt(), 0u);
}

TEST_F(RankTest, TrrdBetweenActivates)
{
    rank.recordActivate(0);
    EXPECT_FALSE(rank.canActivate(timing.tRRD - 1));
    EXPECT_TRUE(rank.canActivate(timing.tRRD));
}

TEST_F(RankTest, TfawLimitsFourActivates)
{
    // Four ACTs spaced at tRRD: the fifth must wait for tFAW from the
    // first.
    Cycle t = 0;
    for (int i = 0; i < 4; ++i) {
        rank.recordActivate(t);
        t += timing.tRRD;
    }
    EXPECT_EQ(rank.activateAllowedAt(),
              std::max<Cycle>(t - timing.tRRD + timing.tRRD,
                              timing.tFAW));
    EXPECT_FALSE(rank.canActivate(timing.tFAW - 1));
    EXPECT_TRUE(rank.canActivate(timing.tFAW));
}

TEST_F(RankTest, TfawWindowSlides)
{
    rank.recordActivate(0);
    rank.recordActivate(10);
    rank.recordActivate(20);
    rank.recordActivate(30);
    // Fifth ACT: gated by max(tRRD from 30, tFAW from 0) = 36.
    EXPECT_EQ(rank.activateAllowedAt(),
              std::max<Cycle>(30 + timing.tRRD, timing.tFAW));
    rank.recordActivate(36);
    // Next is constrained by the ACT at cycle 10 (tFAW) vs tRRD.
    EXPECT_EQ(rank.activateAllowedAt(),
              std::max<Cycle>(36 + timing.tRRD, 10 + timing.tFAW));
}

TEST_F(RankTest, WriteToReadTurnaround)
{
    rank.recordWriteBurst(100);
    EXPECT_EQ(rank.readAllowedAt(), 100 + timing.tWTR);
}

TEST_F(RankTest, RefreshScheduleAdvances)
{
    EXPECT_FALSE(rank.refreshDue(timing.tREFI - 1));
    EXPECT_TRUE(rank.refreshDue(timing.tREFI));
    rank.refresh(timing.tREFI);
    EXPECT_EQ(rank.refreshCount(), 1u);
    EXPECT_EQ(rank.nextRefreshAt(), 2 * timing.tREFI);
    // Banks blocked until tRFC elapses.
    EXPECT_FALSE(rank.bank(0).canActivate(timing.tREFI + timing.tRFC - 1,
                                          0));
    EXPECT_TRUE(rank.bank(0).canActivate(timing.tREFI + timing.tRFC, 0));
}

TEST_F(RankTest, LateRefreshDoesNotScheduleInPast)
{
    Cycle late = 5 * timing.tREFI;
    rank.refresh(late);
    EXPECT_GT(rank.nextRefreshAt(), late);
}

TEST_F(RankTest, AllBanksIdleChecksOpenRows)
{
    EXPECT_TRUE(rank.allBanksIdle(0));
    rank.bank(3).activate(0, 1, RowClass::Slow);
    EXPECT_FALSE(rank.allBanksIdle(0));
    rank.bank(3).precharge(timing.slow.tRAS);
    EXPECT_TRUE(rank.allBanksIdle(timing.slow.tRAS));
}

TEST_F(RankTest, AllBanksIdleChecksReservations)
{
    rank.bank(2).reserve(0, 117, 0, 32);
    EXPECT_FALSE(rank.allBanksIdle(50));
    EXPECT_TRUE(rank.allBanksIdle(117));
}

using RankDeathTest = RankTest;

TEST_F(RankDeathTest, RefreshWithOpenBankPanics)
{
    rank.bank(0).activate(0, 1, RowClass::Slow);
    EXPECT_DEATH(rank.refresh(timing.tREFI), "open or reserved");
}
