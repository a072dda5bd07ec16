/**
 * @file
 * Unit tests for the bank state machine, including row-class-dependent
 * timing and migration reservations.
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"

using namespace dasdram;

class BankTest : public ::testing::Test
{
  protected:
    BankTest() : timing(ddr3_1600Timing()), bank(timing) {}

    DramTiming timing;
    Bank bank;
};

TEST_F(BankTest, PowerUpIdle)
{
    EXPECT_FALSE(bank.hasOpenRow());
    EXPECT_TRUE(bank.canActivate(0, 5));
    EXPECT_FALSE(bank.canPrecharge(0));
    EXPECT_FALSE(bank.canColumn(0));
}

TEST_F(BankTest, ActivateOpensRowAfterTrcd)
{
    bank.activate(0, 42, RowClass::Slow);
    EXPECT_TRUE(bank.hasOpenRow());
    EXPECT_EQ(bank.openRow(), 42u);
    EXPECT_EQ(bank.openRowClass(), RowClass::Slow);
    EXPECT_FALSE(bank.canColumn(timing.slow.tRCD - 1));
    EXPECT_TRUE(bank.canColumn(timing.slow.tRCD));
}

TEST_F(BankTest, FastRowUsesFastTiming)
{
    bank.activate(0, 7, RowClass::Fast);
    EXPECT_FALSE(bank.canColumn(timing.fast.tRCD - 1));
    EXPECT_TRUE(bank.canColumn(timing.fast.tRCD));
    // Precharge allowed at fast tRAS, before slow tRAS.
    EXPECT_FALSE(bank.canPrecharge(timing.fast.tRAS - 1));
    EXPECT_TRUE(bank.canPrecharge(timing.fast.tRAS));
}

TEST_F(BankTest, TrasGatesPrecharge)
{
    bank.activate(0, 1, RowClass::Slow);
    EXPECT_FALSE(bank.canPrecharge(timing.slow.tRAS - 1));
    EXPECT_TRUE(bank.canPrecharge(timing.slow.tRAS));
}

TEST_F(BankTest, TrcGatesNextActivate)
{
    bank.activate(0, 1, RowClass::Slow);
    bank.precharge(timing.slow.tRAS);
    EXPECT_FALSE(bank.hasOpenRow());
    // Next ACT gated by tRAS + tRP == tRC.
    EXPECT_FALSE(bank.canActivate(timing.slow.tRC - 1, 2));
    EXPECT_TRUE(bank.canActivate(timing.slow.tRC, 2));
}

TEST_F(BankTest, LatePrechargeDelaysActivate)
{
    bank.activate(0, 1, RowClass::Slow);
    Cycle pre_at = timing.slow.tRAS + 10;
    bank.precharge(pre_at);
    EXPECT_FALSE(bank.canActivate(pre_at + timing.slow.tRP - 1, 2));
    EXPECT_TRUE(bank.canActivate(pre_at + timing.slow.tRP, 2));
}

TEST_F(BankTest, ReadReturnsBurstEndAndGatesPrecharge)
{
    bank.activate(0, 1, RowClass::Slow);
    Cycle rd_at = timing.slow.tRCD;
    Cycle end = bank.read(rd_at);
    EXPECT_EQ(end, rd_at + timing.slow.tCL + timing.tBL);
    // tRTP pushes precharge but never below tRAS.
    EXPECT_GE(bank.preAllowedAt(), rd_at + timing.tRTP);
}

TEST_F(BankTest, WriteRecoveryGatesPrecharge)
{
    bank.activate(0, 1, RowClass::Slow);
    Cycle wr_at = timing.slow.tRCD;
    Cycle end = bank.write(wr_at);
    EXPECT_EQ(end, wr_at + timing.tCWL + timing.tBL);
    EXPECT_FALSE(bank.canPrecharge(end + timing.tWR - 1));
    EXPECT_TRUE(bank.canPrecharge(end + timing.tWR));
}

TEST_F(BankTest, ReservationBlocksOnlyRange)
{
    bank.reserve(0, 100, 32, 64);
    EXPECT_TRUE(bank.reserved(50));
    EXPECT_TRUE(bank.rowBlocked(50, 40));
    EXPECT_FALSE(bank.rowBlocked(50, 10));
    EXPECT_FALSE(bank.rowBlocked(50, 64));
    EXPECT_FALSE(bank.canActivate(50, 40));
    EXPECT_TRUE(bank.canActivate(50, 10));
    // After expiry everything is accessible again.
    EXPECT_FALSE(bank.reserved(100));
    EXPECT_TRUE(bank.canActivate(100, 40));
}

TEST_F(BankTest, ReservationExemptsSwapRows)
{
    bank.reserve(0, 100, 32, 64, 40, 50);
    EXPECT_FALSE(bank.rowBlocked(10, 40));
    EXPECT_FALSE(bank.rowBlocked(10, 50));
    EXPECT_TRUE(bank.rowBlocked(10, 41));
}

TEST_F(BankTest, OpenRowOutsideRangeSurvivesReservation)
{
    bank.activate(0, 5, RowClass::Slow);
    bank.reserve(1, 100, 32, 64);
    EXPECT_TRUE(bank.hasOpenRow());
    EXPECT_TRUE(bank.canColumn(timing.slow.tRCD));
}

TEST_F(BankTest, ResetRestoresPowerUpState)
{
    bank.activate(0, 1, RowClass::Fast);
    bank.reset();
    EXPECT_FALSE(bank.hasOpenRow());
    EXPECT_TRUE(bank.canActivate(0, 1));
}

using BankDeathTest = BankTest;

TEST_F(BankDeathTest, DoubleActivatePanics)
{
    bank.activate(0, 1, RowClass::Slow);
    EXPECT_DEATH(bank.activate(1, 2, RowClass::Slow), "timing violation");
}

TEST_F(BankDeathTest, EarlyColumnPanics)
{
    bank.activate(0, 1, RowClass::Slow);
    EXPECT_DEATH(bank.read(0), "timing violation");
}

TEST_F(BankDeathTest, ReserveOverOpenRowInRangePanics)
{
    bank.activate(0, 40, RowClass::Slow);
    EXPECT_DEATH(bank.reserve(1, 100, 32, 64), "open row");
}
