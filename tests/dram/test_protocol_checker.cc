/**
 * @file
 * Direct unit tests of the ProtocolChecker: hand-built command streams
 * that are legal (zero violations) or break exactly one timing rule
 * (the violation is reported and names the rule). Timing figures used
 * below are DDR3-1600: slow tRCD 11 / tRAS 28 / tRP 11 / tRC 39 /
 * tCL 11, tCWL 8, tBL 4, tCCD 4, tRRD 6, tFAW 32, tWTR 6, tRTP 6,
 * tWR 12, tRFC 128, tRTRS 2, swap 117 cycles.
 */

#include <gtest/gtest.h>

#include "core/migration.hh"
#include "dram/protocol_checker.hh"

using namespace dasdram;

namespace
{

CmdRecord
act(Cycle t, unsigned bank, std::uint64_t row,
    RowClass cls = RowClass::Slow, unsigned rank = 0)
{
    CmdRecord r;
    r.cycle = t;
    r.cmd = DramCommand::ACT;
    r.rank = rank;
    r.bank = bank;
    r.row = row;
    r.rowClass = cls;
    return r;
}

CmdRecord
col(DramCommand cmd, Cycle t, unsigned bank, std::uint64_t row,
    RowClass cls = RowClass::Slow, unsigned rank = 0)
{
    CmdRecord r;
    r.cycle = t;
    r.cmd = cmd;
    r.rank = rank;
    r.bank = bank;
    r.row = row;
    r.rowClass = cls;
    return r;
}

CmdRecord
pre(Cycle t, unsigned bank, std::uint64_t row,
    RowClass cls = RowClass::Slow, unsigned rank = 0)
{
    CmdRecord r;
    r.cycle = t;
    r.cmd = DramCommand::PRE;
    r.rank = rank;
    r.bank = bank;
    r.row = row;
    r.rowClass = cls;
    return r;
}

CmdRecord
ref(Cycle t, Cycle duration, unsigned rank = 0)
{
    CmdRecord r;
    r.cycle = t;
    r.cmd = DramCommand::REF;
    r.rank = rank;
    r.duration = duration;
    return r;
}

CmdRecord
migrate(Cycle t, unsigned bank, std::uint64_t row_a, std::uint64_t row_b,
        std::uint64_t lo, std::uint64_t hi, Cycle duration,
        std::uint64_t id = 1)
{
    CmdRecord r;
    r.cycle = t;
    r.cmd = DramCommand::MIGRATE;
    r.bank = bank;
    r.row = row_a;
    r.rowB = row_b;
    r.rowLo = lo;
    r.rowHi = hi;
    r.duration = duration;
    r.migrationId = id;
    return r;
}

class ProtocolCheckerTest : public ::testing::Test
{
  protected:
    ProtocolCheckerTest()
        : timing(ddr3_1600Timing()), checker(geom, timing)
    {}

    void
    feed(std::initializer_list<CmdRecord> recs)
    {
        for (const CmdRecord &r : recs)
            checker.onCommand(r);
    }

    DramGeometry geom{};
    DramTiming timing;
    ProtocolChecker checker;
};

} // namespace

TEST_F(ProtocolCheckerTest, CleanReadSequence)
{
    feed({act(0, 0, 7), col(DramCommand::RD, 11, 0, 7), pre(28, 0, 7),
          act(39, 0, 8)});
    EXPECT_EQ(checker.violationCount(), 0u);
    EXPECT_EQ(checker.commandCount(), 4u);
    EXPECT_TRUE(checker.firstViolation().empty());
}

TEST_F(ProtocolCheckerTest, FastRowUsesFastTiming)
{
    // Fast class: tRCD 7, tRP 9 — legal where slow (11/11) would not.
    // The RD pins the PRE at 7+tRTP=13, so the next ACT waits for
    // max(tRC=20, 13+tRP=22) = 22.
    feed({act(0, 0, 3, RowClass::Fast),
          col(DramCommand::RD, 7, 0, 3, RowClass::Fast),
          pre(13, 0, 3, RowClass::Fast), act(22, 0, 4, RowClass::Fast)});
    EXPECT_EQ(checker.violationCount(), 0u);
}

TEST_F(ProtocolCheckerTest, ActWhileRowOpen)
{
    feed({act(0, 0, 7), act(50, 0, 8)});
    EXPECT_GE(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("already open"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, TrcdViolation)
{
    feed({act(0, 0, 7), col(DramCommand::RD, 10, 0, 7)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("tRCD"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, TccdViolation)
{
    feed({act(0, 0, 7), col(DramCommand::RD, 11, 0, 7),
          col(DramCommand::RD, 13, 0, 7)});
    EXPECT_GE(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("tCCD"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, TrrdViolation)
{
    feed({act(0, 0, 7), act(3, 1, 9)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("tRRD"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, TfawViolation)
{
    // Four ACTs at the tRRD rate, then a fifth inside the 32-cycle
    // four-activate window.
    feed({act(0, 0, 1), act(6, 1, 1), act(12, 2, 1), act(18, 3, 1),
          act(24, 4, 1)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("tFAW"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, TwtrViolation)
{
    // WR at 11 bursts over [19, 23); reads allowed from 29.
    feed({act(0, 0, 7), col(DramCommand::WR, 11, 0, 7),
          col(DramCommand::RD, 27, 0, 7)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("tWTR"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, PreBeforeTras)
{
    feed({act(0, 0, 7), pre(20, 0, 7)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("tRAS"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, PreBeforeWriteRecovery)
{
    // WR burst ends at 23; tWR pushes the earliest PRE to 35.
    feed({act(0, 0, 7), col(DramCommand::WR, 11, 0, 7), pre(30, 0, 7)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("tWR"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, RefreshWithOpenBank)
{
    feed({act(0, 0, 7), ref(50, 128)});
    EXPECT_GE(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("open"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, RefreshBeforeBankRecovered)
{
    // After ACT@0 / PRE@28 the bank array is busy until 39.
    feed({act(0, 0, 7), pre(28, 0, 7), ref(30, 128)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("busy"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, RefreshWrongDuration)
{
    feed({ref(200, 100)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("tRFC"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, ActAndColumnToRowMidMigration)
{
    // Swap holds rows [32, 64) (exempt 40 and 33) for 117 cycles; an
    // ACT into the blocked range and the column access that follows
    // are both illegal.
    feed({migrate(0, 0, 40, 33, 32, 64, timing.swapCycles),
          act(5, 0, 50), col(DramCommand::RD, 16, 0, 50)});
    EXPECT_EQ(checker.violationCount(), 2u);
    EXPECT_NE(checker.firstViolation().find("blocked"),
              std::string::npos);
    EXPECT_NE(checker.messages()[1].find("mid-migration"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, ExemptRowsStayAccessibleDuringMigration)
{
    // The two rows being swapped sit in the half row buffers and stay
    // serviceable; rows outside the range are unaffected.
    feed({migrate(0, 0, 40, 33, 32, 64, timing.swapCycles),
          act(5, 0, 40), col(DramCommand::RD, 16, 0, 40),
          pre(33, 0, 40), act(44, 0, 10)});
    EXPECT_EQ(checker.violationCount(), 0u);
}

TEST_F(ProtocolCheckerTest, MigrateWhileReserved)
{
    feed({migrate(0, 0, 40, 33, 32, 64, timing.swapCycles, 1),
          migrate(50, 0, 8, 1, 0, 32, timing.swapCycles, 2)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("exclusivity"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, MigrateDuringPrechargeWindow)
{
    // The array is busy until cycle 39 after ACT@0 / PRE@28.
    feed({act(0, 0, 7), pre(28, 0, 7),
          migrate(30, 0, 8, 1, 0, 32, timing.swapCycles)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("busy"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, MigratedRowsMustBeInsideBlockedRange)
{
    feed({migrate(0, 0, 40, 70, 32, 64, timing.swapCycles)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("outside"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, MigrationDurationChecked)
{
    // Every MIGRATE is a swap: a single-row migration's busy time
    // (1.5 tRC) is a violation too.
    feed({migrate(0, 0, 40, 33, 32, 64, timing.swapCycles - 10, 1),
          migrate(1, 1, 40, 33, 32, 64,
                  MigrationProcedure(timing).migrationCycles(), 2),
          migrate(2, 2, 40, 33, 32, 64, timing.swapCycles, 3)});
    EXPECT_EQ(checker.violationCount(), 2u);
    ASSERT_EQ(checker.messages().size(), 2u);
    for (const std::string &msg : checker.messages())
        EXPECT_NE(msg.find("busy time"), std::string::npos) << msg;
}

TEST_F(ProtocolCheckerTest, RowClassCoherenceAgainstClassifier)
{
    UniformRowClassifier all_slow(RowClass::Slow);
    ProtocolChecker checked(geom, timing, &all_slow);
    checked.onCommand(act(0, 0, 7, RowClass::Fast));
    EXPECT_EQ(checked.violationCount(), 1u);
    EXPECT_NE(checked.firstViolation().find("row-class mismatch"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, TwoCommandsInOneCycle)
{
    feed({act(0, 0, 7), act(0, 1, 9)});
    EXPECT_GE(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("second command"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, TimeMovingBackwards)
{
    feed({act(10, 0, 7), pre(5, 0, 7)});
    EXPECT_GE(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("backwards"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, DataBusRankSwitchPenalty)
{
    // RD in rank 0 bursts over [28, 32); the rank-1 RD's burst would
    // start at 32 but tRTRS makes the bus free only at 34.
    feed({act(0, 0, 7, RowClass::Slow, 0),
          act(6, 0, 9, RowClass::Slow, 1),
          col(DramCommand::RD, 17, 0, 7, RowClass::Slow, 0),
          col(DramCommand::RD, 21, 0, 9, RowClass::Slow, 1)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("data-bus"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, ColumnToWrongRow)
{
    feed({act(0, 0, 7), col(DramCommand::RD, 11, 0, 8)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("open"), std::string::npos);
}

TEST_F(ProtocolCheckerTest, ColumnToPrechargedBank)
{
    feed({col(DramCommand::RD, 5, 0, 7)});
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.firstViolation().find("precharged"),
              std::string::npos);
}

TEST_F(ProtocolCheckerTest, ResetClearsStateAndResults)
{
    feed({act(0, 0, 7), col(DramCommand::RD, 10, 0, 7)});
    ASSERT_GE(checker.violationCount(), 1u);
    checker.reset();
    EXPECT_EQ(checker.violationCount(), 0u);
    EXPECT_EQ(checker.commandCount(), 0u);
    // State is fresh: the same bank can be activated at cycle 0 again.
    feed({act(0, 0, 7)});
    EXPECT_EQ(checker.violationCount(), 0u);
}

TEST_F(ProtocolCheckerTest, ViolationCountUnboundedMessagesBounded)
{
    for (unsigned i = 0; i < 100; ++i)
        checker.onCommand(col(DramCommand::RD, 5 + i, 0, 7));
    EXPECT_EQ(checker.violationCount(), 100u);
    EXPECT_EQ(checker.messages().size(),
              ProtocolChecker::kMaxStoredMessages);
}
