/**
 * @file
 * Tests for the DAS manager: translation timing paths, promotion on
 * slow accesses, swap execution and the design-mode switches.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/das_manager.hh"
#include "core/designs.hh"

using namespace dasdram;

namespace
{

struct ManagerHarness
{
    explicit ManagerHarness(DasConfig cfg = {})
        : geom(), timing(ddr3_1600Timing()), layout(geom, {}),
          dram(geom, timing, layout),
          caches(1,
                 HierarchyConfig{{1 * KiB, 2, 64},
                                 {4 * KiB, 4, 64},
                                 {16 * KiB, 8, 64},
                                 4,
                                 12,
                                 20}),
          mgr((cfg.mode = cfg.mode, dram), &caches, layout, cfg)
    {
        mgr.setCompletionHook(
            [this](const Continuation &, Cycle at) { done = at; });
    }

    /** Issue an access and run until it completes. */
    Cycle
    accessAndWait(Addr addr, bool write = false)
    {
        done = kCycleMax;
        mgr.access(addr, write, 0, Continuation::coreLoad(0, 0), now);
        for (int i = 0; i < 200000 && done == kCycleMax; ++i) {
            now += kMemTick;
            mgr.tick(now);
            dram.tick(now);
        }
        return done;
    }

    void
    run(Cycle ticks)
    {
        Cycle until = now + ticks;
        while (now < until) {
            now += kMemTick;
            mgr.tick(now);
            dram.tick(now);
        }
    }

    DramGeometry geom;
    DramTiming timing;
    AsymmetricLayout layout;
    DramSystem dram;
    CacheHierarchy caches;
    DasManager mgr;
    Cycle now = 0;
    Cycle done = kCycleMax; ///< last completion delivered to the hook
};

/** Address whose logical row is bank-local @p row of (ch0, ra0, ba0). */
Addr
rowAddr(const DramSystem &dram, std::uint64_t row,
        std::uint64_t column = 0)
{
    DramLoc loc{0, 0, 0, row, column};
    return dram.mapper().encode(loc);
}

} // namespace

TEST(DasManager, SlowAccessTriggersPromotion)
{
    ManagerHarness h;
    Addr slow_addr = rowAddr(h.dram, 10); // slot 10: slow
    EXPECT_FALSE(h.mgr.table().isFast(h.dram.decode(slow_addr).row));
    Cycle done = h.accessAndWait(slow_addr);
    ASSERT_NE(done, kCycleMax);
    h.run(400 * kMemTick); // let the swap finish
    EXPECT_EQ(h.mgr.promotions(), 1u);
    GlobalRowId logical =
        makeGlobalRowId(h.geom, 0, 0, 0, h.dram.decode(slow_addr).row);
    EXPECT_TRUE(h.mgr.table().isFast(logical));
}

TEST(DasManager, FastAccessDoesNotPromote)
{
    ManagerHarness h;
    Addr fast_addr = rowAddr(h.dram, 2); // slot 2: fast
    h.accessAndWait(fast_addr);
    h.run(400 * kMemTick);
    EXPECT_EQ(h.mgr.promotions(), 0u);
}

TEST(DasManager, PromotedRowServedFastAfterwards)
{
    ManagerHarness h;
    Addr addr = rowAddr(h.dram, 20);
    h.accessAndWait(addr);
    h.run(1000 * kMemTick);
    // Second access to a different column of the same logical row.
    h.accessAndWait(rowAddr(h.dram, 20, 5));
    LocationStats loc = h.mgr.locations();
    EXPECT_EQ(loc.slowLevel, 1u);
    EXPECT_EQ(loc.fastLevel + loc.rowBuffer, 1u);
}

TEST(DasManager, ZeroLatencySwapsInFmMode)
{
    DasConfig cfg;
    cfg.zeroMigrationLatency = true;
    ManagerHarness h(cfg);
    h.accessAndWait(rowAddr(h.dram, 10));
    EXPECT_EQ(h.mgr.promotions(), 1u);
    // No DRAM migration job was created.
    EXPECT_EQ(h.dram.channel(0).migrationCount() +
                  h.dram.channel(0).pendingMigrations(),
              0u);
}

TEST(DasManager, StaticModeNeverPromotes)
{
    DasConfig cfg;
    cfg.mode = ManagementMode::Static;
    ManagerHarness h(cfg);
    h.accessAndWait(rowAddr(h.dram, 10));
    h.run(400 * kMemTick);
    EXPECT_EQ(h.mgr.promotions(), 0u);
}

TEST(DasManager, NoneModeIsIdentity)
{
    DasConfig cfg;
    cfg.mode = ManagementMode::None;
    ManagerHarness h(cfg);
    Addr addr = rowAddr(h.dram, 10);
    Cycle done = h.accessAndWait(addr);
    ASSERT_NE(done, kCycleMax);
    EXPECT_EQ(h.mgr.promotions(), 0u);
    EXPECT_EQ(h.mgr.locations().slowLevel, 1u);
}

TEST(DasManager, TranslationCachePopulatedByAccesses)
{
    ManagerHarness h;
    Addr addr = rowAddr(h.dram, 7);
    h.accessAndWait(addr);
    GlobalRowId logical = makeGlobalRowId(h.geom, 0, 0, 0, 7);
    EXPECT_TRUE(h.mgr.translationCache()->probe(logical));
}

TEST(DasManager, VictimLeavesFastLevel)
{
    ManagerHarness h;
    // Group 0 fast slots initially hold logical rows 0..3. Promote 5
    // slow rows in turn; at least one original fast row must have been
    // demoted.
    for (std::uint64_t row : {10ULL, 11ULL, 12ULL, 13ULL, 14ULL}) {
        h.accessAndWait(rowAddr(h.dram, row));
        h.run(500 * kMemTick);
    }
    EXPECT_EQ(h.mgr.promotions(), 5u);
    int original_fast = 0;
    for (GlobalRowId r = 0; r < 4; ++r)
        original_fast += h.mgr.table().isFast(r) ? 1 : 0;
    EXPECT_LT(original_fast, 4);
    // Fast slot count invariant holds.
    int fast = 0;
    for (GlobalRowId r = 0; r < 32; ++r)
        fast += h.mgr.table().isFast(r) ? 1 : 0;
    EXPECT_EQ(fast, 4);
}

TEST(DasManager, FootprintCountsDistinctRows)
{
    ManagerHarness h;
    h.accessAndWait(rowAddr(h.dram, 1));
    h.accessAndWait(rowAddr(h.dram, 1, 3));
    h.accessAndWait(rowAddr(h.dram, 2));
    EXPECT_EQ(h.mgr.footprintRows(), 2u);
}

TEST(DasManager, WritebacksCountedAndClassified)
{
    ManagerHarness h;
    h.accessAndWait(rowAddr(h.dram, 9), /*write=*/true);
    EXPECT_EQ(h.mgr.demandAccesses(), 1u);
    EXPECT_EQ(h.mgr.locations().total(), 1u);
}

TEST(DasManager, ResetStatsPreservesMappings)
{
    ManagerHarness h;
    h.accessAndWait(rowAddr(h.dram, 10));
    h.run(500 * kMemTick);
    GlobalRowId logical = makeGlobalRowId(h.geom, 0, 0, 0, 10);
    ASSERT_TRUE(h.mgr.table().isFast(logical));
    ASSERT_GT(h.mgr.footprintRows(), 0u);
    h.mgr.stats().resetAll();
    h.mgr.resetFootprint();
    EXPECT_EQ(h.mgr.promotions(), 0u);
    EXPECT_EQ(h.mgr.footprintRows(), 0u);
    EXPECT_TRUE(h.mgr.table().isFast(logical)); // mapping kept
}

TEST(Designs, SpecTable)
{
    EXPECT_EQ(allDesigns().size(), 6u);
    EXPECT_EQ(evaluatedDesigns().size(), 5u);
    EXPECT_EQ(toString(DesignKind::Das), "DAS-DRAM");
    EXPECT_TRUE(designSpec(DesignKind::Charm).charmColumnOpt);
    EXPECT_TRUE(designSpec(DesignKind::Sas).needsProfiling);
    EXPECT_TRUE(designSpec(DesignKind::DasFm).zeroMigrationLatency);
    EXPECT_TRUE(designSpec(DesignKind::Fs).allFast);
    EXPECT_EQ(designSpec(DesignKind::Standard).mode,
              ManagementMode::None);
    EXPECT_EQ(parseDesign("das-fm"), DesignKind::DasFm);
    EXPECT_DEATH(parseDesign("bogus"), "unknown");
}
