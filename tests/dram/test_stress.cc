/**
 * @file
 * Randomised stress tests. The bank/rank state machines panic on any
 * timing-protocol violation, so driving the controller with random
 * traffic (plus random migrations and refreshes) is a protocol fuzz
 * test: the assertions are "everything completes" and "nothing
 * violates DDR3 timing".
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/random.hh"
#include "completion_recorder.hh"
#include "core/subarray_layout.hh"
#include "dram/dram_system.hh"

using namespace dasdram;

namespace
{

struct StressParams
{
    unsigned requests;
    unsigned bankSpread;  ///< distinct banks touched
    unsigned rowSpread;   ///< distinct rows per bank
    double writeFraction;
    bool migrations;
    std::uint64_t seed;
};

class DramStress : public ::testing::TestWithParam<StressParams>
{
};

} // namespace

TEST_P(DramStress, AllRequestsCompleteWithoutProtocolViolations)
{
    const StressParams p = GetParam();
    DramGeometry geom;
    DramTiming timing = ddr3_1600Timing();
    AsymmetricLayout layout(geom, {});
    DramSystem dram(geom, timing, layout);
    CompletionRecorder done;
    dram.setCompletionSink(&done);
    Rng rng(p.seed);

    unsigned submitted = 0;
    unsigned migrations_started = 0;
    Cycle now = 0;

    while (submitted < p.requests) {
        // Random request into a bounded bank/row region.
        DramLoc loc;
        loc.channel = static_cast<unsigned>(rng.nextBelow(geom.channels));
        loc.rank = static_cast<unsigned>(
            rng.nextBelow(geom.ranksPerChannel));
        loc.bank = static_cast<unsigned>(
            rng.nextBelow(std::min(p.bankSpread, geom.banksPerRank)));
        loc.row = rng.nextBelow(p.rowSpread);
        loc.column = rng.nextBelow(geom.linesPerRow());
        bool write = rng.chance(p.writeFraction);
        if (dram.canAccept(loc, write)) {
            auto req = std::make_unique<MemRequest>(
                dram.mapper().encode(loc), write, 0);
            req->loc = loc;
            dram.submit(std::move(req), now);
            ++submitted;
        }
        if (p.migrations && rng.chance(0.02) &&
            migrations_started < 200) {
            std::uint64_t group = rng.nextBelow(p.rowSpread / 32);
            std::uint64_t lo = group * 32;
            ++migrations_started;
            dram.startMigration(
                static_cast<unsigned>(rng.nextBelow(geom.channels)),
                static_cast<unsigned>(
                    rng.nextBelow(geom.ranksPerChannel)),
                static_cast<unsigned>(rng.nextBelow(p.bankSpread)),
                lo + rng.nextBelow(32), lo + rng.nextBelow(4), true, lo,
                lo + 32);
        }
        now += kMemTick * (1 + rng.nextBelow(3));
        dram.tick(now);
    }

    // Drain.
    Cycle deadline = now + 4'000'000;
    while ((done.requests.size() < submitted ||
            done.migrations.size() < migrations_started) &&
           now < deadline) {
        now += kMemTick;
        dram.tick(now);
    }
    EXPECT_EQ(done.requests.size(), submitted);
    EXPECT_EQ(done.migrations.size(), migrations_started);
    EXPECT_FALSE(dram.busy());

    // Sanity on the operation counts.
    EnergyBreakdown e = dram.energyBreakdown();
    EXPECT_EQ(e.reads + e.writes, submitted);
    EXPECT_EQ(e.swaps, done.migrations.size());
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, DramStress,
    ::testing::Values(
        // Row-buffer friendly single-bank hammer.
        StressParams{2000, 1, 4, 0.0, false, 1},
        // Bank-parallel random reads.
        StressParams{3000, 8, 1024, 0.0, false, 2},
        // Read/write mix with turnarounds.
        StressParams{3000, 8, 256, 0.4, false, 3},
        // Everything plus concurrent migrations.
        StressParams{4000, 8, 512, 0.3, true, 4},
        // Write-dominated drain behaviour.
        StressParams{2000, 4, 128, 0.9, true, 5}));

TEST(DramStressRefresh, LongIdleWithPeriodicTrafficRefreshes)
{
    DramGeometry geom;
    DramTiming timing = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    DramSystem dram(geom, timing, cls);
    CompletionRecorder done;
    dram.setCompletionSink(&done);

    Cycle now = 0;
    // Sparse traffic over many refresh intervals.
    for (int burst = 0; burst < 12; ++burst) {
        DramLoc loc{0, 0, 0, static_cast<std::uint64_t>(burst), 0};
        auto req = std::make_unique<MemRequest>(
            dram.mapper().encode(loc), false, 0);
        req->loc = loc;
        dram.submit(std::move(req), now);
        now += timing.tREFI * kMemTick; // one refresh interval apart
        dram.tick(now);
    }
    EXPECT_EQ(done.requests.size(), 12u);
    // Both ranks of channel 0 kept refreshing throughout.
    EXPECT_GE(dram.channel(0).rank(0).refreshCount(), 10u);
    EXPECT_GE(dram.channel(0).rank(1).refreshCount(), 10u);
}
