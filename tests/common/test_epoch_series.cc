/**
 * @file
 * Unit tests for EpochSeries: boundary emission, delta semantics,
 * multi-boundary fast-forward, warm-up restart and the end-of-run
 * flush of a trailing partial epoch.
 */

#include <gtest/gtest.h>

#include "common/epoch_series.hh"

using namespace dasdram;

namespace
{

/** A StatGroup with one counter and one histogram to track. */
struct Fixture
{
    StatGroup group{"sys"};
    Counter reads;
    Histogram lat;

    Fixture()
    {
        group.addCounter("reads", &reads);
        group.addHistogram("lat", &lat);
    }

    std::size_t
    nameIndex(const EpochSeries &s, const std::string &name) const
    {
        const auto &names = s.names();
        for (std::size_t i = 0; i < names.size(); ++i)
            if (names[i] == name)
                return i;
        ADD_FAILURE() << "no tracked name " << name;
        return 0;
    }
};

} // namespace

TEST(EpochSeries, TracksCountersAndHistMoments)
{
    Fixture f;
    EpochSeries s(f.group, 100);
    // Counters by name; dists/hists as .count and .sum.
    const auto &names = s.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "sys.reads");
    EXPECT_EQ(names[1], "sys.lat.count");
    EXPECT_EQ(names[2], "sys.lat.sum");
}

TEST(EpochSeries, EmitsDeltasPerEpoch)
{
    Fixture f;
    EpochSeries s(f.group, 100);

    f.reads.inc(5);
    f.lat.sample(10);
    s.maybeSample(50); // inside epoch 0: nothing emitted
    EXPECT_TRUE(s.epochs().empty());

    s.maybeSample(100); // epoch 0 [0, 100) closes
    ASSERT_EQ(s.epochs().size(), 1u);
    const auto &e0 = s.epochs()[0];
    EXPECT_EQ(e0.index, 0u);
    EXPECT_EQ(e0.start, 0u);
    EXPECT_EQ(e0.end, 100u);
    EXPECT_DOUBLE_EQ(e0.deltas[f.nameIndex(s, "sys.reads")], 5.0);
    EXPECT_DOUBLE_EQ(e0.deltas[f.nameIndex(s, "sys.lat.count")], 1.0);
    EXPECT_DOUBLE_EQ(e0.deltas[f.nameIndex(s, "sys.lat.sum")], 10.0);

    // Second epoch sees only the increments since the first boundary.
    f.reads.inc(2);
    s.maybeSample(200);
    ASSERT_EQ(s.epochs().size(), 2u);
    EXPECT_DOUBLE_EQ(
        s.epochs()[1].deltas[f.nameIndex(s, "sys.reads")], 2.0);
    EXPECT_DOUBLE_EQ(
        s.epochs()[1].deltas[f.nameIndex(s, "sys.lat.count")], 0.0);
}

TEST(EpochSeries, FastForwardAttributesDeltaToFirstElapsedEpoch)
{
    Fixture f;
    EpochSeries s(f.group, 100);
    f.reads.inc(7);
    s.maybeSample(350); // three whole epochs elapsed at once
    ASSERT_EQ(s.epochs().size(), 3u);
    EXPECT_DOUBLE_EQ(
        s.epochs()[0].deltas[f.nameIndex(s, "sys.reads")], 7.0);
    EXPECT_DOUBLE_EQ(
        s.epochs()[1].deltas[f.nameIndex(s, "sys.reads")], 0.0);
    EXPECT_DOUBLE_EQ(
        s.epochs()[2].deltas[f.nameIndex(s, "sys.reads")], 0.0);
    EXPECT_EQ(s.epochs()[2].start, 200u);
    EXPECT_EQ(s.epochs()[2].end, 300u);
}

TEST(EpochSeries, RestartRealignsAfterWarmupReset)
{
    Fixture f;
    EpochSeries s(f.group, 100);
    f.reads.inc(100);
    s.maybeSample(100);
    ASSERT_EQ(s.epochs().size(), 1u);

    // Warm-up end: the owner resets the stats and the series restarts.
    f.group.resetAll();
    s.restart(130);
    EXPECT_TRUE(s.epochs().empty()); // history discarded

    f.reads.inc(4);
    s.maybeSample(229); // boundary is base + 100 = 230: not yet
    EXPECT_TRUE(s.epochs().empty());
    s.maybeSample(230);
    ASSERT_EQ(s.epochs().size(), 1u);
    EXPECT_EQ(s.epochs()[0].index, 0u);
    EXPECT_EQ(s.epochs()[0].start, 130u);
    EXPECT_EQ(s.epochs()[0].end, 230u);
    // The post-reset baseline is the reset value, not the old one: the
    // delta is 4, not 4 - 100.
    EXPECT_DOUBLE_EQ(
        s.epochs()[0].deltas[f.nameIndex(s, "sys.reads")], 4.0);
}

TEST(EpochSeries, FlushEmitsTrailingPartialEpoch)
{
    Fixture f;
    EpochSeries s(f.group, 100);
    f.reads.inc(3);
    s.maybeSample(100);
    f.reads.inc(9);
    s.flush(140); // partial epoch [100, 140)
    ASSERT_EQ(s.epochs().size(), 2u);
    EXPECT_EQ(s.epochs()[1].start, 100u);
    EXPECT_EQ(s.epochs()[1].end, 140u);
    EXPECT_DOUBLE_EQ(
        s.epochs()[1].deltas[f.nameIndex(s, "sys.reads")], 9.0);
}

TEST(EpochSeries, FlushAtBoundaryEmitsNothingExtra)
{
    Fixture f;
    EpochSeries s(f.group, 100);
    f.reads.inc(1);
    s.maybeSample(200);
    std::size_t n = s.epochs().size();
    s.flush(200); // no time past the last boundary
    EXPECT_EQ(s.epochs().size(), n);
}

namespace
{

/**
 * Drives one EpochSeries through a fixed activity schedule: stats
 * mutate only at "active" cycles, and the stretches between them are
 * genuinely idle — the precondition for skipping them. @p unit
 * samples after every cycle, as System::run does; otherwise the
 * driver hops straight between active cycles, stopping only at the
 * epoch boundaries in between, as a cycle-skipping caller must. Both
 * observation patterns must yield identical epochs.
 */
std::vector<EpochSeries::Epoch>
runSchedule(bool unit, Cycle restart_at, Cycle end)
{
    Fixture f;
    EpochSeries s(f.group, 100);
    // Activity every 170 cycles (plus the restart cycle itself), so
    // consecutive hops cross one or two 100-cycle epoch boundaries
    // and land deep mid-epoch, one off a boundary, and on top of one.
    auto active = [&](Cycle c) {
        return c % 170 == 0 || c == restart_at;
    };
    auto mutate = [&](Cycle c) {
        f.reads.inc(1 + c % 3);
        if (c % 340 == 0)
            f.lat.sample(static_cast<double>(c % 41));
    };
    auto step = [&](Cycle c) {
        mutate(c);
        if (c == restart_at) {
            f.group.resetAll();
            s.restart(c);
        }
    };
    if (unit) {
        for (Cycle c = 0; c < end; ++c) {
            if (active(c))
                step(c);
            s.maybeSample(c + 1);
        }
    } else {
        Cycle c = 0;
        while (true) {
            // Emit every boundary the hop crossed before acting at
            // the landing cycle.
            while (s.nextBoundaryCycle() <= c)
                s.maybeSample(s.nextBoundaryCycle());
            if (c >= end)
                break;
            step(c);
            Cycle next = c + 1;
            while (next < end && !active(next))
                ++next;
            c = next;
        }
    }
    s.flush(end);
    return s.epochs();
}

void
expectSameSeries(const std::vector<EpochSeries::Epoch> &a,
                 const std::vector<EpochSeries::Epoch> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index) << "epoch " << i;
        EXPECT_EQ(a[i].start, b[i].start) << "epoch " << i;
        EXPECT_EQ(a[i].end, b[i].end) << "epoch " << i;
        ASSERT_EQ(a[i].deltas.size(), b[i].deltas.size());
        for (std::size_t j = 0; j < a[i].deltas.size(); ++j)
            EXPECT_DOUBLE_EQ(a[i].deltas[j], b[i].deltas[j])
                << "epoch " << i << " delta " << j;
    }
}

} // namespace

TEST(EpochSeries, SkipsCrossingBoundariesMatchUnitAdvancement)
{
    // No warm-up restart: a boundary-sampling skipper must reproduce
    // the unit-advanced series exactly, including the trailing
    // partial epoch from flush().
    auto unit = runSchedule(/*unit=*/true, /*restart_at=*/kCycleMax,
                            /*end=*/1517);
    auto skip = runSchedule(/*unit=*/false, kCycleMax, 1517);
    expectSameSeries(unit, skip);
}

TEST(EpochSeries, MidEpochRestartRealignsUnderCycleSkipping)
{
    // The warm-up reset lands mid-epoch (cycle 437 is deep inside
    // [400, 500)); the realigned grid starts there, and skips that
    // cross the post-restart boundaries must still match unit
    // advancement epoch for epoch.
    auto unit = runSchedule(/*unit=*/true, /*restart_at=*/437,
                            /*end=*/1517);
    auto skip = runSchedule(/*unit=*/false, 437, 1517);
    ASSERT_FALSE(unit.empty());
    EXPECT_EQ(unit[0].start, 437u); // grid realigned, not inherited
    EXPECT_EQ(unit[0].end, 537u);
    expectSameSeries(unit, skip);
}

TEST(EpochSeries, FlushAfterUnsampledSkipEmitsPendingThenPartial)
{
    // A caller that skipped past several boundaries without sampling
    // must still end with whole epochs first and at most one partial:
    // the delta collapses into the first pending epoch (the
    // documented coarse-grained fallback), never into the partial.
    Fixture f;
    EpochSeries s(f.group, 100);
    f.reads.inc(11);
    s.flush(730); // 7 whole epochs pending, then [700, 730)
    ASSERT_EQ(s.epochs().size(), 8u);
    EXPECT_DOUBLE_EQ(s.epochs()[0].deltas[f.nameIndex(s, "sys.reads")],
                     11.0);
    for (std::size_t i = 1; i < 8; ++i)
        EXPECT_DOUBLE_EQ(
            s.epochs()[i].deltas[f.nameIndex(s, "sys.reads")], 0.0);
    EXPECT_EQ(s.epochs()[7].start, 700u);
    EXPECT_EQ(s.epochs()[7].end, 730u);
}

TEST(EpochSeriesDeath, ZeroEpochLengthPanics)
{
    Fixture f;
    EXPECT_DEATH(EpochSeries(f.group, 0), "epoch length");
}
