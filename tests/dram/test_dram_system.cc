/**
 * @file
 * Tests for the multi-channel DRAM system wrapper: routing, clock
 * domain conversion, forwarding and energy accounting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "completion_recorder.hh"
#include "dram/cmd_trace.hh"
#include "dram/dram_system.hh"

using namespace dasdram;

namespace
{

struct SystemHarness
{
    SystemHarness()
        : timing(ddr3_1600Timing()), classifier(RowClass::Slow),
          dram(geom, timing, classifier)
    {
        dram.setCompletionSink(&done);
    }

    Cycle
    readLine(Addr addr, Cycle start = 0)
    {
        const std::size_t before = done.requests.size();
        auto req = std::make_unique<MemRequest>(addr, false, 0);
        req->loc = dram.decode(addr);
        dram.submit(std::move(req), start);
        for (Cycle t = start;
             t < start + 200000 && done.requests.size() == before;
             t += kMemTick) {
            dram.tick(t);
        }
        return done.requests.size() == before ? kCycleMax
                                              : done.requests.back().at;
    }

    DramGeometry geom;
    DramTiming timing;
    UniformRowClassifier classifier;
    DramSystem dram;
    CompletionRecorder done;
};

} // namespace

TEST(DramSystem, CompletionReportedInTicks)
{
    SystemHarness h;
    Cycle done = h.readLine(0x10000);
    ASSERT_NE(done, kCycleMax);
    EXPECT_EQ(done % kMemTick, 0u); // mem-cycle aligned
    // Roughly tRCD + tCL + tBL memory cycles.
    Cycle expect_mem =
        h.timing.slow.tRCD + h.timing.slow.tCL + h.timing.tBL;
    EXPECT_NEAR(static_cast<double>(done) / kMemTick,
                static_cast<double>(expect_mem), 4.0);
}

TEST(DramSystem, RoutesToCorrectChannel)
{
    SystemHarness h;
    // Find two addresses in different channels.
    Addr a0 = 0;
    Addr a1 = h.geom.rowBytes; // next 8 KB block → other channel
    ASSERT_NE(h.dram.decode(a0).channel, h.dram.decode(a1).channel);
    h.readLine(a0);
    h.readLine(a1, 100000 * kMemTick);
    EXPECT_EQ(h.dram.channel(0).readCount() +
                  h.dram.channel(1).readCount(),
              2u);
    EXPECT_EQ(h.dram.channel(0).readCount(), 1u);
}

TEST(DramSystem, WriteForwardingServesReadQuickly)
{
    SystemHarness h;
    Addr addr = 0x40000;
    auto wr = std::make_unique<MemRequest>(addr, true, 0);
    wr->loc = h.dram.decode(addr);
    h.dram.submit(std::move(wr), 0);

    auto rd = std::make_unique<MemRequest>(addr, false, 0);
    rd->loc = h.dram.decode(addr);
    h.dram.submit(std::move(rd), 0);
    // Forwarded synchronously: completed without any tick.
    ASSERT_EQ(h.done.requests.size(), 1u);
    EXPECT_EQ(h.done.requests[0].location, ServiceLocation::RowBuffer);
    EXPECT_LE(h.done.requests[0].at / kMemTick,
              h.timing.slow.tCL + h.timing.tBL + 1);
}

TEST(DramSystem, BusyReflectsOutstandingWork)
{
    SystemHarness h;
    EXPECT_FALSE(h.dram.busy());
    auto req = std::make_unique<MemRequest>(0x1000, false, 0);
    req->loc = h.dram.decode(0x1000);
    h.dram.submit(std::move(req), 0);
    EXPECT_TRUE(h.dram.busy());
}

TEST(DramSystem, NextWakeTickAdvancesWhenIdle)
{
    SystemHarness h;
    // Idle system: next wake is the first refresh.
    Cycle wake = h.dram.nextWakeTick(0);
    EXPECT_EQ(wake, h.timing.tREFI * kMemTick);
}

TEST(DramSystem, EnergyBreakdownCountsOperations)
{
    SystemHarness h;
    h.readLine(0x2000);
    EnergyBreakdown e = h.dram.energyBreakdown();
    EXPECT_EQ(e.reads, 1u);
    EXPECT_EQ(e.actsSlow, 1u);
    EXPECT_EQ(e.actsFast, 0u);
    EnergyParams p;
    EXPECT_GT(e.totalNj(p), 0.0);
    EXPECT_GT(e.perAccessNj(p), 0.0);
}

TEST(DramSystem, MigrationApiCompletesInTicks)
{
    SystemHarness h;
    h.dram.startMigration(0, 0, 0, 3, 9, true, 0, 32);
    for (Cycle t = 0; t < 100000 && h.done.migrations.empty();
         t += kMemTick)
        h.dram.tick(t);
    ASSERT_EQ(h.done.migrations.size(), 1u);
    EXPECT_GE(h.done.migrations[0] / kMemTick, h.timing.swapCycles);
}

TEST(EnergyModel, FastActivationCheaper)
{
    EnergyParams p;
    EnergyBreakdown slow{1000, 0, 1000, 0, 0, 0};
    EnergyBreakdown fast{0, 1000, 1000, 0, 0, 0};
    EXPECT_LT(fast.totalNj(p), slow.totalNj(p));
}

namespace
{

/** Captures every command record in arrival order. */
class RecordingCommandSink : public CommandSink
{
  public:
    void onCommand(const CmdRecord &rec) override
    {
        records.push_back(rec);
    }
    std::vector<CmdRecord> records;
};

} // namespace

// Any external command sink (Chrome trace, command trace, checker)
// observes the catch-up loop's order: cycles non-decreasing, and
// equal-cycle records in channel index order (the loop visits channels
// in index order each cycle).
TEST(DramSystem, CommandStreamIsOrderedByCycleThenChannel)
{
    DramGeometry geom;
    DramTiming timing = ddr3_1600Timing();
    UniformRowClassifier classifier(RowClass::Slow);
    DramSystem dram(geom, timing, classifier);
    RecordingCommandSink sink;
    dram.setCommandSink(&sink);
    CompletionRecorder done;
    dram.setCompletionSink(&done);

    unsigned submitted = 0;
    Cycle t = 0;
    // A staggered burst across both channels and several banks keeps
    // multiple channels busy in the same cycles.
    for (unsigned wave = 0; wave < 6; ++wave) {
        for (unsigned i = 0; i < 8; ++i) {
            Addr addr = (static_cast<Addr>(wave * 8 + i) * 0x4340) &
                        ~static_cast<Addr>(63);
            auto req = std::make_unique<MemRequest>(addr, false, 0);
            req->loc = dram.decode(addr);
            if (!dram.canAccept(req->loc, false))
                continue;
            dram.submit(std::move(req), t);
            ++submitted;
        }
        for (unsigned c = 0; c < 40; ++c) {
            t += kMemTick;
            dram.tick(t);
        }
    }
    for (unsigned c = 0; c < 20000 && done.requests.size() < submitted;
         ++c) {
        t += kMemTick;
        dram.tick(t);
    }
    ASSERT_GT(submitted, 0u);
    ASSERT_EQ(done.requests.size(), submitted);
    ASSERT_GT(sink.records.size(), submitted); // ACT+RD at least

    for (std::size_t i = 1; i < sink.records.size(); ++i) {
        const CmdRecord &prev = sink.records[i - 1];
        const CmdRecord &cur = sink.records[i];
        ASSERT_LE(prev.cycle, cur.cycle)
            << "record " << i << " issued out of cycle order";
        if (prev.cycle == cur.cycle) {
            ASSERT_LE(prev.channel, cur.channel)
                << "equal-cycle records " << i - 1 << "," << i
                << " not in channel order";
        }
    }
}

/** nextWakeMemCycle is the mem-cycle primitive behind nextWakeTick. */
TEST(DramSystem, NextWakeMemCycleMatchesTickDomain)
{
    DramGeometry geom;
    const DramTiming timing = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    DramSystem dram(geom, timing, cls, {});
    EXPECT_EQ(dram.nextWakeMemCycle(0), timing.tREFI);
    EXPECT_EQ(dram.nextWakeTick(0), timing.tREFI * kMemTick);
}
