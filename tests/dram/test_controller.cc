/**
 * @file
 * Integration-style tests for the channel controller: request service,
 * FR-FCFS behaviour, write handling, refresh and migrations.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dram/controller.hh"

using namespace dasdram;

namespace
{

/** Drives one controller and is its completion sink. */
struct ControllerHarness : CompletionSink
{
    ControllerHarness(ControllerConfig cfg = {},
                      RowClass cls = RowClass::Slow)
        : geom(), timing(ddr3_1600Timing()), classifier(cls),
          ctrl(0, geom, timing, classifier, cfg)
    {
        ctrl.setCompletionSink(this);
    }

    /** Submit a request; its id indexes its entry in completions. */
    void
    submit(std::uint64_t row, std::uint64_t col, bool write, Cycle now,
           unsigned rank = 0, unsigned bank = 0)
    {
        auto req = std::make_unique<MemRequest>(0, write, 0);
        req->id = completions.size();
        req->loc = DramLoc{0, rank, bank, row, col};
        req->addr = (row * 1000 + col) * 64; // unique-ish line id
        completions.emplace_back(kCycleMax, ServiceLocation::Unknown);
        ctrl.enqueue(std::move(req), now);
    }

    void
    onRequestDone(MemRequest &r, Cycle at) override
    {
        completions[r.id] = {at, r.location};
    }

    void
    onMigrationDone(const MigrationJob &, Cycle at) override
    {
        jobDoneAt = at;
    }

    /** Tick up to and including @p until. */
    void
    runTo(Cycle until)
    {
        for (; now <= until; ++now)
            ctrl.tick(now);
    }

    /** Tick until all submitted requests completed (or limit). */
    void
    drain(Cycle limit = 100000)
    {
        while (now < limit) {
            ctrl.tick(now);
            ++now;
            bool all = true;
            for (auto &c : completions)
                all = all && c.first != kCycleMax;
            if (all && !ctrl.busy())
                return;
        }
    }

    DramGeometry geom;
    DramTiming timing;
    UniformRowClassifier classifier;
    ChannelController ctrl;
    std::vector<std::pair<Cycle, ServiceLocation>> completions;
    Cycle jobDoneAt = 0;
    Cycle now = 0;
};

} // namespace

TEST(Controller, SingleReadLatency)
{
    ControllerHarness h;
    h.submit(5, 0, false, 0);
    h.drain();
    ASSERT_NE(h.completions[0].first, kCycleMax);
    // ACT at ~1 + tRCD + tCL + tBL.
    Cycle expected = 1 + h.timing.slow.tRCD + h.timing.slow.tCL +
                     h.timing.tBL;
    EXPECT_NEAR(static_cast<double>(h.completions[0].first),
                static_cast<double>(expected), 2.0);
    EXPECT_EQ(h.completions[0].second, ServiceLocation::SlowLevel);
    EXPECT_EQ(h.ctrl.readCount(), 1u);
    EXPECT_EQ(h.ctrl.actCountSlow(), 1u);
}

TEST(Controller, FastClassifierGivesFastService)
{
    ControllerHarness h({}, RowClass::Fast);
    h.submit(5, 0, false, 0);
    h.drain();
    EXPECT_EQ(h.completions[0].second, ServiceLocation::FastLevel);
    EXPECT_EQ(h.ctrl.actCountFast(), 1u);
    EXPECT_EQ(h.ctrl.actCountSlow(), 0u);
}

TEST(Controller, RowHitServedWithoutSecondActivate)
{
    ControllerHarness h;
    h.submit(5, 0, false, 0);
    h.submit(5, 1, false, 0);
    h.drain();
    EXPECT_EQ(h.ctrl.actCountSlow(), 1u);
    EXPECT_EQ(h.ctrl.rowHits(), 1u);
    EXPECT_EQ(h.completions[1].second, ServiceLocation::RowBuffer);
    EXPECT_GT(h.completions[1].first, h.completions[0].first);
}

TEST(Controller, RowConflictPrechargesAndReactivates)
{
    ControllerHarness h;
    h.submit(5, 0, false, 0);
    h.submit(9, 0, false, 0);
    h.drain();
    EXPECT_EQ(h.ctrl.actCountSlow(), 2u);
    // Second request waits at least tRAS + tRP + tRCD after first ACT.
    Cycle min_gap = h.timing.slow.tRC + h.timing.slow.tRCD;
    EXPECT_GE(h.completions[1].first,
              h.completions[0].first + min_gap -
                  (h.timing.slow.tCL + h.timing.tBL));
}

TEST(Controller, FrFcfsPrefersRowHitOverOlderConflict)
{
    ControllerHarness h;
    h.submit(5, 0, false, 0); // opens row 5
    h.runTo(h.timing.slow.tRCD + 2);
    h.submit(9, 0, false, h.now);  // older conflicting request
    h.submit(5, 3, false, h.now);  // younger row hit
    h.drain();
    // The row hit (index 2) must complete before the conflict (1).
    EXPECT_LT(h.completions[2].first, h.completions[1].first);
}

TEST(Controller, WritesDrainAndComplete)
{
    ControllerHarness h;
    for (std::uint64_t i = 0; i < 4; ++i)
        h.submit(3, i, true, 0);
    h.drain();
    EXPECT_EQ(h.ctrl.writeCount(), 4u);
    for (auto &c : h.completions)
        EXPECT_NE(c.first, kCycleMax);
}

TEST(Controller, WriteQueuedVisibleForForwarding)
{
    ControllerHarness h;
    h.submit(3, 1, true, 0);
    EXPECT_TRUE(h.ctrl.writeQueued((3 * 1000 + 1) * 64));
    EXPECT_FALSE(h.ctrl.writeQueued(0x999999));
}

TEST(Controller, QueueCapacityRespected)
{
    ControllerConfig cfg;
    cfg.readQueueDepth = 2;
    ControllerHarness h(cfg);
    EXPECT_TRUE(h.ctrl.canAccept(false));
    h.submit(1, 0, false, 0);
    h.submit(2, 0, false, 0);
    EXPECT_FALSE(h.ctrl.canAccept(false));
    EXPECT_TRUE(h.ctrl.canAccept(true)); // write queue separate
    h.drain();
    EXPECT_TRUE(h.ctrl.canAccept(false));
}

TEST(ControllerDeathTest, QueueDepthsAndWatermarksAreChecked)
{
    // The fuzz grid's tiny-queues corner is the smallest legal shape.
    ControllerConfig tiny;
    tiny.readQueueDepth = 4;
    tiny.writeQueueDepth = 4;
    tiny.writeHighWatermark = 3;
    tiny.writeLowWatermark = 1;
    ControllerHarness ok(tiny);
    EXPECT_TRUE(ok.ctrl.canAccept(true));

    auto expect_fatal = [](void (*edit)(ControllerConfig &),
                           const std::string &got) {
        ControllerConfig cfg;
        edit(cfg);
        EXPECT_DEATH(ControllerHarness{cfg},
                     "channel 0 controller: need readQueueDepth >= 1, "
                     "writeQueueDepth >= 1 and writeLowWatermark < "
                     "writeHighWatermark <= writeQueueDepth; got .*" +
                         got);
    };
    // A zero depth accepted nothing: reads hung, writes were dropped.
    expect_fatal([](ControllerConfig &c) { c.readQueueDepth = 0; },
                 "readQueueDepth 0, writeQueueDepth 32, "
                 "writeLowWatermark 8, writeHighWatermark 24");
    expect_fatal([](ControllerConfig &c) { c.writeQueueDepth = 0; },
                 "readQueueDepth 32, writeQueueDepth 0,");
    // A high watermark the queue cannot reach never starts a drain.
    expect_fatal([](ControllerConfig &c) { c.writeHighWatermark = 33; },
                 "writeQueueDepth 32, writeLowWatermark 8, "
                 "writeHighWatermark 33");
    expect_fatal([](ControllerConfig &c) { c.writeLowWatermark = 24; },
                 "writeLowWatermark 24, writeHighWatermark 24");
}

TEST(Controller, RefreshHappensPeriodically)
{
    ControllerHarness h;
    h.runTo(h.timing.tREFI + h.timing.tRFC + 10);
    EXPECT_GE(h.ctrl.rank(0).refreshCount(), 1u);
    EXPECT_GE(h.ctrl.rank(1).refreshCount(), 1u);
}

TEST(Controller, RefreshDisabledByConfig)
{
    ControllerConfig cfg;
    cfg.refreshEnabled = false;
    ControllerHarness h(cfg);
    h.runTo(2 * h.timing.tREFI);
    EXPECT_EQ(h.ctrl.rank(0).refreshCount(), 0u);
}

TEST(Controller, MigrationCompletesAndReportsCycle)
{
    ControllerHarness h;
    MigrationJob job;
    job.rank = 0;
    job.bank = 0;
    job.rowA = 10;
    job.rowB = 20;
    job.rowLo = 0;
    job.rowHi = 32;
    h.ctrl.addMigration(std::move(job));
    EXPECT_EQ(h.ctrl.pendingMigrations(), 1u);
    // Started (the bank is reserved) but not finished: still pending.
    h.runTo(5);
    ASSERT_TRUE(h.ctrl.rank(0).bank(0).reserved(h.now));
    EXPECT_EQ(h.jobDoneAt, 0u);
    EXPECT_EQ(h.ctrl.pendingMigrations(), 1u);
    h.drain();
    EXPECT_EQ(h.ctrl.pendingMigrations(), 0u);
    EXPECT_GT(h.jobDoneAt, 0u);
    EXPECT_GE(h.jobDoneAt, h.timing.swapCycles);
    EXPECT_EQ(h.ctrl.migrationCount(), 1u);
}

TEST(Controller, MigrationBlocksGroupRowsButNotOthers)
{
    ControllerConfig cfg;
    cfg.migrationMaxDefer = 0; // start immediately
    ControllerHarness h(cfg);
    MigrationJob job;
    job.rank = 0;
    job.bank = 0;
    job.rowA = 10;
    job.rowB = 4;
    job.rowLo = 0;
    job.rowHi = 32;
    h.ctrl.addMigration(std::move(job));
    h.runTo(3); // migration reserved
    // A request to a blocked row waits until the swap ends; a request
    // to another bank region completes quickly.
    h.submit(16, 0, false, h.now); // inside [0,32), not exempt
    h.submit(100, 0, false, h.now);
    h.drain();
    EXPECT_GT(h.completions[0].first,
              h.timing.swapCycles); // waited out the swap
    EXPECT_LT(h.completions[1].first, h.timing.swapCycles);
}

TEST(Controller, MigrationDefersToPendingGroupRequests)
{
    ControllerHarness h; // default defer budget
    h.submit(16, 0, false, 0);
    MigrationJob job;
    job.rank = 0;
    job.bank = 0;
    job.rowA = 10;
    job.rowB = 4;
    job.rowLo = 0;
    job.rowHi = 32;
    h.ctrl.addMigration(std::move(job));
    h.drain();
    // The demand read completed before the migration finished.
    EXPECT_LT(h.completions[0].first, h.jobDoneAt);
}
