/**
 * @file
 * Scheduler exactness tests for the channel controller, all on
 * per-cycle ticking.
 *
 * Two layers:
 *  1. A write-drain regression: a DramSystem driven through its public
 *     tick-domain interface must issue the same command stream as a
 *     bare ChannelController ticked every memory cycle, across the
 *     cycle on which the write-drain hysteresis flips.
 *  2. Directed tests pinning the exact issue cycle after every bank,
 *     rank and bus state change the scheduler must see: ACT, conflict
 *     PRE, refresh start/end, migration issue/complete (including
 *     reservation-exempt rows) and the row-class dependence. A
 *     scheduling check that ran late, or was skipped while it could
 *     pass, would delay one of these commands and fail the test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "completion_recorder.hh"
#include "core/subarray_layout.hh"
#include "dram/controller.hh"
#include "dram/dram_system.hh"

using namespace dasdram;

namespace
{

/** Buffers every record; equality-comparable via render(). */
struct RecordingSink : CommandSink
{
    std::vector<CmdRecord> records;
    void onCommand(const CmdRecord &rec) override
    {
        records.push_back(rec);
    }

    std::string
    render() const
    {
        std::ostringstream os;
        for (const CmdRecord &r : records) {
            os << r.cycle << ' ' << toString(r.cmd) << " ra" << r.rank
               << " ba" << r.bank << " row=" << r.row
               << " col=" << r.column
               << " cls=" << static_cast<int>(r.rowClass)
               << " id=" << r.migrationId << '\n';
        }
        return os.str();
    }

    /** Issue cycle of the @p n-th command of kind @p cmd (1-based). */
    Cycle
    cmdCycle(DramCommand cmd, unsigned n = 1) const
    {
        for (const CmdRecord &r : records) {
            if (r.cmd == cmd && --n == 0)
                return r.cycle;
        }
        return kCycleMax;
    }
};

/** One request of a scripted stream, all in bank 0 of rank 0. */
struct Arrival
{
    Cycle cycle = 0;
    bool isWrite = false;
    std::uint64_t row = 0;
    std::uint64_t column = 0;
};

std::unique_ptr<MemRequest>
makeRequest(const Arrival &a, std::uint64_t id, const DramGeometry &geom)
{
    auto req = std::make_unique<MemRequest>();
    req->id = id;
    req->addr = static_cast<Addr>(id) * geom.lineBytes; // no forwarding
    req->isWrite = a.isWrite;
    req->loc = DramLoc{0, 0, 0, a.row, a.column};
    return req;
}

struct StreamRun
{
    RecordingSink cmds;
    CompletionRecorder done; ///< completion times in memory cycles
};

/** The reference: a bare controller ticked on every memory cycle. */
void
runPerCycle(const std::vector<Arrival> &stream, const DramGeometry &geom,
            const DramTiming &timing, const RowClassifier &cls,
            Cycle end, StreamRun &out)
{
    ChannelController ctrl(0, geom, timing, cls, ControllerConfig{});
    ctrl.setCommandSink(&out.cmds);
    ctrl.setCompletionSink(&out.done);
    std::size_t next = 0;
    for (Cycle now = 0; now <= end; ++now) {
        while (next < stream.size() && stream[next].cycle == now) {
            ctrl.enqueue(makeRequest(stream[next], next + 1, geom), now);
            ++next;
        }
        if (now > 0)
            ctrl.tick(now);
    }
}

/** The production path: DramSystem::submit / tick in global ticks. */
void
runDramSystem(const std::vector<Arrival> &stream, const DramGeometry &geom,
              const DramTiming &timing, const RowClassifier &cls,
              Cycle end, StreamRun &out)
{
    DramSystem dram(geom, timing, cls);
    dram.setCommandSink(&out.cmds);
    CompletionRecorder ticks;
    dram.setCompletionSink(&ticks);
    std::size_t next = 0;
    for (Cycle now = 0; now <= end; ++now) {
        while (next < stream.size() && stream[next].cycle == now) {
            dram.submit(makeRequest(stream[next], next + 1, geom),
                        now * kMemTick);
            ++next;
        }
        dram.tick(now * kMemTick);
    }
    for (CompletionRecorder::Done d : ticks.requests) {
        d.at /= kMemTick;
        out.done.requests.push_back(d);
    }
}

} // namespace

/**
 * Write-drain flip regression. A read to one row and more than
 * writeLowWatermark (but fewer than writeHighWatermark) writes to a
 * conflicting row of the same bank arrive together. The read is served
 * first, which empties the read queue, and on the next cycle the
 * controller starts draining writes. A second read to the writes' row
 * then arrives before the writes' PRE is allowed. Both queues share
 * that PRE and the ACT after it, so the drain state decides which
 * column command goes first: draining writes keep priority, so a WR
 * precedes the second RD. A DramSystem that skipped the cycles between
 * the first RD and the next wake never saw the read queue empty, kept
 * reads primary and issued the RD first.
 */
TEST(WriteDrain, DramSystemMatchesPerCycleControllerAcrossDrainFlip)
{
    DramGeometry geom;
    geom.channels = 1;
    const DramTiming timing = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    const ControllerConfig cfg;
    const unsigned writes = cfg.writeLowWatermark + 4;
    ASSERT_LT(writes, cfg.writeHighWatermark);

    std::vector<Arrival> stream;
    stream.push_back({0, false, 5, 0});
    for (unsigned i = 0; i < writes; ++i)
        stream.push_back({0, true, 9, 1 + i});

    // Probe the stream alone for the first read's RD and completion
    // and the writes' first command (the conflict PRE).
    const Cycle end = 800;
    StreamRun probe;
    runPerCycle(stream, geom, timing, cls, end, probe);
    const Cycle rd1 = probe.cmds.cmdCycle(DramCommand::RD);
    const Cycle pre = probe.cmds.cmdCycle(DramCommand::PRE);
    ASSERT_EQ(probe.done.requests.size(), stream.size());
    ASSERT_EQ(probe.done.requests[0].id, 1u);
    const Cycle rd1_done = probe.done.requests[0].at;

    // The second read arrives after the read queue emptied, before
    // the writes' next ready cycle and before anything else happens.
    const Arrival late{rd1 + 2, false, 9, 100};
    ASSERT_LT(late.cycle, pre);
    ASSERT_LT(late.cycle, rd1_done);
    stream.push_back(late);

    StreamRun ref, sys;
    runPerCycle(stream, geom, timing, cls, end, ref);
    runDramSystem(stream, geom, timing, cls, end, sys);

    ASSERT_EQ(ref.done.requests.size(), stream.size()) << "did not drain";
    EXPECT_EQ(ref.cmds.cmdCycle(DramCommand::RD), rd1);
    EXPECT_EQ(ref.cmds.cmdCycle(DramCommand::PRE), pre);
    EXPECT_LT(ref.cmds.cmdCycle(DramCommand::WR),
              ref.cmds.cmdCycle(DramCommand::RD, 2))
        << "the drain that began when the read queue emptied must "
           "outlast the late read's arrival";

    EXPECT_EQ(sys.cmds.render(), ref.cmds.render());
    EXPECT_EQ(sys.done.requests, ref.done.requests);
}

namespace
{

/** Single-request directed harness, ticked every memory cycle. */
struct DirectedHarness
{
    explicit DirectedHarness(bool refresh = false,
                             const RowClassifier *classifier = nullptr)
        : timing(ddr3_1600Timing()), slowCls(RowClass::Slow)
    {
        // One rank: directed expectations then see a single refresh
        // schedule and no tRRD/tFAW cross-talk.
        geom.ranksPerChannel = 1;
        cfg.refreshEnabled = refresh;
        cfg.migrationMaxDefer = 0;
        ctrl = std::make_unique<ChannelController>(
            0, geom, timing, classifier ? *classifier : slowCls, cfg);
        ctrl->setCommandSink(&sink);
        ctrl->setCompletionSink(&done);
    }

    void
    enqueueRead(std::uint64_t row, Cycle at)
    {
        auto req = std::make_unique<MemRequest>();
        req->id = nextId++;
        req->addr = static_cast<Addr>(req->id) * geom.lineBytes;
        req->loc.channel = 0;
        req->loc.rank = 0;
        req->loc.bank = 0;
        req->loc.row = row;
        ctrl->enqueue(std::move(req), at);
    }

    /** Tick every cycle after the last one ticked, up to @p stop. */
    void
    runTo(Cycle stop)
    {
        while (now < stop)
            ctrl->tick(++now);
    }

    DramGeometry geom;
    DramTiming timing;
    UniformRowClassifier slowCls;
    ControllerConfig cfg;
    RecordingSink sink;
    std::unique_ptr<ChannelController> ctrl;
    CompletionRecorder done;
    std::uint64_t nextId = 1;
    Cycle now = 0; ///< last cycle ticked
};

} // namespace

/**
 * ACT edge: issuing the ACT moves the request's next command from
 * "ACT now" to the column window opened by that ACT, and the RD lands
 * exactly on the tRCD boundary.
 */
TEST(IssueCycle, ActMovesHorizonToColumnWindow)
{
    DirectedHarness h;
    h.enqueueRead(5, 0);
    const Cycle rd_at = 1 + h.timing.slow.tRCD;
    const Cycle done = rd_at + h.timing.slow.tCL + h.timing.tBL;
    h.runTo(done + 10);

    EXPECT_EQ(h.sink.cmdCycle(DramCommand::ACT), 1u);
    EXPECT_EQ(h.sink.cmdCycle(DramCommand::RD), rd_at);
    ASSERT_EQ(h.done.requests.size(), 1u);
    EXPECT_EQ(h.done.requests[0].at, done);
    EXPECT_EQ(h.sink.records.size(), 2u);
}

/**
 * PRE edge: a row conflict must wait for max(tRAS after the ACT, tRTP
 * after the RD); the whole PRE → ACT → RD ladder then lands on the
 * exact cycles the timing derives.
 */
TEST(IssueCycle, ConflictPrechargeLadderIsExact)
{
    DirectedHarness h;
    h.enqueueRead(5, 0);
    const Cycle act1 = 1;
    const Cycle rd1 = act1 + h.timing.slow.tRCD;
    h.runTo(rd1);
    ASSERT_EQ(h.sink.cmdCycle(DramCommand::ACT), act1);
    ASSERT_EQ(h.sink.cmdCycle(DramCommand::RD), rd1);

    // Conflicting row in the same bank: PRE at max(tRAS, RD + tRTP).
    h.enqueueRead(9, rd1);
    const Cycle pre_expect =
        std::max(act1 + h.timing.slow.tRAS, rd1 + h.timing.tRTP);
    const Cycle act2_expect =
        std::max({pre_expect + 1, act1 + h.timing.slow.tRC,
                  pre_expect + h.timing.slow.tRP});
    const Cycle rd2_expect = act2_expect + h.timing.slow.tRCD;
    h.runTo(rd2_expect + h.timing.slow.tCL + h.timing.tBL);

    EXPECT_EQ(h.sink.cmdCycle(DramCommand::PRE), pre_expect);
    EXPECT_EQ(h.sink.cmdCycle(DramCommand::ACT, 2), act2_expect);
    EXPECT_EQ(h.sink.cmdCycle(DramCommand::RD, 2), rd2_expect);
    ASSERT_EQ(h.done.requests.size(), 2u);
    EXPECT_EQ(h.done.requests[1].at,
              rd2_expect + h.timing.slow.tCL + h.timing.tBL);
}

/**
 * Refresh start/end edges: an idle channel refreshes exactly at tREFI;
 * a request arriving mid-tRFC activates exactly when the refresh
 * window closes.
 */
TEST(IssueCycle, RefreshWindowGatesActivation)
{
    DirectedHarness h(/*refresh=*/true);
    h.runTo(h.timing.tREFI);
    const Cycle ref_at = h.sink.cmdCycle(DramCommand::REF);
    ASSERT_EQ(ref_at, h.timing.tREFI);

    h.enqueueRead(5, ref_at);
    const Cycle act_at = ref_at + h.timing.tRFC;
    h.runTo(act_at + h.timing.slow.tRCD);
    EXPECT_EQ(h.sink.cmdCycle(DramCommand::ACT), act_at);
    EXPECT_EQ(h.sink.cmdCycle(DramCommand::RD), act_at + h.timing.slow.tRCD);
}

/**
 * Migration issue/complete edges, including reservation-exempt rows:
 * a blocked row's first command lands exactly at the reservation end;
 * the two rows being swapped stay serviceable mid-migration.
 */
TEST(IssueCycle, MigrationReservationBlocksAllButExemptRows)
{
    DirectedHarness h;
    MigrationJob job;
    job.rank = 0;
    job.bank = 0;
    job.rowA = 40;
    job.rowB = 2;
    job.rowLo = 0;
    job.rowHi = 64;
    h.ctrl->addMigration(std::move(job));

    h.runTo(1);
    ASSERT_EQ(h.sink.cmdCycle(DramCommand::MIGRATE), 1u);
    const Cycle res_end = 1 + h.timing.swapCycles;

    h.enqueueRead(10, 1); // blocked: inside [0, 64)
    h.runTo(2);
    h.enqueueRead(40, 2); // exempt: one of the two rows being swapped
    h.runTo(res_end + h.timing.slow.tRC + 2 * h.timing.slow.tRCD +
            h.timing.slow.tCL + h.timing.tBL);

    // The exempt row activates on the cycle after it arrives and
    // completes inside the reservation window...
    EXPECT_EQ(h.sink.cmdCycle(DramCommand::ACT), 3u);
    ASSERT_EQ(h.done.requests.size(), 2u);
    EXPECT_EQ(h.done.requests[0].id, 2u);
    EXPECT_LT(h.done.requests[0].at, res_end);
    // ...the blocked row closes it exactly when the reservation ends,
    // and the job finished on time.
    EXPECT_EQ(h.sink.cmdCycle(DramCommand::PRE), res_end);
    EXPECT_EQ(h.done.requests[1].id, 1u);
    EXPECT_GT(h.done.requests[1].at, res_end);
    ASSERT_EQ(h.done.migrations.size(), 1u);
    EXPECT_EQ(h.done.migrations[0], res_end);
}

/**
 * Row-class edge: the column window must track the class of the
 * activated row — fast rows open tRCD_fast after the ACT, slow rows
 * tRCD_slow, under the same asymmetric layout.
 */
TEST(IssueCycle, RowClassSelectsColumnWindow)
{
    DramGeometry geom;
    LayoutConfig lcfg;
    AsymmetricLayout layout(geom, lcfg);

    ASSERT_TRUE(layout.classify(0, 0, 0, 0) == RowClass::Fast);
    ASSERT_TRUE(layout.classify(0, 0, 0, 5) == RowClass::Slow);

    DirectedHarness fast(false, &layout);
    fast.enqueueRead(0, 0); // fast slot
    fast.runTo(1 + fast.timing.slow.tRCD);
    EXPECT_EQ(fast.sink.cmdCycle(DramCommand::ACT), 1u);
    EXPECT_EQ(fast.sink.cmdCycle(DramCommand::RD), 1 + fast.timing.fast.tRCD);

    DirectedHarness slow(false, &layout);
    slow.enqueueRead(5, 0); // slow slot
    slow.runTo(1 + slow.timing.slow.tRCD);
    EXPECT_EQ(slow.sink.cmdCycle(DramCommand::ACT), 1u);
    EXPECT_EQ(slow.sink.cmdCycle(DramCommand::RD), 1 + slow.timing.slow.tRCD);
}
