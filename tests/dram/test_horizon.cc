/**
 * @file
 * Horizon-tightness and readiness-cache tests for the channel
 * controller.
 *
 * Two layers:
 *  1. A property test: under randomized traffic, nextWakeCycle never
 *     overshoots the first cycle at which a per-cycle tick reference
 *     does observable work (command issued, read completion fired,
 *     migration finished), and a skip-driven run that only ticks at
 *     horizon cycles reproduces the per-cycle run byte-for-byte.
 *  2. Directed tests pinning the exact post-transition horizon for
 *     every readiness-cache invalidation edge: ACT, conflict PRE,
 *     refresh start/end, migration issue/complete (including
 *     reservation-exempt rows) and the row-class dependence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "completion_recorder.hh"
#include "core/subarray_layout.hh"
#include "dram/controller.hh"

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
};

/** Pre-generated deterministic traffic, identical for both runs. */
struct Injection
{
    Cycle cycle = 0;
    bool isWrite = false;
    DramLoc loc;
};

struct MigInjection
{
    Cycle cycle = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t rowA = 0, rowB = 0, rowLo = 0, rowHi = 0;
    bool fullSwap = true;
};

struct Schedule
{
    std::vector<Injection> reqs;
    std::vector<MigInjection> migs;
    Cycle end = 0;
};

Schedule
makeSchedule(std::uint64_t seed, const DramGeometry &geom, unsigned nreqs,
             bool migrations)
{
    Rng rng(seed);
    Schedule s;
    const std::uint64_t columns = geom.rowBytes / geom.lineBytes;
    Cycle cy = 0;
    for (unsigned i = 0; i < nreqs; ++i) {
        cy += 1 + rng.nextBelow(25);
        Injection in;
        in.cycle = cy;
        in.isWrite = rng.chance(0.3);
        in.loc.channel = 0;
        in.loc.rank =
            static_cast<unsigned>(rng.nextBelow(geom.ranksPerChannel));
        in.loc.bank =
            static_cast<unsigned>(rng.nextBelow(geom.banksPerRank));
        in.loc.row = rng.nextBelow(96);
        in.loc.column = rng.nextBelow(columns);
        s.reqs.push_back(in);
        if (migrations && rng.chance(0.05)) {
            MigInjection m;
            m.cycle = cy + rng.nextBelow(10);
            m.rank = static_cast<unsigned>(
                rng.nextBelow(geom.ranksPerChannel));
            m.bank = static_cast<unsigned>(
                rng.nextBelow(geom.banksPerRank));
            std::uint64_t base = 32 * rng.nextBelow(3); // rows 0..95
            m.rowB = base + rng.nextBelow(4);           // fast slot
            m.rowA = base + 4 + rng.nextBelow(28);      // slow slot
            m.rowLo = base;
            m.rowHi = base + 32;
            m.fullSwap = rng.chance(0.7);
            s.migs.push_back(m);
        }
    }
    std::stable_sort(s.migs.begin(), s.migs.end(),
                     [](const MigInjection &a, const MigInjection &b) {
                         return a.cycle < b.cycle;
                     });
    s.end = cy + 150'000; // generous drain window (refresh + swaps)
    return s;
}

struct RunResult
{
    std::string trace;
    CompletionRecorder done;
    unsigned enqueued = 0;
    unsigned migsInjected = 0;
};

/**
 * Drive @p sched through one ChannelController. With @p skip false,
 * every memory cycle is ticked (the per-cycle reference) and the
 * horizon-tightness property is asserted; with @p skip true, only
 * cycles at or past the previously returned horizon are ticked.
 */
RunResult
runSchedule(const Schedule &sched, const ControllerConfig &cfg,
            const RowClassifier &cls, const DramGeometry &geom,
            const DramTiming &timing, bool skip)
{
    ChannelController ctrl(0, geom, timing, cls, cfg);
    RecordingSink sink;
    ctrl.setCommandSink(&sink);

    RunResult res;
    ctrl.setCompletionSink(&res.done);
    std::size_t ri = 0, mi = 0;
    std::uint64_t next_id = 1;
    Cycle next_wake = 1;
    Cycle max_pending = 0; // max horizon issued since last activity

    for (Cycle now = 1; now <= sched.end; ++now) {
        bool injected = false;
        while (ri < sched.reqs.size() && sched.reqs[ri].cycle <= now) {
            const Injection &in = sched.reqs[ri++];
            if (!ctrl.canAccept(in.isWrite))
                continue;
            auto req = std::make_unique<MemRequest>();
            req->id = next_id++;
            req->addr = static_cast<Addr>(req->id) * geom.lineBytes;
            req->isWrite = in.isWrite;
            req->loc = in.loc;
            ctrl.enqueue(std::move(req), now);
            ++res.enqueued;
            injected = true;
        }
        while (mi < sched.migs.size() && sched.migs[mi].cycle <= now) {
            const MigInjection &m = sched.migs[mi++];
            MigrationJob job;
            job.rank = m.rank;
            job.bank = m.bank;
            job.rowA = m.rowA;
            job.rowB = m.rowB;
            job.fullSwap = m.fullSwap;
            job.rowLo = m.rowLo;
            job.rowHi = m.rowHi;
            ctrl.addMigration(std::move(job));
            ++res.migsInjected;
            injected = true;
        }
        if (injected) {
            // External input: horizons computed before it cannot bound
            // what the new work does, and the skip run must re-probe.
            next_wake = now;
            max_pending = 0;
        }
        if (skip && now < next_wake)
            continue;

        const std::size_t cmds0 = sink.records.size();
        const std::size_t comp0 = res.done.requests.size();
        const std::size_t migs0 = res.done.migrations.size();
        ctrl.tick(now);
        const bool activity = sink.records.size() != cmds0 ||
                              res.done.requests.size() != comp0 ||
                              res.done.migrations.size() != migs0;
        if (!skip && activity) {
            EXPECT_LE(max_pending, now)
                << "nextWakeCycle overshot: a horizon claimed nothing "
                   "would happen before cycle "
                << max_pending << " but tick(" << now << ") did work";
            max_pending = 0;
        }
        const Cycle h = ctrl.nextWakeCycle(now);
        next_wake = std::max(now + 1, h);
        if (!skip)
            max_pending = std::max(max_pending, h);
    }

    res.trace = sink.render();
    return res;
}

/** One property-test corner: config mutator + classifier choice. */
struct HorizonCorner
{
    const char *name;
    bool heterogeneous; ///< AsymmetricLayout vs uniform slow
    bool migrations;
    void (*apply)(ControllerConfig &);
};

const HorizonCorner kCorners[] = {
    {"open_frfcfs", true, true, [](ControllerConfig &) {}},
    {"closed_page", true, true,
     [](ControllerConfig &c) { c.page = PagePolicy::Closed; }},
    {"fcfs_tiny_queues", false, true,
     [](ControllerConfig &c) {
         c.sched = SchedPolicy::Fcfs;
         c.readQueueDepth = 4;
         c.writeQueueDepth = 4;
         c.writeHighWatermark = 3;
         c.writeLowWatermark = 1;
     }},
    {"no_refresh_defer0", true, true,
     [](ControllerConfig &c) {
         c.refreshEnabled = false;
         c.migrationMaxDefer = 0;
     }},
};

class HorizonProperty : public ::testing::TestWithParam<HorizonCorner>
{
};

std::string
cornerName(const ::testing::TestParamInfo<HorizonCorner> &info)
{
    return info.param.name;
}

} // namespace

/**
 * The tentpole property: the reference run asserts no horizon ever
 * overshoots the next observable work, and the skip-driven run —
 * which trusts the horizons to elide every other cycle — reproduces
 * the reference command stream, completion times and migration
 * finishes exactly.
 */
TEST_P(HorizonProperty, SkipDrivenRunMatchesPerCycleReference)
{
    const HorizonCorner &corner = GetParam();
    DramGeometry geom;
    const DramTiming timing = ddr3_1600Timing();
    LayoutConfig lcfg;
    AsymmetricLayout layout(geom, lcfg);
    UniformRowClassifier slow(RowClass::Slow);
    const RowClassifier &cls =
        corner.heterogeneous ? static_cast<const RowClassifier &>(layout)
                             : static_cast<const RowClassifier &>(slow);

    ControllerConfig cfg;
    corner.apply(cfg);
    const Schedule sched =
        makeSchedule(0xda5d0 + 17, geom, 220, corner.migrations);

    RunResult ref = runSchedule(sched, cfg, cls, geom, timing, false);
    RunResult fast = runSchedule(sched, cfg, cls, geom, timing, true);

    EXPECT_GT(ref.enqueued, 0u);
    EXPECT_EQ(ref.done.requests.size(), ref.enqueued)
        << "reference run did not drain";
    EXPECT_EQ(ref.done.migrations.size(), ref.migsInjected);

    EXPECT_EQ(ref.enqueued, fast.enqueued);
    EXPECT_EQ(ref.done.requests, fast.done.requests);
    EXPECT_EQ(ref.done.migrations, fast.done.migrations);
    if (ref.trace != fast.trace) {
        // Readable first-divergence report instead of a full dump.
        std::istringstream a(ref.trace), b(fast.trace);
        std::string la, lb;
        std::size_t line = 0;
        while (true) {
            ++line;
            const bool ha = static_cast<bool>(std::getline(a, la));
            const bool hb = static_cast<bool>(std::getline(b, lb));
            if (!ha && !hb)
                break;
            ASSERT_TRUE(ha == hb && la == lb)
                << "trace divergence at line " << line << "\n  per-cycle: "
                << (ha ? la : "<eof>") << "\n  skip-driven: "
                << (hb ? lb : "<eof>");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Corners, HorizonProperty,
                         ::testing::ValuesIn(kCorners), cornerName);

namespace
{

/** Single-request directed harness with no refresh interference. */
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
    enqueueRead(std::uint64_t row, Cycle now, unsigned bank = 0)
    {
        auto req = std::make_unique<MemRequest>();
        req->id = nextId++;
        req->addr = static_cast<Addr>(req->id) * geom.lineBytes;
        req->loc.channel = 0;
        req->loc.rank = 0;
        req->loc.bank = bank;
        req->loc.row = row;
        ctrl->enqueue(std::move(req), now);
    }

    /** Skip-step through horizons until @p stop (inclusive). */
    void
    runTo(Cycle stop, Cycle from = 1)
    {
        Cycle now = from;
        while (now <= stop) {
            ctrl->tick(now);
            const Cycle w =
                std::max(now + 1, ctrl->nextWakeCycle(now));
            if (w > stop)
                break;
            now = w;
        }
    }

    /** Issue cycle of the @p n-th command of kind @p cmd (1-based). */
    Cycle
    cmdCycle(DramCommand cmd, unsigned n = 1) const
    {
        for (const CmdRecord &r : sink.records) {
            if (r.cmd == cmd && --n == 0)
                return r.cycle;
        }
        return kCycleMax;
    }

    DramGeometry geom;
    DramTiming timing;
    UniformRowClassifier slowCls;
    ControllerConfig cfg;
    RecordingSink sink;
    std::unique_ptr<ChannelController> ctrl;
    CompletionRecorder done;
    std::uint64_t nextId = 1;
};

} // namespace

/**
 * ACT edge: issuing the ACT must invalidate the request's cached ready
 * cycle — the horizon moves from "ACT next cycle" to the column window
 * opened by that ACT. A stale cache would keep reporting now + 1.
 */
TEST(ReadinessCache, ActMovesHorizonToColumnWindow)
{
    DirectedHarness h;
    h.enqueueRead(5, 0);
    EXPECT_EQ(h.ctrl->nextWakeCycle(0), 1u); // ACT issuable next cycle

    h.ctrl->tick(1);
    ASSERT_EQ(h.cmdCycle(DramCommand::ACT), 1u);
    const Cycle rd_at = 1 + h.timing.slow.tRCD;
    EXPECT_EQ(h.ctrl->nextWakeCycle(1), rd_at);

    // The skip-stepped RD must land exactly on the tRCD boundary, and
    // the post-RD horizon is the data-burst completion.
    h.runTo(rd_at, 2);
    ASSERT_EQ(h.cmdCycle(DramCommand::RD), rd_at);
    const Cycle done = rd_at + h.timing.slow.tCL + h.timing.tBL;
    EXPECT_EQ(h.ctrl->nextWakeCycle(rd_at), done);
    h.runTo(done, rd_at + 1);
    ASSERT_EQ(h.done.requests.size(), 1u);
    EXPECT_EQ(h.done.requests[0].at, done);
}

/**
 * PRE edge: a row conflict must wait for max(tRAS after the ACT, tRTP
 * after the RD); the whole PRE → ACT → RD ladder then lands on the
 * exact cycles the timing derives, under skip-stepping only.
 */
TEST(ReadinessCache, ConflictPrechargeLadderIsExact)
{
    DirectedHarness h;
    h.enqueueRead(5, 0);
    h.runTo(1, 1);
    const Cycle act1 = h.cmdCycle(DramCommand::ACT);
    ASSERT_EQ(act1, 1u);
    const Cycle rd1 = act1 + h.timing.slow.tRCD;
    h.runTo(rd1, act1 + 1);
    ASSERT_EQ(h.cmdCycle(DramCommand::RD), rd1);

    // Conflicting row in the same bank: PRE at max(tRAS, RD + tRTP).
    h.enqueueRead(9, rd1 + 1);
    const Cycle pre_expect =
        std::max(act1 + h.timing.slow.tRAS, rd1 + h.timing.tRTP);
    const Cycle act2_expect =
        std::max({pre_expect + 1, act1 + h.timing.slow.tRC,
                  pre_expect + h.timing.slow.tRP});
    const Cycle rd2_expect = act2_expect + h.timing.slow.tRCD;
    h.runTo(rd2_expect + h.timing.slow.tCL + h.timing.tBL, rd1 + 1);

    EXPECT_EQ(h.cmdCycle(DramCommand::PRE), pre_expect);
    EXPECT_EQ(h.cmdCycle(DramCommand::ACT, 2), act2_expect);
    EXPECT_EQ(h.cmdCycle(DramCommand::RD, 2), rd2_expect);
    ASSERT_EQ(h.done.requests.size(), 2u);
    EXPECT_EQ(h.done.requests[1].at,
              rd2_expect + h.timing.slow.tCL + h.timing.tBL);
}

/**
 * Refresh start/end edges: an idle channel's horizon is exactly the
 * scheduled refresh; a request arriving mid-tRFC activates exactly
 * when the refresh window closes.
 */
TEST(ReadinessCache, RefreshWindowGatesActivation)
{
    DirectedHarness h(/*refresh=*/true);
    EXPECT_EQ(h.ctrl->nextWakeCycle(0), h.timing.tREFI);

    h.runTo(h.timing.tREFI, 1);
    const Cycle ref_at = h.cmdCycle(DramCommand::REF);
    ASSERT_EQ(ref_at, h.timing.tREFI);

    // REF end: the ACT for a request arriving inside the window waits
    // for now + tRFC exactly.
    h.enqueueRead(5, ref_at + 1);
    EXPECT_EQ(h.ctrl->nextWakeCycle(ref_at + 1), ref_at + h.timing.tRFC);
    h.runTo(ref_at + h.timing.tRFC + h.timing.slow.tRCD, ref_at + 1);
    EXPECT_EQ(h.cmdCycle(DramCommand::ACT), ref_at + h.timing.tRFC);
}

/**
 * Migration issue/complete edges, including reservation-exempt rows:
 * a blocked row's horizon is the reservation end; the two rows being
 * swapped stay serviceable mid-migration.
 */
TEST(ReadinessCache, MigrationReservationBlocksAllButExemptRows)
{
    DirectedHarness h;
    MigrationJob job;
    job.rank = 0;
    job.bank = 0;
    job.rowA = 40;
    job.rowB = 2;
    job.fullSwap = true;
    job.rowLo = 0;
    job.rowHi = 64;
    h.ctrl->addMigration(std::move(job));

    h.ctrl->tick(1);
    ASSERT_EQ(h.cmdCycle(DramCommand::MIGRATE), 1u);
    const Cycle res_end = 1 + h.timing.swapCycles;
    EXPECT_EQ(h.ctrl->nextWakeCycle(1), res_end); // completion event

    // Blocked row inside [0, 64): horizon is the reservation end.
    h.enqueueRead(10, 2);
    EXPECT_EQ(h.ctrl->nextWakeCycle(2), res_end);

    // Exempt row (one of the two being swapped): issuable immediately.
    h.enqueueRead(40, 3);
    EXPECT_EQ(h.ctrl->nextWakeCycle(3), 4u);

    h.runTo(res_end + h.timing.slow.tRC + 2 * h.timing.slow.tRCD +
                h.timing.slow.tCL + h.timing.tBL,
            4);
    ASSERT_EQ(h.done.requests.size(), 2u);
    // The exempt row completed inside the reservation window...
    EXPECT_EQ(h.done.requests[0].id, 2u);
    EXPECT_LT(h.done.requests[0].at, res_end);
    // ...the blocked row only after it, and the job finished on time.
    EXPECT_EQ(h.done.requests[1].id, 1u);
    EXPECT_GT(h.done.requests[1].at, res_end);
    ASSERT_EQ(h.done.migrations.size(), 1u);
    EXPECT_EQ(h.done.migrations[0], res_end);
}

/**
 * Row-class edge: the cached column window must track the class of the
 * activated row — fast rows open tRCD_fast after the ACT, slow rows
 * tRCD_slow, under the same asymmetric layout.
 */
TEST(ReadinessCache, RowClassSelectsColumnWindow)
{
    DramGeometry geom;
    LayoutConfig lcfg;
    AsymmetricLayout layout(geom, lcfg);

    ASSERT_TRUE(layout.classify(0, 0, 0, 0) == RowClass::Fast);
    ASSERT_TRUE(layout.classify(0, 0, 0, 5) == RowClass::Slow);

    DirectedHarness fast(false, &layout);
    fast.enqueueRead(0, 0); // fast slot
    fast.ctrl->tick(1);
    EXPECT_EQ(fast.ctrl->nextWakeCycle(1), 1 + fast.timing.fast.tRCD);

    DirectedHarness slow(false, &layout);
    slow.enqueueRead(5, 0); // slow slot
    slow.ctrl->tick(1);
    EXPECT_EQ(slow.ctrl->nextWakeCycle(1), 1 + slow.timing.slow.tRCD);
}
