/**
 * @file
 * Channel-controller checkpoints: a mid-run save/load/save round trip
 * with reads in flight, queued reads and writes and a pending
 * migration, and the located fatal()s restore raises for a crafted
 * channel section whose requests, jobs or completion heap do not fit
 * the controller.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/serde.hh"
#include "completion_recorder.hh"
#include "dram/controller.hh"

using namespace dasdram;

namespace
{

/** Counts issued commands by kind. */
struct CountingSink : CommandSink
{
    unsigned rd = 0, wr = 0, migrate = 0;
    void
    onCommand(const CmdRecord &rec) override
    {
        rd += rec.cmd == DramCommand::RD;
        wr += rec.cmd == DramCommand::WR;
        migrate += rec.cmd == DramCommand::MIGRATE;
    }
};

/** One controller on channel 0 of the default geometry. */
struct Channel
{
    Channel() : timing(ddr3_1600Timing()), classifier(RowClass::Slow),
                ctrl(0, geom, timing, classifier, ControllerConfig{})
    {
        ctrl.setCompletionSink(&done);
    }

    DramGeometry geom;
    DramTiming timing;
    UniformRowClassifier classifier;
    ChannelController ctrl;
    CompletionRecorder done;
};

std::unique_ptr<MemRequest>
makeRequest(std::uint64_t id, bool write, unsigned bank, std::uint64_t row,
            std::uint64_t column)
{
    auto req = std::make_unique<MemRequest>(id * 64, write, 0);
    req->id = id;
    req->loc = DramLoc{0, 0, bank, row, column};
    return req;
}

std::vector<unsigned char>
save(ChannelController &ctrl)
{
    Archive ar;
    ctrl.serdeState(ar);
    return {ar.payload().begin(), ar.payload().end()};
}

/** Command trace and completion order from ticking until idle. */
std::string
runToIdle(Channel &ch, Cycle from)
{
    std::ostringstream os;
    CommandTrace trace(os);
    ch.ctrl.setCommandSink(&trace);
    const Cycle limit = from + 100000;
    Cycle now = from;
    for (; ch.ctrl.busy() && now < limit; ++now)
        ch.ctrl.tick(now);
    EXPECT_LT(now, limit) << "controller never went idle";
    for (const CompletionRecorder::Done &d : ch.done.requests)
        os << "done " << d.id << " at " << d.at << ' '
           << toString(d.location) << '\n';
    for (Cycle at : ch.done.migrations)
        os << "migration done at " << at << '\n';
    return os.str();
}

} // namespace

TEST(ControllerCheckpoint, MidRunSaveLoadSaveAndResumeMatch)
{
    Channel a;
    // Row hits in bank 0 keep several reads in flight behind tCCD;
    // bank 1 and 2 reads and bank 3 writes wait in the queues.
    std::uint64_t id = 1;
    for (std::uint64_t col = 0; col < 8; ++col)
        a.ctrl.enqueue(makeRequest(id++, false, 0, 16, col), 0);
    for (std::uint64_t col = 0; col < 4; ++col)
        a.ctrl.enqueue(makeRequest(id++, false, 1, 5, col), 0);
    for (std::uint64_t col = 0; col < 4; ++col)
        a.ctrl.enqueue(makeRequest(id++, false, 2, 7, col), 0);
    const unsigned reads = static_cast<unsigned>(id - 1);
    for (std::uint64_t row = 0; row < 6; ++row)
        a.ctrl.enqueue(makeRequest(id++, true, 3, 9 + row, 0), 0);
    const unsigned writes = 6;
    // Deferred while the bank 0 reads to row 16 sit in its range.
    MigrationJob job;
    job.rank = 0;
    job.bank = 0;
    job.rowA = 10;
    job.rowB = 4;
    job.rowLo = 0;
    job.rowHi = 32;
    a.ctrl.addMigration(job);

    CountingSink seen;
    a.ctrl.setCommandSink(&seen);
    Cycle now = 0;
    for (; now < 1000 && seen.rd - a.done.requests.size() < 2; ++now)
        a.ctrl.tick(now);
    const unsigned in_flight =
        seen.rd - static_cast<unsigned>(a.done.requests.size());
    ASSERT_GE(in_flight, 2u);
    ASSERT_LT(seen.rd, reads) << "no read left queued";
    ASSERT_LT(seen.wr, writes) << "no write left queued";
    ASSERT_EQ(seen.migrate, 0u);
    ASSERT_EQ(a.ctrl.pendingMigrations(), 1u);

    const std::vector<unsigned char> first = save(a.ctrl);
    const std::size_t done_before = a.done.requests.size();
    a.done = {};
    Channel b;
    Archive in(first);
    b.ctrl.serdeState(in);
    in.finish();
    EXPECT_EQ(save(b.ctrl), first);

    const std::string straight = runToIdle(a, now);
    const std::string restored = runToIdle(b, now);
    EXPECT_EQ(restored, straight);
    EXPECT_EQ(done_before + a.done.requests.size(), reads + writes);
    EXPECT_EQ(a.done.migrations.size(), 1u);
}

namespace
{

/** What a crafted channel section holds beyond idle ranks. */
struct CraftedChannel
{
    std::vector<DramLoc> readQueue;
    std::vector<std::pair<Cycle, DramLoc>> inFlight; ///< raw heap array
    std::vector<MigrationJob> pending;
    std::vector<MigrationJob> active;
};

/**
 * A channel section laid out field by field as
 * ChannelController::serdeState writes it, around idle ranks.
 */
std::vector<unsigned char>
craft(const Channel &ch, const CraftedChannel &c)
{
    Archive ar;
    ar.section("channel");
    ar.expectCount(ch.geom.ranksPerChannel, "ranks");
    for (unsigned r = 0; r < ch.geom.ranksPerChannel; ++r)
        Rank(ch.timing, ch.geom.banksPerRank).serdeState(ar);
    auto write_request = [&](const DramLoc &loc, bool is_write) {
        MemRequest req(0x40, is_write, 0);
        req.loc = loc;
        req.serdeState(ar);
    };
    std::uint64_t n = c.readQueue.size();
    ar.ioCount(n);
    for (const DramLoc &loc : c.readQueue)
        write_request(loc, false);
    n = 0;
    ar.ioCount(n); // write queue
    bool draining = false;
    ar.io(draining);
    n = c.inFlight.size();
    ar.ioCount(n);
    for (auto [at, loc] : c.inFlight) {
        ar.io(at);
        write_request(loc, false);
    }
    std::uint64_t next_id = 1;
    ar.io(next_id);
    n = c.pending.size();
    ar.ioCount(n);
    for (MigrationJob job : c.pending)
        job.serdeState(ar);
    n = c.active.size();
    ar.ioCount(n);
    for (MigrationJob job : c.active) {
        Cycle done_at = 100;
        ar.io(done_at);
        job.serdeState(ar);
    }
    Cycle bus_free = 0, next_col = 0;
    int last_rank = -1;
    bool last_write = false;
    ar.io(bus_free);
    ar.io(next_col);
    ar.io(last_rank);
    ar.io(last_write);
    ar.end();
    return {ar.payload().begin(), ar.payload().end()};
}

void
load(Channel &ch, const std::vector<unsigned char> &bytes)
{
    Archive in(bytes);
    ch.ctrl.serdeState(in);
    in.finish();
}

MigrationJob
jobAt(unsigned rank, unsigned bank)
{
    MigrationJob job;
    job.rank = rank;
    job.bank = bank;
    job.rowA = 1;
    job.rowB = 2;
    job.rowHi = 4;
    return job;
}

} // namespace

TEST(ControllerCheckpoint, CraftedWellFormedChannelLoads)
{
    Channel ch;
    CraftedChannel c;
    c.readQueue = {DramLoc{0, 1, 7, 5, 0}};
    c.inFlight = {{10, DramLoc{0, 0, 0, 1, 0}},
                  {20, DramLoc{0, 0, 0, 1, 1}}};
    c.pending = {jobAt(1, 7)};
    c.active = {jobAt(0, 3)};
    load(ch, craft(ch, c));
    EXPECT_TRUE(ch.ctrl.busy());
    EXPECT_EQ(ch.ctrl.pendingMigrations(), 2u);
}

TEST(ControllerCheckpointDeathTest, QueuedRequestOnAnotherChannelIsFatal)
{
    Channel ch;
    CraftedChannel c;
    c.readQueue = {DramLoc{0, 0, 0, 1, 0}, DramLoc{1, 0, 0, 1, 0}};
    EXPECT_DEATH(load(ch, craft(ch, c)),
                 "checkpoint: channel 0 read-queue request 1 is routed to "
                 "channel 1");
}

TEST(ControllerCheckpointDeathTest, QueuedRequestRankOutsideGeometryIsFatal)
{
    Channel ch;
    CraftedChannel c;
    c.readQueue = {DramLoc{0, 2, 0, 1, 0}};
    EXPECT_DEATH(load(ch, craft(ch, c)),
                 "checkpoint: channel 0 read-queue request 0 rank 2 bank 0 "
                 "is outside the geometry's 2 ranks of 8 banks");
}

TEST(ControllerCheckpointDeathTest, QueuedRequestRowOutsideGeometryIsFatal)
{
    Channel ch;
    CraftedChannel c;
    c.readQueue = {DramLoc{0, 0, 0, ch.geom.rowsPerBank, 0}};
    EXPECT_DEATH(load(ch, craft(ch, c)),
                 "checkpoint: channel 0 read-queue request 0 row 32768 is "
                 "outside the geometry's 32768 rows");
}

TEST(ControllerCheckpointDeathTest, InFlightBankOutsideGeometryIsFatal)
{
    Channel ch;
    CraftedChannel c;
    c.inFlight = {{10, DramLoc{0, 0, 8, 1, 0}}};
    EXPECT_DEATH(load(ch, craft(ch, c)),
                 "checkpoint: channel 0 in-flight read 0 rank 0 bank 8 is "
                 "outside the geometry's 2 ranks of 8 banks");
}

TEST(ControllerCheckpointDeathTest, InFlightReadsNotAHeapAreFatal)
{
    Channel ch;
    CraftedChannel c;
    c.inFlight = {{20, DramLoc{0, 0, 0, 1, 0}},
                  {10, DramLoc{0, 0, 0, 1, 1}}};
    EXPECT_DEATH(load(ch, craft(ch, c)),
                 "checkpoint: channel 0 in-flight reads are not a "
                 "min-heap on completion cycle");
}

TEST(ControllerCheckpointDeathTest, PendingMigrationBankOutsideGeometryIsFatal)
{
    Channel ch;
    CraftedChannel c;
    c.pending = {jobAt(0, 1), jobAt(1, 9)};
    EXPECT_DEATH(load(ch, craft(ch, c)),
                 "checkpoint: channel 0 pending migration 1 rank 1 bank 9 "
                 "is outside the geometry's 2 ranks of 8 banks");
}

TEST(ControllerCheckpointDeathTest, ActiveMigrationRankOutsideGeometryIsFatal)
{
    Channel ch;
    CraftedChannel c;
    c.active = {jobAt(5, 0)};
    EXPECT_DEATH(load(ch, craft(ch, c)),
                 "checkpoint: channel 0 active migration 0 rank 5 bank 0 "
                 "is outside the geometry's 2 ranks of 8 banks");
}
