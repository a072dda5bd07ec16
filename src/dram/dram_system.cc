#include "dram_system.hh"

#include <algorithm>

#include "mem/request_trace.hh"

namespace dasdram
{

DramSystem::DramSystem(const DramGeometry &geom, const DramTiming &timing,
                       const RowClassifier &classifier,
                       const ControllerConfig &ctrl_cfg,
                       MappingScheme scheme)
    : timing_(timing), mapper_(geom, scheme), statGroup_("dram")
{
    channels_.reserve(geom.channels);
    for (unsigned c = 0; c < geom.channels; ++c) {
        channels_.push_back(std::make_unique<ChannelController>(
            c, geom, timing_, classifier, ctrl_cfg));
        channels_.back()->setCompletionSink(this);
        statGroup_.addChild(&channels_.back()->stats());
    }
    statGroup_.addCounter("forwardedReads", &forwardedReads_,
                          "reads served from a channel write queue");
}

bool
DramSystem::canAccept(const DramLoc &loc, bool is_write) const
{
    return channels_[loc.channel]->canAccept(is_write);
}

void
DramSystem::submit(std::unique_ptr<MemRequest> req, Cycle now_tick)
{
    const Cycle mem_now = now_tick / kMemTick;
    ChannelController &ch = *channels_[req->loc.channel];

    if (!req->isWrite && ch.writeQueued(req->addr)) {
        // Read-after-write forwarding from the write queue: the data is
        // still in the controller; serve it at roughly CAS latency
        // without touching the banks.
        forwardedReads_.inc();
        req->location = ServiceLocation::RowBuffer;
        Cycle done = mem_now + timing_.slow.tCL + timing_.tBL;
        req->completionTick = done;
        if (req->span) {
            // Forwarded reads never reach a channel controller, so
            // the span is closed (and emitted) here: the whole
            // latency is service time, no queue/row stages.
            RequestSpan &s = *req->span;
            s.forwarded = true;
            s.channel = req->loc.channel;
            s.rank = req->loc.rank;
            s.bank = req->loc.bank;
            s.row = req->loc.row;
            s.logicalRow = req->logicalRow;
            s.location = ServiceLocation::RowBuffer;
            s.admitCycle = mem_now;
            s.readyCycle = mem_now;
            s.hasFirstCmd = true;
            s.firstCmdCycle = mem_now;
            s.colCycle = mem_now;
            s.dataCycle = done;
            if (spanSink_)
                spanSink_->onSpan(s);
        }
        onRequestDone(*req, done);
        return;
    }

    ch.enqueue(std::move(req), mem_now);
}

void
DramSystem::startMigration(unsigned channel, unsigned rank, unsigned bank,
                           std::uint64_t row_a, std::uint64_t row_b,
                           std::uint64_t row_lo, std::uint64_t row_hi,
                           std::uint64_t group)
{
    MigrationJob job;
    job.rank = rank;
    job.bank = bank;
    job.rowA = row_a;
    job.rowB = row_b;
    job.rowLo = row_lo;
    job.rowHi = row_hi;
    job.group = group;
    channels_[channel]->addMigration(std::move(job));
}

void
DramSystem::onRequestDone(MemRequest &req, Cycle mem_at)
{
    if (doneSink_)
        doneSink_->onRequestDone(req, mem_at * kMemTick);
}

void
DramSystem::onMigrationDone(const MigrationJob &job, Cycle mem_at)
{
    if (doneSink_)
        doneSink_->onMigrationDone(job, mem_at * kMemTick);
}

void
DramSystem::serdeState(Archive &ar)
{
    ar.section("dramSystem");
    ar.io(lastMemCycle_);
    ar.expectCount(channels_.size(), "channels");
    for (const auto &ch : channels_)
        ch->serdeState(ar);
    ar.end();
}

void
DramSystem::setCommandSink(CommandSink *sink)
{
    for (const auto &ch : channels_)
        ch->setCommandSink(sink);
}

void
DramSystem::setRequestTraceSink(RequestTraceSink *sink)
{
    spanSink_ = sink;
    for (const auto &ch : channels_)
        ch->setSpanSink(sink);
}

void
DramSystem::tick(Cycle now_tick)
{
    const Cycle target = now_tick / kMemTick;
    while (lastMemCycle_ < target) {
        ++lastMemCycle_;
        for (const auto &ch : channels_)
            ch->tick(lastMemCycle_);
    }
}

bool
DramSystem::busy() const
{
    return std::any_of(channels_.begin(), channels_.end(),
                       [](const auto &ch) { return ch->busy(); });
}

EnergyBreakdown
DramSystem::energyBreakdown() const
{
    EnergyBreakdown e;
    for (const auto &ch : channels_) {
        e.actsSlow += ch->actCountSlow();
        e.actsFast += ch->actCountFast();
        e.reads += ch->readCount();
        e.writes += ch->writeCount();
        e.swaps += ch->migrationCount();
        for (unsigned r = 0; r < geometry().ranksPerChannel; ++r)
            e.refreshes += ch->rank(r).refreshCount();
    }
    return e;
}

} // namespace dasdram
