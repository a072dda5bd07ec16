#include "trace_json.hh"

#include "common/json.hh"
#include "mem/clock.hh"

namespace dasdram
{

namespace
{

/** tid offset separating the per-bank migration tracks (see header). */
constexpr unsigned kMigrateTidOffset = 1000;

double
tickUs(Cycle t)
{
    return static_cast<double>(t) /
           (static_cast<double>(kTicksPerNs) * 1000.0);
}

} // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream &os,
                                     const DramGeometry &geom,
                                     const DramTiming &timing)
    : os_(&os), geom_(geom), tBL_(timing.tBL)
{
    openRows_.resize(geom_.channels);
    for (auto &ch : openRows_)
        ch.resize(geom_.ranksPerChannel * geom_.banksPerRank);
    *os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    writeMetadata();
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    finish();
}

unsigned
ChromeTraceWriter::bankTid(unsigned rank, unsigned bank) const
{
    return 1 + rank * geom_.banksPerRank + bank;
}

double
ChromeTraceWriter::cycleUs(Cycle c) const
{
    // tCK = 1.25 ns = 0.00125 us.
    return static_cast<double>(c) * 0.00125;
}

void
ChromeTraceWriter::emit(const std::string &json)
{
    if (events_ > 0)
        *os_ << ',';
    *os_ << '\n' << json;
    ++events_;
}

void
ChromeTraceWriter::writeMetadata()
{
    auto meta = [&](unsigned pid, unsigned tid, const char *what,
                    const std::string &name) {
        JsonWriter w;
        w.beginObject()
            .field("name", what)
            .field("ph", "M")
            .field("pid", pid)
            .field("tid", tid);
        w.key("args").beginObject().field("name", name).endObject();
        w.endObject();
        emit(w.str());
    };

    const unsigned nbanks = geom_.ranksPerChannel * geom_.banksPerRank;
    for (unsigned c = 0; c < geom_.channels; ++c) {
        meta(c, 0, "process_name", "channel" + std::to_string(c));
        for (unsigned r = 0; r < geom_.ranksPerChannel; ++r) {
            for (unsigned b = 0; b < geom_.banksPerRank; ++b) {
                std::string nm = "rank" + std::to_string(r) + " bank" +
                                 std::to_string(b);
                meta(c, bankTid(r, b), "thread_name", nm);
                meta(c, bankTid(r, b) + kMigrateTidOffset,
                     "thread_name", nm + " migrate");
            }
            meta(c, 1 + nbanks + r, "thread_name",
                 "rank" + std::to_string(r) + " refresh");
        }
    }
    meta(geom_.channels, 0, "process_name", "das-manager");
    headerDone_ = true;
}

void
ChromeTraceWriter::emitRowSpan(unsigned channel, unsigned rank,
                               unsigned bank, const OpenRow &open,
                               Cycle end)
{
    Cycle dur = end > open.since ? end - open.since : 1;
    JsonWriter w;
    w.beginObject()
        .field("name",
               "row " + std::to_string(open.row) +
                   (open.cls == RowClass::Fast ? " F" : " S"))
        .field("cat", "row")
        .field("ph", "X")
        .field("ts", cycleUs(open.since))
        .field("dur", cycleUs(dur))
        .field("pid", channel)
        .field("tid", bankTid(rank, bank));
    w.key("args")
        .beginObject()
        .field("row", open.row)
        .field("class", open.cls == RowClass::Fast ? "fast" : "slow")
        .endObject();
    w.endObject();
    emit(w.str());
}

void
ChromeTraceWriter::onCommand(const CmdRecord &rec)
{
    if (finished_)
        return;
    if (rec.cycle > lastCycle_)
        lastCycle_ = rec.cycle;
    OpenRow *state = nullptr;
    if (rec.channel < geom_.channels &&
        rec.cmd != DramCommand::REF) {
        const unsigned idx = rec.rank * geom_.banksPerRank + rec.bank;
        if (idx < openRows_[rec.channel].size())
            state = &openRows_[rec.channel][idx];
    }

    switch (rec.cmd) {
      case DramCommand::ACT:
        if (state) {
            // A dangling open row here would be a missed PRE; close it
            // so the trace stays renderable (the checker owns protocol
            // correctness, not this writer).
            if (state->open)
                emitRowSpan(rec.channel, rec.rank, rec.bank, *state,
                            rec.cycle);
            state->open = true;
            state->since = rec.cycle;
            state->row = rec.row;
            state->cls = rec.rowClass;
        }
        break;
      case DramCommand::PRE:
        if (state && state->open) {
            emitRowSpan(rec.channel, rec.rank, rec.bank, *state,
                        rec.cycle);
            state->open = false;
        }
        break;
      case DramCommand::RD:
      case DramCommand::WR: {
        JsonWriter w;
        w.beginObject()
            .field("name", rec.cmd == DramCommand::RD ? "RD" : "WR")
            .field("cat", "col")
            .field("ph", "X")
            .field("ts", cycleUs(rec.cycle))
            .field("dur", cycleUs(tBL_))
            .field("pid", rec.channel)
            .field("tid", bankTid(rec.rank, rec.bank));
        w.key("args")
            .beginObject()
            .field("row", rec.row)
            .field("col", rec.column)
            .field("class",
                   rec.rowClass == RowClass::Fast ? "fast" : "slow")
            .endObject();
        w.endObject();
        emit(w.str());
        break;
      }
      case DramCommand::REF: {
        const unsigned nbanks =
            geom_.ranksPerChannel * geom_.banksPerRank;
        JsonWriter w;
        w.beginObject()
            .field("name", "REF")
            .field("cat", "refresh")
            .field("ph", "X")
            .field("ts", cycleUs(rec.cycle))
            .field("dur", cycleUs(rec.duration))
            .field("pid", rec.channel)
            .field("tid", 1 + nbanks + rec.rank)
            .endObject();
        emit(w.str());
        break;
      }
      case DramCommand::MIGRATE: {
        JsonWriter w;
        w.beginObject()
            .field("name", "swap")
            .field("cat", "migration")
            .field("ph", "X")
            .field("ts", cycleUs(rec.cycle))
            .field("dur", cycleUs(rec.duration))
            .field("pid", rec.channel)
            .field("tid",
                   bankTid(rec.rank, rec.bank) + kMigrateTidOffset);
        w.key("args").beginObject().field("rowA", rec.row);
        if (rec.rowB != kAddrInvalid)
            w.field("rowB", rec.rowB);
        w.field("rangeLo", rec.rowLo)
            .field("rangeHi", rec.rowHi)
            .field("id", rec.migrationId)
            .endObject();
        w.endObject();
        emit(w.str());
        break;
      }
    }
}

void
ChromeTraceWriter::onInstant(const TraceInstant &ev)
{
    if (finished_)
        return;
    // Instants arrive in ticks; keep lastCycle_ in memory cycles.
    const Cycle cyc = ev.tick / kMemTick;
    if (cyc > lastCycle_)
        lastCycle_ = cyc;
    JsonWriter w;
    w.beginObject()
        .field("name", ev.name)
        .field("cat", "das")
        .field("ph", "i")
        .field("s", "p")
        .field("ts", tickUs(ev.tick))
        .field("pid", geom_.channels)
        .field("tid", 0);
    w.key("args").beginObject();
    if (ev.row != kAddrInvalid)
        w.field("row", ev.row);
    if (ev.victim != kAddrInvalid)
        w.field("victim", ev.victim);
    w.field("group", ev.group);
    if (ev.cause)
        w.field("cause", ev.cause);
    w.endObject().endObject();
    emit(w.str());
}

void
ChromeTraceWriter::finish()
{
    if (finished_)
        return;
    for (unsigned c = 0; c < openRows_.size(); ++c) {
        for (unsigned i = 0; i < openRows_[c].size(); ++i) {
            OpenRow &state = openRows_[c][i];
            if (!state.open)
                continue;
            emitRowSpan(c, i / geom_.banksPerRank, i % geom_.banksPerRank,
                        state, lastCycle_ + 1);
            state.open = false;
        }
    }
    *os_ << "\n]}\n";
    os_->flush();
    finished_ = true;
}

} // namespace dasdram
