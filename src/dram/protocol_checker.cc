#include "protocol_checker.hh"

#include <algorithm>
#include <ostream>

#include "common/strfmt.hh"

namespace dasdram
{

ProtocolChecker::ProtocolChecker(const DramGeometry &geom,
                                 const DramTiming &timing,
                                 const RowClassifier *classifier)
    : geom_(geom), timing_(timing), classifier_(classifier)
{
    reset();
}

void
ProtocolChecker::reset()
{
    banks_.assign(static_cast<std::size_t>(geom_.channels) *
                      geom_.ranksPerChannel * geom_.banksPerRank,
                  BankState{});
    ranks_.assign(static_cast<std::size_t>(geom_.channels) *
                      geom_.ranksPerChannel,
                  RankState{});
    channels_.assign(geom_.channels, ChannelState{});
    commands_ = 0;
    violations_ = 0;
    messages_.clear();
}

ProtocolChecker::BankState &
ProtocolChecker::bankAt(const CmdRecord &rec)
{
    std::size_t idx =
        (static_cast<std::size_t>(rec.channel) * geom_.ranksPerChannel +
         rec.rank) *
            geom_.banksPerRank +
        rec.bank;
    return banks_[idx];
}

ProtocolChecker::RankState &
ProtocolChecker::rankAt(const CmdRecord &rec)
{
    return ranks_[static_cast<std::size_t>(rec.channel) *
                      geom_.ranksPerChannel +
                  rec.rank];
}

void
ProtocolChecker::fail(const CmdRecord &rec, std::string what)
{
    ++violations_;
    if (messages_.size() < kMaxStoredMessages) {
        messages_.push_back(formatStr("cycle {} ch{} ra{} ba{} {}: {}",
                                      rec.cycle, rec.channel, rec.rank,
                                      rec.bank, toString(rec.cmd), what));
    }
}

void
ProtocolChecker::onCommand(const CmdRecord &rec)
{
    ++commands_;

    if (rec.channel >= geom_.channels ||
        rec.rank >= geom_.ranksPerChannel ||
        rec.bank >= geom_.banksPerRank) {
        fail(rec, "coordinates outside the configured geometry");
        return;
    }

    ChannelState &ch = channels_[rec.channel];
    if (ch.anyCmd && rec.cycle < ch.lastCmdAt) {
        fail(rec, formatStr("command time moved backwards (previous "
                            "command at cycle {})",
                            ch.lastCmdAt));
    } else if (ch.anyCmd && rec.cycle == ch.lastCmdAt) {
        fail(rec, "second command on the channel bus in one cycle");
    }
    ch.lastCmdAt = rec.cycle;
    ch.anyCmd = true;

    switch (rec.cmd) {
      case DramCommand::ACT:
        checkAct(rec);
        break;
      case DramCommand::RD:
      case DramCommand::WR:
        checkColumn(rec);
        break;
      case DramCommand::PRE:
        checkPre(rec);
        break;
      case DramCommand::REF:
        checkRef(rec);
        break;
      case DramCommand::MIGRATE:
        checkMigrate(rec);
        break;
    }
}

void
ProtocolChecker::checkAct(const CmdRecord &rec)
{
    BankState &bank = bankAt(rec);
    RankState &rank = rankAt(rec);
    const Cycle now = rec.cycle;

    if (rec.row >= geom_.rowsPerBank)
        fail(rec, formatStr("row {} outside the bank", rec.row));
    if (bank.open) {
        fail(rec, formatStr("ACT while row {} is already open (no PRE "
                            "issued)",
                            bank.row));
    }
    if (now < bank.earliestAct) {
        fail(rec, formatStr("tRC/tRP/tRFC violated: earliest ACT at "
                            "cycle {}",
                            bank.earliestAct));
    }
    if (bank.rowBlocked(now, rec.row)) {
        fail(rec, formatStr("ACT to row {} blocked by migration of "
                            "rows [{}, {}) until cycle {}",
                            rec.row, bank.resLo, bank.resHi,
                            bank.reservedUntil));
    }
    if (rank.actCount > 0 && now < rank.lastActAt + timing_.tRRD) {
        fail(rec, formatStr("tRRD violated: last rank ACT at cycle {}",
                            rank.lastActAt));
    }
    if (rank.actCount >= 4 &&
        now < rank.actTimes[rank.actHead] + timing_.tFAW) {
        fail(rec, formatStr("tFAW violated: fourth-last ACT at cycle {}",
                            rank.actTimes[rank.actHead]));
    }
    if (classifier_) {
        RowClass expect = classifier_->classify(rec.channel, rec.rank,
                                                rec.bank, rec.row);
        if (expect != rec.rowClass) {
            fail(rec, formatStr("row-class mismatch: controller says "
                                "{}, classifier says {}",
                                rec.rowClass == RowClass::Fast ? "fast"
                                                               : "slow",
                                expect == RowClass::Fast ? "fast"
                                                         : "slow"));
        }
    }

    const ArrayTiming &at = timing_.array(rec.rowClass);
    bank.open = true;
    bank.row = rec.row;
    bank.cls = rec.rowClass;
    bank.earliestCol = now + at.tRCD;
    bank.earliestPre = now + at.tRAS;
    bank.earliestAct = now + at.tRC;

    rank.actTimes[rank.actHead] = now;
    rank.actHead = (rank.actHead + 1) % 4;
    rank.lastActAt = now;
    ++rank.actCount;
}

void
ProtocolChecker::checkColumn(const CmdRecord &rec)
{
    BankState &bank = bankAt(rec);
    RankState &rank = rankAt(rec);
    ChannelState &ch = channels_[rec.channel];
    const Cycle now = rec.cycle;
    const bool is_write = rec.cmd == DramCommand::WR;

    if (!bank.open) {
        fail(rec, "column command to a precharged bank");
        return; // no open-row state to update
    }
    if (rec.row != bank.row) {
        fail(rec, formatStr("column command to row {} but row {} is "
                            "open",
                            rec.row, bank.row));
    }
    if (rec.rowClass != bank.cls)
        fail(rec, "row class does not match the activated row's class");
    if (now < bank.earliestCol) {
        fail(rec, formatStr("tRCD violated: earliest column command at "
                            "cycle {}",
                            bank.earliestCol));
    }
    if (now < ch.nextColAllowedAt) {
        fail(rec, formatStr("tCCD violated: earliest column command at "
                            "cycle {}",
                            ch.nextColAllowedAt));
    }
    if (bank.rowBlocked(now, rec.row)) {
        fail(rec, formatStr("column command to row {} mid-migration "
                            "(rows [{}, {}) blocked until cycle {})",
                            rec.row, bank.resLo, bank.resHi,
                            bank.reservedUntil));
    }
    if (!is_write && now < rank.readAllowedAt) {
        fail(rec, formatStr("tWTR violated: earliest RD at cycle {}",
                            rank.readAllowedAt));
    }

    // Data-bus occupancy: the burst must not overlap the previous one,
    // plus tRTRS when the bus changes rank or direction.
    const Cycle burst_start =
        now + (is_write ? timing_.tCWL : timing_.array(bank.cls).tCL);
    Cycle bus_ready = ch.dataBusFreeAt;
    if (ch.lastBusRank >= 0 &&
        (static_cast<unsigned>(ch.lastBusRank) != rec.rank ||
         ch.lastBusWasWrite != is_write)) {
        bus_ready += timing_.tRTRS;
    }
    if (burst_start < bus_ready) {
        fail(rec, formatStr("data-bus conflict: burst starts at cycle "
                            "{} but the bus is busy until {}",
                            burst_start, bus_ready));
    }

    const Cycle burst_end = burst_start + timing_.tBL;
    ch.nextColAllowedAt = now + timing_.tCCD;
    ch.dataBusFreeAt = burst_end;
    ch.lastBusRank = static_cast<int>(rec.rank);
    ch.lastBusWasWrite = is_write;
    if (is_write) {
        bank.earliestPre =
            std::max(bank.earliestPre, burst_end + timing_.tWR);
        rank.readAllowedAt =
            std::max(rank.readAllowedAt, burst_end + timing_.tWTR);
    } else {
        bank.earliestPre = std::max(bank.earliestPre, now + timing_.tRTP);
    }
}

void
ProtocolChecker::checkPre(const CmdRecord &rec)
{
    BankState &bank = bankAt(rec);
    const Cycle now = rec.cycle;

    if (!bank.open) {
        fail(rec, "PRE to a bank with no open row");
        return;
    }
    if (now < bank.earliestPre) {
        fail(rec, formatStr("tRAS/tRTP/tWR violated: earliest PRE at "
                            "cycle {}",
                            bank.earliestPre));
    }
    if (rec.row != bank.row) {
        fail(rec, formatStr("PRE reports row {} but row {} is open",
                            rec.row, bank.row));
    }

    bank.open = false;
    bank.earliestAct = std::max(bank.earliestAct,
                                now + timing_.array(bank.cls).tRP);
}

void
ProtocolChecker::checkRef(const CmdRecord &rec)
{
    const Cycle now = rec.cycle;
    if (rec.duration != timing_.tRFC) {
        fail(rec, formatStr("refresh busy time {} != tRFC {}",
                            rec.duration, timing_.tRFC));
    }
    for (unsigned bi = 0; bi < geom_.banksPerRank; ++bi) {
        CmdRecord probe = rec;
        probe.bank = bi;
        BankState &bank = bankAt(probe);
        if (bank.open) {
            fail(rec, formatStr("REF with bank {} row {} still open",
                                bi, bank.row));
        }
        if (bank.reserved(now)) {
            fail(rec, formatStr("REF with bank {} mid-migration until "
                                "cycle {}",
                                bi, bank.reservedUntil));
        }
        if (now < bank.earliestAct) {
            fail(rec, formatStr("REF while bank {} is busy until cycle "
                                "{} (tRP/tRC not elapsed)",
                                bi, bank.earliestAct));
        }
        bank.earliestAct =
            std::max(bank.earliestAct, now + timing_.tRFC);
    }
}

void
ProtocolChecker::checkMigrate(const CmdRecord &rec)
{
    BankState &bank = bankAt(rec);
    const Cycle now = rec.cycle;

    if (bank.reserved(now)) {
        fail(rec, formatStr("migration-window exclusivity violated: "
                            "bank already reserved until cycle {}",
                            bank.reservedUntil));
    }
    if (now < bank.earliestAct) {
        fail(rec, formatStr("MIGRATE while the array is busy: earliest "
                            "at cycle {}",
                            bank.earliestAct));
    }
    if (bank.open && bank.row >= rec.rowLo && bank.row < rec.rowHi &&
        bank.row != rec.row && bank.row != rec.rowB) {
        fail(rec, formatStr("MIGRATE with open row {} inside the "
                            "blocked range [{}, {})",
                            bank.row, rec.rowLo, rec.rowHi));
    }
    if (rec.row < rec.rowLo || rec.row >= rec.rowHi ||
        rec.rowB < rec.rowLo || rec.rowB >= rec.rowHi) {
        fail(rec, formatStr("migrated rows {} and {} outside the "
                            "blocked range [{}, {})",
                            rec.row, rec.rowB, rec.rowLo, rec.rowHi));
    }
    if (rec.duration != timing_.swapCycles) {
        fail(rec, formatStr("migration busy time {} is not a swap ({})",
                            rec.duration, timing_.swapCycles));
    }
    if (rec.migrationId == 0)
        fail(rec, "MIGRATE without a migration-job id");

    bank.reservedUntil = now + rec.duration;
    bank.resLo = rec.rowLo;
    bank.resHi = rec.rowHi;
    bank.exemptA = rec.row;
    bank.exemptB = rec.rowB;
}

void
ProtocolChecker::report(std::ostream &os) const
{
    os << "protocol checker: " << commands_ << " commands, "
       << violations_ << " violation(s)\n";
    for (const std::string &m : messages_)
        os << "  " << m << '\n';
    if (violations_ > messages_.size()) {
        os << "  ... and " << (violations_ - messages_.size())
           << " more\n";
    }
}

} // namespace dasdram
