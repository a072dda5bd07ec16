#include "controller.hh"

#include <algorithm>
#include <functional>

#include "common/log.hh"
#include "mem/request_trace.hh"

namespace dasdram
{

ChannelController::ChannelController(unsigned channel_id,
                                     const DramGeometry &geom,
                                     const DramTiming &timing,
                                     const RowClassifier &classifier,
                                     const ControllerConfig &cfg)
    : channelId_(channel_id), geom_(geom), timing_(&timing),
      classifier_(&classifier), cfg_(cfg), sink_(cfg.cmdSink),
      spanSink_(cfg.spanSink),
      statGroup_("channel" + std::to_string(channel_id))
{
    ranks_.reserve(geom.ranksPerChannel);
    for (unsigned r = 0; r < geom.ranksPerChannel; ++r)
        ranks_.emplace_back(timing, geom.banksPerRank);

    readQueue_.reserve(cfg.readQueueDepth);
    writeQueue_.reserve(cfg.writeQueueDepth);

    statGroup_.addCounter("reads", &reads_, "read column commands");
    statGroup_.addCounter("writes", &writes_, "write column commands");
    statGroup_.addCounter("rowHits", &rowHits_,
                          "column accesses that hit an open row");
    statGroup_.addCounter("actsFast", &actsFast_,
                          "activates in fast subarrays");
    statGroup_.addCounter("actsSlow", &actsSlow_,
                          "activates in slow subarrays");
    statGroup_.addCounter("precharges", &precharges_, "precharge commands");
    statGroup_.addCounter("refreshes", &refreshes_, "all-bank refreshes");
    statGroup_.addCounter("migrations", &migrationsDone_,
                          "completed migrations/swaps");
    statGroup_.addCounter("readForwards", &readForwards_,
                          "reads forwarded from the write queue");
    statGroup_.addDistribution("readLatency", &readLatency_,
                               "read latency, memory cycles");

    statGroup_.addHistogram("readLatencyRowHit", &readLatRowHit_,
                            "read latency, row-buffer hits, mem cycles");
    statGroup_.addHistogram("readLatencyFast", &readLatFast_,
                            "read latency, fast-subarray ACTs, mem cycles");
    statGroup_.addHistogram("readLatencySlow", &readLatSlow_,
                            "read latency, slow-subarray ACTs, mem cycles");
    statGroup_.addHistogram("writeLatency", &writeLat_,
                            "write latency (enqueue → WR), mem cycles");
    statGroup_.addHistogram("readQueueDelay", &readQueueDelay_,
                            "enqueue → RD issue, mem cycles");
    statGroup_.addHistogram("writeQueueDelay", &writeQueueDelay_,
                            "enqueue → WR issue, mem cycles");
    statGroup_.addHistogram("readQueueOccupancy", &readQueueOcc_,
                            "read-queue depth at enqueue");
    statGroup_.addHistogram("writeQueueOccupancy", &writeQueueOcc_,
                            "write-queue depth at enqueue");
    statGroup_.addHistogram("migrationStartDelay", &migrationStartDelay_,
                            "migration first consideration → start, "
                            "mem cycles");

    bankStats_.reserve(geom.ranksPerChannel * geom.banksPerRank);
    for (unsigned r = 0; r < geom.ranksPerChannel; ++r) {
        for (unsigned b = 0; b < geom.banksPerRank; ++b) {
            auto bs = std::make_unique<BankStats>(
                "bank" + std::to_string(r * geom.banksPerRank + b));
            bs->group.addCounter("rowHits", &bs->rowHits,
                                 "row-buffer hits");
            bs->group.addCounter("rowConflicts", &bs->rowConflicts,
                                 "conflict precharges");
            bs->group.addCounter("classConflicts", &bs->classConflicts,
                                 "conflicts crossing row classes");
            bs->group.addDistribution("readLatency", &bs->readLatency,
                                      "read latency, memory cycles");
            statGroup_.addChild(&bs->group);
            bankStats_.push_back(std::move(bs));
        }
    }
}

ChannelController::BankStats &
ChannelController::bankStatsOf(unsigned rank_id, unsigned bank_id)
{
    return *bankStats_[rank_id * geom_.banksPerRank + bank_id];
}

const Histogram &
ChannelController::readLatencyHistogram(ServiceLocation loc) const
{
    switch (loc) {
      case ServiceLocation::FastLevel:
        return readLatFast_;
      case ServiceLocation::SlowLevel:
        return readLatSlow_;
      case ServiceLocation::Unknown:
      case ServiceLocation::RowBuffer:
        break;
    }
    return readLatRowHit_;
}

Distribution
ChannelController::mergedBankReadLatency() const
{
    Distribution merged;
    for (const auto &bs : bankStats_)
        merged.merge(bs->readLatency);
    return merged;
}

Bank &
ChannelController::bankOf(const MemRequest &r)
{
    return ranks_[r.loc.rank].bank(r.loc.bank);
}

const Bank &
ChannelController::bankOf(const MemRequest &r) const
{
    return ranks_[r.loc.rank].bank(r.loc.bank);
}

bool
ChannelController::canAccept(bool is_write) const
{
    return is_write ? writeQueue_.size() < cfg_.writeQueueDepth
                    : readQueue_.size() < cfg_.readQueueDepth;
}

void
ChannelController::enqueue(std::unique_ptr<MemRequest> req, Cycle now)
{
    if (!canAccept(req->isWrite))
        panic("ChannelController::enqueue into a full queue");
    if (req->loc.channel != channelId_)
        panic("request routed to wrong channel");
    req->arrivalTick = now;
    if (req->span)
        stampSpanAdmit(*req, now);
    const bool is_write = req->isWrite;
    ++chanVer_; // queue membership changed: cached queue horizon stale
    if (is_write)
        writeQueue_.push_back(std::move(req));
    else
        readQueue_.push_back(std::move(req));
    if (cfg_.histograms) {
        if (is_write)
            writeQueueOcc_.sample(writeQueue_.size());
        else
            readQueueOcc_.sample(readQueue_.size());
    }
}

void
ChannelController::stampSpanAdmit(MemRequest &req, Cycle now)
{
    RequestSpan &s = *req.span;
    const Rank &rank = ranks_[req.loc.rank];
    const Bank &bank = rank.bank(req.loc.bank);
    s.channel = channelId_;
    s.rank = req.loc.rank;
    s.bank = req.loc.bank;
    s.row = req.loc.row;
    s.logicalRow = req.logicalRow;
    s.rowClass = classifier_->classify(channelId_, req.loc.rank,
                                       req.loc.bank, req.loc.row);
    s.admitCycle = now;
    // Migration holding the target row at admit (its end cycle), and
    // the readiness lower bound the scheduler itself would compute —
    // requestReadyAt is semantically transparent (a pure function of
    // versioned state, cached at the value a later query would see),
    // so asking early cannot perturb scheduling.
    s.blockedUntilCycle =
        bank.rowBlocked(now, req.loc.row) ? bank.reservedUntil() : 0;
    s.readyCycle = std::max(now, requestReadyAt(req));
    if (s.blockedUntilCycle > s.readyCycle)
        s.readyCycle = s.blockedUntilCycle;
    // Busy-accumulator snapshots: the deltas at first command are
    // exactly the refresh / reservation overlap with the wait window.
    s.refreshBusyAtAdmit = rank.refreshBusyUpTo(now);
    s.reserveBusyAtAdmit = bank.reservedBusyUpTo(now);
}

void
ChannelController::stampSpanFirstCommand(MemRequest &req, Cycle now)
{
    RequestSpan &s = *req.span;
    if (s.hasFirstCmd)
        return;
    s.hasFirstCmd = true;
    s.firstCmdCycle = now;
    const Rank &rank = ranks_[req.loc.rank];
    const Bank &bank = rank.bank(req.loc.bank);
    s.waitRefresh = rank.refreshBusyUpTo(now) - s.refreshBusyAtAdmit;
    s.waitBlock = bank.reservedBusyUpTo(now) - s.reserveBusyAtAdmit;
}

bool
ChannelController::writeQueued(Addr line_addr) const
{
    for (const auto &w : writeQueue_) {
        if (w->addr == line_addr)
            return true;
    }
    return false;
}

void
ChannelController::addMigration(MigrationJob job)
{
    job.id = nextMigrationId_++;
    migrations_.push_back(std::move(job));
}

void
ChannelController::emitPrecharge(Cycle now, unsigned rank_id,
                                 unsigned bank_id, const Bank &bank)
{
    if (!sink_)
        return;
    CmdRecord rec;
    rec.cycle = now;
    rec.cmd = DramCommand::PRE;
    rec.channel = channelId_;
    rec.rank = rank_id;
    rec.bank = bank_id;
    rec.row = bank.openRow();
    rec.rowClass = bank.openRowClass();
    sink_->onCommand(rec);
}

void
ChannelController::retireCompletions(Cycle now)
{
    while (!completions_.empty() && completions_.front().at <= now) {
        Completion c = completions_.front();
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<Completion>());
        completions_.pop_back();
        auto it = std::find_if(inflight_.begin(), inflight_.end(),
                               [&](const std::unique_ptr<MemRequest> &p) {
                                   return p.get() == c.req;
                               });
        if (it == inflight_.end())
            panic("completion for unknown in-flight request");
        std::unique_ptr<MemRequest> req = std::move(*it);
        *it = std::move(inflight_.back());
        inflight_.pop_back();
        finish(std::move(req), c.at, ServiceLocation::RowBuffer);
    }

    for (std::size_t i = 0; i < activeMigrations_.size();) {
        if (activeMigrations_[i].first <= now) {
            MigrationJob job = std::move(activeMigrations_[i].second);
            Cycle at = activeMigrations_[i].first;
            activeMigrations_[i] = std::move(activeMigrations_.back());
            activeMigrations_.pop_back();
            migrationsDone_.inc();
            if (doneSink_)
                doneSink_->onMigrationDone(job, at);
        } else {
            ++i;
        }
    }
}

void
ChannelController::finish(std::unique_ptr<MemRequest> req, Cycle at,
                          ServiceLocation fallback_loc)
{
    if (req->location == ServiceLocation::Unknown)
        req->location = fallback_loc;
    req->completionTick = at;
    if (!req->isWrite)
        readLatency_.sample(static_cast<double>(at - req->arrivalTick));
    if (cfg_.histograms) {
        const Cycle lat = at - req->arrivalTick;
        if (req->isWrite) {
            writeLat_.sample(lat);
        } else {
            switch (req->location) {
              case ServiceLocation::FastLevel:
                readLatFast_.sample(lat);
                break;
              case ServiceLocation::SlowLevel:
                readLatSlow_.sample(lat);
                break;
              case ServiceLocation::Unknown:
              case ServiceLocation::RowBuffer:
                readLatRowHit_.sample(lat);
                break;
            }
            bankStatsOf(req->loc.rank, req->loc.bank)
                .readLatency.sample(static_cast<double>(lat));
        }
    }
    if (req->span) {
        RequestSpan &s = *req->span;
        s.dataCycle = at;
        s.location = req->location;
        // Emission happens in completion order, which is
        // deterministic.
        if (spanSink_)
            spanSink_->onSpan(s);
    }
    if (doneSink_)
        doneSink_->onRequestDone(*req, at);
}

bool
ChannelController::serviceRefresh(Cycle now)
{
    for (unsigned ri = 0; ri < ranks_.size(); ++ri) {
        Rank &rank = ranks_[ri];
        if (!rank.refreshDue(now))
            continue;
        // Drain: precharge any open bank.
        bool all_ready = true;
        for (unsigned bi = 0; bi < rank.numBanks(); ++bi) {
            Bank &bank = rank.bank(bi);
            if (bank.hasOpenRow()) {
                if (bank.canPrecharge(now)) {
                    emitPrecharge(now, ri, bi, bank);
                    bank.precharge(now);
                    precharges_.inc();
                    return true;
                }
                all_ready = false;
            } else if (bank.reserved(now) || now < bank.actAllowedAt()) {
                all_ready = false;
            }
        }
        if (all_ready) {
            rank.refresh(now);
            refreshes_.inc();
            if (sink_) {
                CmdRecord rec;
                rec.cycle = now;
                rec.cmd = DramCommand::REF;
                rec.channel = channelId_;
                rec.rank = ri;
                rec.duration = timing_->tRFC;
                sink_->onCommand(rec);
            }
            return true;
        }
    }
    return false;
}

bool
ChannelController::serviceMigrations(Cycle now)
{
    for (auto it = migrations_.begin(); it != migrations_.end(); ++it) {
        MigrationJob &job = *it;
        Rank &rank = ranks_[job.rank];
        Bank &bank = rank.bank(job.bank);

        // Keep per-bank FIFO order: skip if an earlier job or an active
        // migration holds this bank.
        bool earlier = false;
        for (auto jt = migrations_.begin(); jt != it; ++jt) {
            if (jt->rank == job.rank && jt->bank == job.bank) {
                earlier = true;
                break;
            }
        }
        if (earlier || bank.reserved(now))
            continue;
        if (cfg_.refreshEnabled && rank.refreshDue(now))
            continue; // let the refresh drain first
        // The migration drives the cell array like back-to-back ACTs:
        // it must wait out any pending tRP/tRC/tRFC window.
        if (now < bank.actAllowedAt())
            continue;

        if (job.enqueuedAt == kCycleMax)
            job.enqueuedAt = now;
        std::uint64_t row_lo = std::min({job.rowLo, job.rowA, job.rowB});
        std::uint64_t row_hi =
            std::max({job.rowHi, job.rowA + 1, job.rowB + 1});

        // Background work: yield to queued demand requests targeting
        // the affected row range until the deferral budget runs out.
        if (now < job.enqueuedAt + cfg_.migrationMaxDefer) {
            auto targets_range = [&](const auto &queue) {
                for (const auto &r : queue) {
                    if (r->loc.rank == job.rank &&
                        r->loc.bank == job.bank && r->loc.row >= row_lo &&
                        r->loc.row < row_hi && r->loc.row != job.rowA &&
                        r->loc.row != job.rowB) {
                        return true;
                    }
                }
                return false;
            };
            if (targets_range(readQueue_) || targets_range(writeQueue_))
                continue;
        }

        if (bank.hasOpenRow() && bank.openRow() >= row_lo &&
            bank.openRow() < row_hi && bank.openRow() != job.rowA &&
            bank.openRow() != job.rowB) {
            // The open row sits in the migration's subarrays: close it
            // first (its row buffer is needed for the transfer).
            if (bank.canPrecharge(now)) {
                emitPrecharge(now, job.rank, job.bank, bank);
                bank.precharge(now);
                precharges_.inc();
                return true;
            }
            continue;
        }

        Cycle dur =
            job.fullSwap ? timing_->swapCycles : timing_->migrationCycles;
        if (cfg_.histograms)
            migrationStartDelay_.sample(now - job.enqueuedAt);
        bank.reserve(now, dur, row_lo, row_hi, job.rowA, job.rowB);
        if (sink_) {
            CmdRecord rec;
            rec.cycle = now;
            rec.cmd = DramCommand::MIGRATE;
            rec.channel = channelId_;
            rec.rank = job.rank;
            rec.bank = job.bank;
            rec.row = job.rowA;
            rec.rowB = job.rowB;
            rec.rowLo = row_lo;
            rec.rowHi = row_hi;
            rec.migrationId = job.id;
            rec.duration = dur;
            sink_->onCommand(rec);
        }
        activeMigrations_.emplace_back(now + dur, std::move(job));
        migrations_.erase(it);
        return true;
    }
    return false;
}

bool
ChannelController::tryColumn(MemRequest &req, Cycle now)
{
    Rank &rank = ranks_[req.loc.rank];
    Bank &bank = rank.bank(req.loc.bank);
    if (!bank.canColumn(now))
        return false;
    if (cfg_.refreshEnabled && rank.refreshDue(now))
        return false;
    if (now < nextColAllowedAt_)
        return false;

    const ArrayTiming &at = timing_->array(bank.openRowClass());
    Cycle burst_start;
    if (req.isWrite) {
        burst_start = now + timing_->tCWL;
    } else {
        if (now < rank.readAllowedAt())
            return false;
        burst_start = now + at.tCL;
    }

    Cycle bus_ready = dataBusFreeAt_;
    bool switch_penalty =
        (lastBusRank_ >= 0 &&
         (static_cast<unsigned>(lastBusRank_) != req.loc.rank ||
          lastBusWasWrite_ != req.isWrite));
    if (switch_penalty)
        bus_ready += timing_->tRTRS;
    if (burst_start < bus_ready)
        return false;

    // Issue the column command.
    ++busVer_; // bus state below changes: bus-keyed caches stale
    nextColAllowedAt_ = now + timing_->tCCD;
    lastBusRank_ = static_cast<int>(req.loc.rank);
    lastBusWasWrite_ = req.isWrite;
    if (req.span) {
        stampSpanFirstCommand(req, now);
        req.span->colCycle = now;
    }
    if (sink_) {
        CmdRecord rec;
        rec.cycle = now;
        rec.cmd = req.isWrite ? DramCommand::WR : DramCommand::RD;
        rec.channel = channelId_;
        rec.rank = req.loc.rank;
        rec.bank = req.loc.bank;
        rec.row = req.loc.row;
        rec.column = req.loc.column;
        rec.rowClass = bank.openRowClass();
        sink_->onCommand(rec);
    }
    if (req.location == ServiceLocation::Unknown) {
        req.location = ServiceLocation::RowBuffer;
        rowHits_.inc();
        if (cfg_.histograms)
            bankStatsOf(req.loc.rank, req.loc.bank).rowHits.inc();
    }
    if (cfg_.histograms) {
        const Cycle wait = now - req.arrivalTick;
        if (req.isWrite)
            writeQueueDelay_.sample(wait);
        else
            readQueueDelay_.sample(wait);
    }
    if (req.isWrite) {
        Cycle end = bank.write(now);
        rank.recordWriteBurst(end);
        dataBusFreeAt_ = end;
        req.completionTick = end;
        writes_.inc();
    } else {
        Cycle end = bank.read(now);
        dataBusFreeAt_ = end;
        req.completionTick = end;
        reads_.inc();
    }
    return true;
}

bool
ChannelController::issueColumnFor(
    std::vector<std::unique_ptr<MemRequest>> &queue, std::size_t i,
    Cycle now)
{
    MemRequest &req = *queue[i];
    const Bank &bank = bankOf(req);
    if (!(bank.hasOpenRow() && bank.openRow() == req.loc.row &&
          !bank.rowBlocked(now, req.loc.row) && tryColumn(req, now))) {
        return false;
    }
    std::unique_ptr<MemRequest> owned = std::move(queue[i]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
    ++chanVer_; // queue membership changed
    Cycle end = owned->completionTick;
    if (owned->isWrite) {
        finish(std::move(owned), end, ServiceLocation::RowBuffer);
    } else {
        completions_.push_back({end, owned.get()});
        std::push_heap(completions_.begin(), completions_.end(),
                       std::greater<Completion>());
        inflight_.push_back(std::move(owned));
    }
    return true;
}

bool
ChannelController::tryRowCommand(MemRequest &req, Cycle now)
{
    Rank &rank = ranks_[req.loc.rank];
    Bank &bank = rank.bank(req.loc.bank);
    if (bank.rowBlocked(now, req.loc.row))
        return false; // waits for the migration to finish

    if (bank.hasOpenRow()) {
        if (bank.openRow() == req.loc.row)
            return false; // already open; waiting on column constraints
        // Conflict: precharge, but not under pending hits to the open row.
        auto hits_open_row = [&](const auto &queue) {
            for (const auto &r : queue) {
                if (r->loc.sameBank(req.loc) &&
                    r->loc.row == bank.openRow()) {
                    return true;
                }
            }
            return false;
        };
        if (hits_open_row(readQueue_) || hits_open_row(writeQueue_))
            return false;
        if (!bank.canPrecharge(now))
            return false;
        if (cfg_.histograms) {
            BankStats &bs = bankStatsOf(req.loc.rank, req.loc.bank);
            bs.rowConflicts.inc();
            RowClass want = classifier_->classify(
                channelId_, req.loc.rank, req.loc.bank, req.loc.row);
            if (want != bank.openRowClass())
                bs.classConflicts.inc();
        }
        if (req.span) {
            stampSpanFirstCommand(req, now);
            if (!req.span->hasPre) {
                req.span->hasPre = true;
                req.span->preCycle = now;
            }
        }
        emitPrecharge(now, req.loc.rank, req.loc.bank, bank);
        bank.precharge(now);
        precharges_.inc();
        return true;
    }

    if (cfg_.refreshEnabled && rank.refreshDue(now))
        return false;
    if (!bank.canActivate(now, req.loc.row) || !rank.canActivate(now))
        return false;

    RowClass cls = classifier_->classify(channelId_, req.loc.rank,
                                         req.loc.bank, req.loc.row);
    if (req.span) {
        stampSpanFirstCommand(req, now);
        RequestSpan &s = *req.span;
        if (!s.hasAct) {
            s.hasAct = true;
            s.actCycle = now;
            // Extra delay tFAW/tRRD imposed beyond the bank's own
            // readiness (read before activate/recordActivate below
            // update the windows). Informational: part of waitQueue.
            Cycle bank_ready = std::max(s.admitCycle, bank.actAllowedAt());
            Cycle rank_ready = rank.activateAllowedAt();
            s.fawStall =
                rank_ready > bank_ready ? rank_ready - bank_ready : 0;
        }
    }
    bank.activate(now, req.loc.row, cls);
    rank.recordActivate(now);
    if (sink_) {
        CmdRecord rec;
        rec.cycle = now;
        rec.cmd = DramCommand::ACT;
        rec.channel = channelId_;
        rec.rank = req.loc.rank;
        rec.bank = req.loc.bank;
        rec.row = req.loc.row;
        rec.rowClass = cls;
        sink_->onCommand(rec);
    }
    if (cls == RowClass::Fast) {
        actsFast_.inc();
        req.location = ServiceLocation::FastLevel;
        req.servicedFast = true;
    } else {
        actsSlow_.inc();
        req.location = ServiceLocation::SlowLevel;
    }
    return true;
}

bool
ChannelController::issueFromQueue(
    std::vector<std::unique_ptr<MemRequest>> &queue, Cycle now)
{
    if (queue.empty())
        return false;

    // Batched scan: a request whose cached ready cycle has not arrived
    // provably fails every scheduling check below, so both passes skip
    // it on an O(1) comparison. The cache is keyed on the bank/rank/bus
    // versions, so only requests whose target bank's (or the bus's)
    // readiness actually changed are re-examined in full.
    if (cfg_.sched == SchedPolicy::FrFcfs) {
        // Pass 1: oldest ready row hit.
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (requestMaybeIssuable(*queue[i], now) &&
                issueColumnFor(queue, i, now)) {
                return true;
            }
        }
        // Pass 2: oldest request that can make row-level progress.
        for (auto &reqp : queue) {
            if (requestMaybeIssuable(*reqp, now) &&
                tryRowCommand(*reqp, now)) {
                return true;
            }
        }
        return false;
    }

    // Strict FCFS: only the oldest request may issue anything.
    if (!requestMaybeIssuable(*queue.front(), now))
        return false;
    if (issueColumnFor(queue, 0, now))
        return true;
    return tryRowCommand(*queue.front(), now);
}

void
ChannelController::tick(Cycle now)
{
    retireCompletions(now);

    bool issued = false;
    if (cfg_.refreshEnabled)
        issued = serviceRefresh(now);
    if (!issued)
        issued = serviceMigrations(now);

    // Write-drain hysteresis.
    if (!drainingWrites_) {
        if (writeQueue_.size() >= cfg_.writeHighWatermark ||
            (readQueue_.empty() && !writeQueue_.empty())) {
            drainingWrites_ = true;
        }
    } else if (writeQueue_.empty() ||
               (writeQueue_.size() <= cfg_.writeLowWatermark &&
                !readQueue_.empty())) {
        drainingWrites_ = false;
    }

    if (!issued) {
        // The rollup cache knows the earliest cycle any queued request
        // could issue; below it both queue scans are provably fruitless.
        refreshHorizonCaches(now);
        if (queuePathMin_ <= now) {
            auto &primary = drainingWrites_ ? writeQueue_ : readQueue_;
            auto &secondary = drainingWrites_ ? readQueue_ : writeQueue_;
            issued = issueFromQueue(primary, now);
            if (!issued)
                issued = issueFromQueue(secondary, now);
        }
    }

    // Closed-page: precharge one bank with no pending work for its
    // row. At most one PRE per cycle — the command bus carries a
    // single command per channel per cycle, and it is already taken
    // when something issued above.
    if (cfg_.page == PagePolicy::Closed && !issued) {
        refreshHorizonCaches(now);
        if (preMinReady_ > now)
            return;
        for (unsigned ri = 0; ri < ranks_.size() && !issued; ++ri) {
            Rank &rank = ranks_[ri];
            for (unsigned bi = 0; bi < rank.numBanks() && !issued;
                 ++bi) {
                Bank &bank = rank.bank(bi);
                if (!bank.hasOpenRow() || !bank.canPrecharge(now))
                    continue;
                auto targets_open = [&](const auto &queue) {
                    for (const auto &r : queue) {
                        if (r->loc.rank == ri && r->loc.bank == bi &&
                            r->loc.row == bank.openRow()) {
                            return true;
                        }
                    }
                    return false;
                };
                if (!targets_open(readQueue_) &&
                    !targets_open(writeQueue_)) {
                    emitPrecharge(now, ri, bi, bank);
                    bank.precharge(now);
                    precharges_.inc();
                    issued = true;
                }
            }
        }
    }
}

Cycle
ChannelController::requestReadyAt(const MemRequest &req) const
{
    const Rank &rank = ranks_[req.loc.rank];
    const Bank &bank = rank.bank(req.loc.bank);

    MemRequest::SchedCache &sc = req.sched;
    if (sc.bankVer == bank.version() && sc.rankVer == rank.version() &&
        (sc.busVer == busVer_ ||
         sc.busVer == MemRequest::SchedCache::kBusAny)) {
        return sc.readyAt;
    }

    // ACT and conflict-PRE bounds never touch the bus state, so their
    // entries carry kBusAny and survive the column-issue churn that
    // bumps busVer_ every few cycles under load.
    std::uint64_t bus_key = MemRequest::SchedCache::kBusAny;
    Cycle t;
    if (!bank.hasOpenRow()) {
        // ACT path. Refresh-due gating is covered by the refresh term
        // of nextWakeCycle (nextRefreshAt precedes any due window).
        t = std::max(bank.actAllowedAt(), rank.activateAllowedAt());
    } else if (bank.openRow() != req.loc.row) {
        // Conflict-PRE path. Pending hits to the open row may hold the
        // PRE back further; those requests contribute their own (column)
        // horizons, so this bound is merely early, never late.
        t = bank.preAllowedAt();
    } else {
        bus_key = busVer_;
        // Column path: bank CAS window, channel tCCD, tWTR (reads), and
        // the data bus with any rank/direction switch penalty — the same
        // constraints tryColumn checks, inverted into an earliest cycle.
        t = std::max(bank.columnAllowedAt(), nextColAllowedAt_);
        Cycle cas;
        if (req.isWrite) {
            cas = timing_->tCWL;
        } else {
            t = std::max(t, rank.readAllowedAt());
            cas = timing_->array(bank.openRowClass()).tCL;
        }
        Cycle bus_ready = dataBusFreeAt_;
        if (lastBusRank_ >= 0 &&
            (static_cast<unsigned>(lastBusRank_) != req.loc.rank ||
             lastBusWasWrite_ != req.isWrite)) {
            bus_ready += timing_->tRTRS;
        }
        if (bus_ready > t + cas)
            t = bus_ready - cas;
    }

    sc.readyAt = t;
    sc.bankVer = bank.version();
    sc.rankVer = rank.version();
    sc.busVer = bus_key;
    return t;
}

Cycle
ChannelController::requestWakeCycle(const MemRequest &req, Cycle now) const
{
    const Bank &bank = bankOf(req);

    // Blocked by a migration reservation: nothing can issue for this
    // request before the reservation ends. (reserved(now) implies
    // reservedUntil() > now.)
    if (bank.rowBlocked(now, req.loc.row))
        return bank.reservedUntil();

    return std::max(now + 1, requestReadyAt(req));
}

bool
ChannelController::requestMaybeIssuable(const MemRequest &req,
                                        Cycle now) const
{
    const Bank &bank = bankOf(req);
    if (bank.rowBlocked(now, req.loc.row))
        return false;
    return requestReadyAt(req) <= now;
}

std::uint64_t
ChannelController::stateSignature() const
{
    std::uint64_t sig = chanVer_ + busVer_;
    for (const Rank &r : ranks_) {
        sig += r.version();
        for (unsigned bi = 0; bi < r.numBanks(); ++bi)
            sig += r.bank(bi).version();
    }
    return sig;
}

void
ChannelController::refreshHorizonCaches(Cycle now) const
{
    const std::uint64_t sig = stateSignature();
    // Valid while no state transition happened AND the earliest
    // reservation blocking a queued request has not expired (expiry
    // flips that request to the path side without any version bump).
    if (sig == horizonSig_ && now < queueBlockedMin_)
        return;

    horizonSig_ = sig;
    queuePathMin_ = kCycleMax;
    queueBlockedMin_ = kCycleMax;
    auto scan = [&](const std::vector<std::unique_ptr<MemRequest>> &q) {
        for (const auto &r : q) {
            const Bank &bank = bankOf(*r);
            if (bank.rowBlocked(now, r->loc.row)) {
                queueBlockedMin_ =
                    std::min(queueBlockedMin_, bank.reservedUntil());
            } else {
                queuePathMin_ =
                    std::min(queuePathMin_, requestReadyAt(*r));
            }
        }
    };
    scan(readQueue_);
    scan(writeQueue_);

    preMinReady_ = kCycleMax;
    if (cfg_.page == PagePolicy::Closed) {
        for (const Rank &rank : ranks_) {
            for (unsigned bi = 0; bi < rank.numBanks(); ++bi) {
                preMinReady_ = std::min(
                    preMinReady_, rank.bank(bi).prechargeReadyAt());
            }
        }
    }
}

Cycle
ChannelController::nextWakeCycle(Cycle now) const
{
    Cycle next = kCycleMax;
    if (!completions_.empty())
        next = std::min(next, completions_.front().at);
    for (const auto &m : activeMigrations_)
        next = std::min(next, m.first);
    // Migration jobs that have not started keep the controller on a
    // per-cycle cadence: their gating (per-bank FIFO, deferral to
    // queued demand, enqueuedAt stamping) is stateful in ways a cheap
    // bound cannot capture, and jobs spend few cycles in this state.
    if (!migrations_.empty())
        next = std::min(next, now + 1);
    if (cfg_.refreshEnabled) {
        // nextRefreshAt() stays in the past for the whole drain window
        // (until the REF issues), so a due refresh pins the horizon to
        // now + 1 via the max() in the callers.
        for (const Rank &r : ranks_)
            next = std::min(next, r.nextRefreshAt());
    }

    // Queue terms, from the rollup caches. Exactly the per-request
    // min the full scan produces: min over unblocked requests of
    // max(now + 1, readyAt) factors through max(now + 1, min readyAt),
    // and blocked requests contribute their reservation's end.
    refreshHorizonCaches(now);
    if (queueBlockedMin_ != kCycleMax)
        next = std::min(next, queueBlockedMin_);
    if (queuePathMin_ != kCycleMax)
        next = std::min(next, std::max(now + 1, queuePathMin_));

    // Closed-page policy precharges idle open banks even with empty
    // queues; without this term those PREs would be skipped over.
    if (cfg_.page == PagePolicy::Closed && preMinReady_ != kCycleMax)
        next = std::min(next, std::max(now + 1, preMinReady_));
    return next;
}

bool
ChannelController::busy() const
{
    return !readQueue_.empty() || !writeQueue_.empty() ||
           !inflight_.empty() || !migrations_.empty() ||
           !activeMigrations_.empty();
}

namespace
{

void
serdeRequestQueue(Archive &ar,
                  std::vector<std::unique_ptr<MemRequest>> &queue)
{
    std::uint64_t n = queue.size();
    ar.io(n);
    if (ar.loading()) {
        queue.clear();
        queue.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            queue.push_back(std::make_unique<MemRequest>());
    }
    for (auto &req : queue)
        req->serdeState(ar);
}

} // namespace

void
ChannelController::serdeState(Archive &ar)
{
    ar.section("channel");
    ar.expectCount(ranks_.size(), "ranks");
    for (Rank &r : ranks_)
        r.serdeState(ar);

    serdeRequestQueue(ar, readQueue_);
    serdeRequestQueue(ar, writeQueue_);
    ar.io(drainingWrites_);
    serdeRequestQueue(ar, inflight_);

    // The completion heap is stored as its raw array of (cycle,
    // in-flight index) pairs: restoring the identical array restores
    // the identical heap, including the pop order of same-cycle ties.
    std::uint64_t n = completions_.size();
    ar.io(n);
    if (ar.loading())
        completions_.resize(static_cast<std::size_t>(n));
    for (auto &c : completions_) {
        ar.io(c.at);
        std::uint64_t idx = 0;
        if (ar.saving()) {
            auto it = std::find_if(
                inflight_.begin(), inflight_.end(),
                [&](const std::unique_ptr<MemRequest> &p) {
                    return p.get() == c.req;
                });
            if (it == inflight_.end())
                panic("checkpoint: completion for a request not in "
                      "the in-flight set");
            idx = static_cast<std::uint64_t>(it - inflight_.begin());
        }
        ar.io(idx);
        if (ar.loading()) {
            if (idx >= inflight_.size())
                fatal("checkpoint: completion index {} out of range "
                      "({} in flight)",
                      idx, inflight_.size());
            c.req = inflight_[static_cast<std::size_t>(idx)].get();
        }
    }

    ar.io(nextMigrationId_);
    std::uint64_t pending = migrations_.size();
    ar.io(pending);
    if (ar.loading())
        migrations_.resize(static_cast<std::size_t>(pending));
    for (MigrationJob &job : migrations_)
        job.serdeState(ar);
    std::uint64_t active = activeMigrations_.size();
    ar.io(active);
    if (ar.loading())
        activeMigrations_.resize(static_cast<std::size_t>(active));
    for (auto &m : activeMigrations_) {
        ar.io(m.first);
        m.second.serdeState(ar);
    }

    ar.io(dataBusFreeAt_);
    ar.io(nextColAllowedAt_);
    ar.io(lastBusRank_);
    ar.io(lastBusWasWrite_);
    ar.io(busVer_);
    ar.io(chanVer_);
    ar.end();

    if (ar.loading()) {
        // Rollup horizon caches are derived state; force a recompute
        // on the first wake query after the restore.
        horizonSig_ = ~std::uint64_t{0};
        queuePathMin_ = kCycleMax;
        queueBlockedMin_ = kCycleMax;
        preMinReady_ = kCycleMax;
    }
}

} // namespace dasdram
