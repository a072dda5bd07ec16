#include "system.hh"

#include <algorithm>
#include <ostream>

#include "common/binfmt.hh"
#include "common/log.hh"
#include "common/stats_jsonl.hh"

namespace dasdram
{

namespace
{

/** The row-class oracle of a homogeneous design; nullptr when the
 *  asymmetric layout itself classifies (heterogeneous designs). */
std::unique_ptr<RowClassifier>
uniformClassifier(const DesignSpec &spec)
{
    if (spec.allFast)
        return std::make_unique<UniformRowClassifier>(RowClass::Fast);
    if (!spec.heterogeneous)
        return std::make_unique<UniformRowClassifier>(RowClass::Slow);
    return nullptr;
}

} // namespace

System::System(const SimConfig &cfg, std::vector<TraceSource *> traces)
    : cfg_(cfg), traces_(std::move(traces)),
      classifier_(uniformClassifier(designSpec(cfg.design))),
      layout_(std::make_unique<AsymmetricLayout>(cfg.geom, cfg.layout)),
      timing_(ddr3_1600Timing(designSpec(cfg.design).charmColumnOpt)),
      // The checker gets the same row-class oracle as the controller,
      // so the class stamped on every ACT is cross-checked, and an
      // independent copy of the reference timing.
      checker_(cfg.geom, timing_, &rowClassifier()),
      statGroup_("system")
{
    if (traces_.size() != cfg_.numCores)
        fatal("system needs one trace per core ({} vs {})",
              traces_.size(), cfg_.numCores);

    const DesignSpec &spec = designSpec(cfg_.design);
    dram_ = std::make_unique<DramSystem>(cfg_.geom, timing_,
                                         rowClassifier(), cfg_.ctrl);
    cmdFanout_.addSink(&checker_);
    if (!cfg_.obs.traceOut.empty()) {
        traceFile_ = std::make_unique<std::ofstream>(cfg_.obs.traceOut);
        if (!*traceFile_)
            fatal("cannot open '{}' for writing", cfg_.obs.traceOut);
        chromeTrace_ = std::make_unique<ChromeTraceWriter>(
            *traceFile_, cfg_.geom, timing_);
        cmdFanout_.addSink(chromeTrace_.get());
    }
    dram_->setCommandSink(&cmdFanout_);
    caches_ = std::make_unique<CacheHierarchy>(cfg_.numCores, cfg_.caches,
                                               cfg_.seed);

    DasConfig dcfg = cfg_.das;
    dcfg.mode = spec.mode;
    dcfg.zeroMigrationLatency = spec.zeroMigrationLatency;
    dcfg.llcLatencyTicks = cpuCyclesToTicks(cfg_.caches.llcLatencyCpu);
    das_ = std::make_unique<DasManager>(*dram_, caches_.get(), *layout_,
                                        dcfg);

    mshrs_ = std::make_unique<MshrFile>(cfg_.mshrsPerCore * cfg_.numCores);

    wbSink_ = [this](Addr line) {
        std::unique_ptr<RequestSpan> span;
        if (tracer_) {
            span = tracer_->maybeStart();
            if (span) {
                span->core = -1;
                span->addr = line;
                span->isWrite = true;
                span->issueTick = now_;
                span->missTick = now_;
            }
        }
        das_->access(line, /*is_write=*/true, /*core=*/-1,
                     Continuation{}, now_, std::move(span));
    };

    // Both asynchronous completion paths — MSHR waiters and DAS
    // demand/walk completions — deliver serialisable Continuation
    // tokens to the one interpreter. The hooks are installed once,
    // here, so a restored snapshot resumes in-flight work as is.
    mshrs_->setDispatcher(
        [this](const Continuation &cont, Addr, Cycle t) {
            dispatchContinuation(cont, t);
        });
    das_->setCompletionHook([this](const Continuation &cont, Cycle t) {
        dispatchContinuation(cont, t);
    });

    for (unsigned i = 0; i < cfg_.numCores; ++i) {
        Addr base = cfg_.coreBase(i);
        cores_.push_back(std::make_unique<Core>(
            static_cast<int>(i), cfg_.core, *traces_[i],
            [this, i, base](Addr a, bool w, unsigned slot) {
                handleCoreAccess(i, a + base, w, slot);
            }));
        statGroup_.addChild(&cores_.back()->stats());
    }
    statGroup_.addChild(&caches_->stats());
    statGroup_.addChild(&das_->stats());
    statGroup_.addChild(&dram_->stats());
    statGroup_.addChild(&mshrs_->stats());

    // Negated comparisons so a NaN fails too.
    if (!(cfg_.warmupFraction >= 0.0 && cfg_.warmupFraction < 1.0))
        fatal("config: warmupFraction must be in [0, 1), got {}",
              cfg_.warmupFraction);
    checkPromotionConfig(cfg_.das.promotion);
    if (!(cfg_.obs.traceRequests >= 0.0 && cfg_.obs.traceRequests <= 1.0))
        fatal("config: observability.traceRequests must be a rate in "
              "[0, 1], got {}",
              cfg_.obs.traceRequests);
    if (cfg_.obs.traceRequests > 0.0) {
        // Request-lifecycle tracing: one deterministic sampler shared
        // by every request-creation point (demand misses, writebacks,
        // table walks), completed spans fanned out to the in-sim
        // aggregator and the optional JSONL export. Registered before
        // the epoch series so its stats ride the time-series too.
        tracer_ = std::make_unique<RequestTracer>(cfg_.seed,
                                                  cfg_.obs.traceRequests);
        das_->setRequestTracer(tracer_.get());
        spanFanout_ = std::make_unique<RequestSpanFanout>();
        spanAgg_ =
            std::make_unique<CriticalPathAggregator>(cfg_.numCores);
        spanFanout_->addSink(spanAgg_.get());
        if (!cfg_.obs.spansOut.empty()) {
            spansFile_ =
                std::make_unique<std::ofstream>(cfg_.obs.spansOut);
            if (!*spansFile_)
                fatal("cannot open '{}' for writing", cfg_.obs.spansOut);
            spanWriter_ = std::make_unique<SpanJsonlWriter>(*spansFile_,
                                                            spanMeta());
            spanFanout_->addSink(spanWriter_.get());
        }
        dram_->setRequestTraceSink(spanFanout_.get());
        statGroup_.addChild(&spanAgg_->stats());
    } else if (!cfg_.obs.spansOut.empty()) {
        fatal("obs.spansOut ('{}') requires obs.traceRequests > 0",
              cfg_.obs.spansOut);
    }

    if (chromeTrace_)
        das_->setEventSink(chromeTrace_.get());
    if (cfg_.obs.epochMemCycles > 0) {
        epochs_ = std::make_unique<EpochSeries>(statGroup_,
                                                cfg_.obs.epochMemCycles);
    }
}

System::~System() = default;

SpanJsonlMeta
System::spanMeta() const
{
    SpanJsonlMeta meta;
    meta.workload = cfg_.obs.workloadName;
    meta.design = toString(cfg_.design);
    meta.label = cfg_.obs.label;
    meta.seed = cfg_.seed;
    meta.rate = cfg_.obs.traceRequests;
    return meta;
}

const RowClassifier &
System::rowClassifier() const
{
    return classifier_ ? *classifier_
                       : static_cast<const RowClassifier &>(*layout_);
}

void
System::attachCommandTrace(std::ostream &os)
{
    if (cmdTrace_)
        fatal("attachCommandTrace: a command trace is already attached");
    cmdTrace_ = std::make_unique<CommandTrace>(os);
    cmdFanout_.addSink(cmdTrace_.get());
}

void
System::handleCoreAccess(unsigned core, Addr addr, bool is_write,
                         unsigned slot)
{
    CacheAccessResult res = caches_->access(core, addr, is_write, wbSink_);
    if (res.level != HitLevel::Miss) {
        if (slot != Continuation::kNoSlot)
            cores_[core]->completeLoad(slot, now_ + res.latencyTicks);
        return;
    }
    MissEvent ev;
    ev.at = now_ + res.latencyTicks;
    ev.seq = eventSeq_++;
    ev.core = core;
    ev.slot = slot;
    ev.line = res.lineAddr;
    ev.isWrite = is_write;
    ev.issueTick = now_; // core-issue stage of a sampled span
    if (!events_.empty() && ev < events_.back()) {
        panic("miss event at tick {} would precede the queued tick {}: "
              "the miss queue is a FIFO",
              ev.at, events_.back().at);
    }
    events_.push_back(ev);
}

void
System::runMissEvent(const MissEvent &ev)
{
    startMiss(ev.core, ev.line, ev.isWrite, now_, ev.issueTick);
    // Register this access's waiter after startMiss ensured an MSHR
    // entry exists (or will retry below).
    if (mshrs_->outstanding(ev.line)) {
        mshrs_->addWaiter(ev.line,
                          ev.slot != Continuation::kNoSlot
                              ? Continuation::coreLoad(ev.core, ev.slot)
                              : Continuation{});
    } else {
        // MSHR file full and allocation deferred: complete the load
        // pessimistically when the retry path resolves. To keep
        // bookkeeping simple we retry the whole access.
        handleCoreAccess(ev.core, ev.line, ev.isWrite, ev.slot);
    }
}

void
System::dispatchContinuation(const Continuation &cont, Cycle at)
{
    switch (cont.kind) {
      case Continuation::Kind::None:
        return;
      case Continuation::Kind::CoreLoad:
        cores_[cont.core]->completeLoad(cont.slot, at);
        return;
      case Continuation::Kind::DemandFill:
        caches_->fill(cont.core, cont.line, cont.isWrite, wbSink_);
        mshrs_->complete(cont.line, at);
        return;
    }
    panic("unknown continuation kind {}",
          static_cast<unsigned>(cont.kind));
}

void
System::startMiss(unsigned core, Addr line, bool is_write, Cycle at,
                  Cycle issue_tick)
{
    if (mshrs_->outstanding(line))
        return; // coalesced; fill in flight
    if (mshrs_->full())
        return; // caller retries
    mshrs_->allocate(line);
    // Sample at MSHR allocation: the decisions are a pure function of
    // the allocation order, so a restored run samples the same subset.
    std::unique_ptr<RequestSpan> span;
    if (tracer_) {
        span = tracer_->maybeStart();
        if (span) {
            span->core = static_cast<int>(core);
            span->addr = line;
            span->issueTick = issue_tick;
            span->missTick = at;
        }
    }
    das_->access(line, /*is_write=*/false, static_cast<int>(core),
                 Continuation::demandFill(core, line, is_write), at,
                 std::move(span));
}

void
System::resetAfterWarmup()
{
    warmupDone_ = true;
    statGroup_.resetAll();
    das_->resetFootprint();
    warmupCycleStamp_ = now_;
    if (epochs_)
        epochs_->restart(now_ / kMemTick);
}

RunMetrics
System::run()
{
    const InstCount warmup = cfg_.warmupInstructions();
    const InstCount target = cfg_.instructionsPerCore;
    // A restored snapshot resumes at the loop top it was saved at;
    // warmup_retired_base is reconstructible (run() always sets it to
    // `warmup` at the reset), so it is not serialised.
    Cycle next_cpu_at = now_;
    InstCount warmup_retired_base = warmupDone_ ? warmup : 0;

    auto min_retired = [this]() {
        InstCount m = kCycleMax;
        for (const auto &c : cores_)
            m = std::min(m, c->retired());
        return m;
    };

    while (true) {
        now_ = next_cpu_at;

        if (!checkpoints_.empty())
            maybeCheckpoint();

        while (!events_.empty() && events_.front().at <= now_) {
            MissEvent ev = events_.front();
            events_.pop_front();
            runMissEvent(ev);
        }

        das_->tick(now_);
        dram_->tick(now_);
        for (auto &core : cores_)
            core->tick(now_);
        if (epochs_)
            epochs_->maybeSample(now_ / kMemTick);

        next_cpu_at += kCpuTick;

        InstCount done = min_retired();
        if (!warmupDone_) {
            if (done >= warmup) {
                resetAfterWarmup();
                warmup_retired_base = warmup;
                if (!warmupCheckpointPath_.empty()) {
                    // Tick 0 is already past: the snapshot is taken at
                    // the next loop top, a deterministic iteration
                    // boundary just after the statistics reset.
                    checkpoints_.emplace_back(
                        0, std::move(warmupCheckpointPath_));
                    warmupCheckpointPath_.clear();
                }
            }
        }
        if (done >= target - (warmupDone_ ? warmup_retired_base : 0))
            break;
    }

    for (const auto &cp : checkpoints_) {
        warn("checkpoint '{}' scheduled at tick {} was never taken: "
             "the run ended at tick {}",
             cp.second, cp.first, now_);
    }
    if (!warmupCheckpointPath_.empty()) {
        warn("warm-up checkpoint '{}' was never taken: the run ended "
             "before warm-up completed",
             warmupCheckpointPath_);
    }

    RunMetrics m;
    m.cpuCycles = cores_[0]->cycles();
    for (const auto &c : cores_) {
        m.ipc.push_back(c->ipc());
        m.instructions += c->retired();
    }
    // Unique line fills, not raw lookup misses: accesses to a line
    // whose fill is already in flight coalesce in the MSHRs and are not
    // separate memory misses.
    m.llcMisses = mshrs_->allocations();
    m.locations = das_->locations();
    m.promotions = das_->promotions();
    m.memAccesses = das_->demandAccesses();
    m.footprintRows = das_->footprintRows();
    m.energy = dram_->energyBreakdown();

    if (epochs_)
        epochs_->flush(now_ / kMemTick);
    if (chromeTrace_)
        chromeTrace_->finish();
    if (spansFile_)
        spansFile_->flush();
    if (!cfg_.obs.statsOut.empty()) {
        std::ofstream os(cfg_.obs.statsOut);
        if (!os)
            fatal("cannot open '{}' for writing", cfg_.obs.statsOut);
        writeStatsJsonl(os);
    }

    if (checker_.violationCount() > 0) {
        panic("DRAM protocol checker found {} violation(s) over {} "
              "commands; first: {}",
              checker_.violationCount(), checker_.commandCount(),
              checker_.firstViolation());
    }
    return m;
}

void
System::scheduleCheckpoint(Cycle tick, std::string path)
{
    checkpoints_.emplace_back(tick, std::move(path));
}

void
System::checkpointAtWarmup(std::string path)
{
    if (warmupDone_)
        fatal("checkpointAtWarmup: warm-up already completed");
    warmupCheckpointPath_ = std::move(path);
}

void
System::maybeCheckpoint()
{
    for (std::size_t i = 0; i < checkpoints_.size();) {
        if (checkpoints_[i].first <= now_) {
            saveSnapshot(checkpoints_[i].second);
            checkpoints_.erase(checkpoints_.begin() +
                               static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

void
System::serdeState(Archive &ar)
{
    ar.section("system");
    ar.io(now_);
    ar.io(eventSeq_);
    ar.io(warmupDone_);
    ar.io(warmupCycleStamp_);

    // The pending miss events round-trip in pop order, so the
    // restored queue pops exactly as the straight run's would.
    std::uint64_t n_events = events_.size();
    ar.ioCount(n_events);
    if (ar.loading())
        events_.resize(static_cast<std::size_t>(n_events));
    for (std::size_t i = 0; i < events_.size(); ++i) {
        events_[i].serdeState(ar);
        if (ar.loading() && i > 0 && !(events_[i - 1] < events_[i])) {
            fatal("checkpoint: miss event {} (tick {}, seq {}) does not "
                  "follow event {} (tick {}, seq {}): the miss queue "
                  "must be ascending in (tick, seq)",
                  i, events_[i].at, events_[i].seq, i - 1,
                  events_[i - 1].at, events_[i - 1].seq);
        }
    }

    ar.expectCount(traces_.size(), "trace sources");
    for (TraceSource *t : traces_)
        t->serdeState(ar);
    ar.expectCount(cores_.size(), "cores");
    for (auto &c : cores_)
        c->serdeState(ar);
    caches_->serdeState(ar);
    mshrs_->serdeState(ar);
    das_->serdeState(ar);
    dram_->serdeState(ar);
    checker_.serdeState(ar);

    // Optional components: presence is config-derived and already
    // pinned by the fingerprint; these gates turn a serde bug into a
    // named error instead of a desync.
    bool has_tracer = tracer_ != nullptr;
    ar.io(has_tracer);
    if (has_tracer != (tracer_ != nullptr))
        fatal("checkpoint: request-tracer presence mismatch");
    if (tracer_) {
        tracer_->serdeState(ar);
        spanAgg_->serdeState(ar);
    }
    bool has_epochs = epochs_ != nullptr;
    ar.io(has_epochs);
    if (has_epochs != (epochs_ != nullptr))
        fatal("checkpoint: epoch-series presence mismatch");
    if (epochs_)
        epochs_->serdeState(ar);

    // Every registered statistic (cores, caches, DAS, DRAM, MSHRs,
    // span aggregator, nested groups) in registration order.
    statGroup_.serdeTree(ar);
    ar.end();
}

void
System::saveSnapshot(const std::string &path)
{
    Archive ar;
    std::uint64_t fp = configFingerprint(cfg_);
    ar.io(fp);
    serdeState(ar);
    std::string err = binfmt::writeEnvelopeFile(
        path, kSnapshotMagic, kSnapshotVersion, ar.payload());
    if (!err.empty())
        fatal("checkpoint '{}': {}", path, err);
}

void
System::loadSnapshot(const std::string &path)
{
    binfmt::EnvelopeResult env = binfmt::readEnvelopeFile(
        path, kSnapshotMagic, kSnapshotVersion, "checkpoint");
    if (!env.ok())
        fatal("checkpoint '{}': {}", path, env.error);
    Archive ar(env.payload());
    std::uint64_t fp = 0;
    ar.io(fp);
    const std::uint64_t want = configFingerprint(cfg_);
    if (fp != want) {
        fatal("checkpoint '{}': config fingerprint mismatch ({} in "
              "file, {} for this configuration) — a restore needs the "
              "same state-shaping configuration the checkpoint was "
              "taken with (export paths may differ)",
              path, fp, want);
    }
    serdeState(ar);
    ar.finish();
}

void
System::dumpStats(std::ostream &os) const
{
    statGroup_.dump(os);
}

void
System::writeStatsJsonl(std::ostream &os) const
{
    StatsJsonlMeta meta;
    meta.workload = cfg_.obs.workloadName;
    meta.design = toString(cfg_.design);
    meta.label = cfg_.obs.label;
    meta.seed = cfg_.seed;
    meta.instructions = cfg_.instructionsPerCore;
    meta.epochCycles = epochs_ ? epochs_->epochLength() : 0;
    dasdram::writeStatsJsonl(os, statGroup_, epochs_.get(), meta);

    // Cross-channel rollups: the per-row-class read-latency picture
    // the paper's analysis needs, without making consumers merge
    // per-channel histograms themselves.
    Histogram read_all, read_row_hit, read_fast, read_slow, write_all;
    Distribution bank_read;
    for (unsigned c = 0; c < dram_->numChannels(); ++c) {
        const ChannelController &ch = dram_->channel(c);
        read_row_hit.merge(
            ch.readLatencyHistogram(ServiceLocation::RowBuffer));
        read_fast.merge(
            ch.readLatencyHistogram(ServiceLocation::FastLevel));
        read_slow.merge(
            ch.readLatencyHistogram(ServiceLocation::SlowLevel));
        write_all.merge(ch.writeLatencyHistogram());
        bank_read.merge(ch.mergedBankReadLatency());
    }
    read_all.merge(read_row_hit);
    read_all.merge(read_fast);
    read_all.merge(read_slow);

    StatGroup rollup("rollup");
    rollup.addHistogram("readLatency", &read_all,
                        "read latency, all classes, mem cycles");
    rollup.addHistogram("readLatencyRowHit", &read_row_hit,
                        "read latency, row-buffer hits, mem cycles");
    rollup.addHistogram("readLatencyFast", &read_fast,
                        "read latency, fast subarrays, mem cycles");
    rollup.addHistogram("readLatencySlow", &read_slow,
                        "read latency, slow subarrays, mem cycles");
    rollup.addHistogram("writeLatency", &write_all,
                        "write latency, mem cycles");
    rollup.addDistribution("bankReadLatency", &bank_read,
                           "per-bank read latency merged system-wide");
    writeStatsJsonlGroup(os, rollup);
}

} // namespace dasdram
