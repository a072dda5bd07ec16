#include "fuzz.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/binfmt.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "common/serde.hh"
#include "dram/dram_system.hh"
#include "dram/protocol_checker.hh"
#include "dram/row_class.hh"
#include "mem/clock.hh"
#include "mem/request_trace.hh"
#include "sim/sweep.hh"
#include "workload/workload_spec.hh"

namespace dasdram
{

namespace
{

/** Envelope magic of the in-memory fuzz checkpoint ("DFZP"). */
constexpr std::uint32_t kFuzzSnapshotMagic = 0x505a4644u;

/** Row-class oracle for @p design, mirroring System's choice. */
std::unique_ptr<RowClassifier>
makeUniformClassifier(const DesignSpec &spec)
{
    if (spec.allFast)
        return std::make_unique<UniformRowClassifier>(RowClass::Fast);
    if (!spec.heterogeneous)
        return std::make_unique<UniformRowClassifier>(RowClass::Slow);
    return nullptr; // use the asymmetric layout
}

/** A traffic row: mostly a hot slice at the bottom of the bank, with
 *  1/8 of picks from the top slice to exercise address-space edges. */
std::uint64_t
pickRow(Rng &rng, const FuzzCase &c)
{
    std::uint64_t spread =
        std::min<std::uint64_t>(c.rowSpread, c.geom.rowsPerBank);
    std::uint64_t off = rng.nextBelow(spread);
    if (c.geom.rowsPerBank > spread && rng.chance(0.125))
        return c.geom.rowsPerBank - spread + off;
    return off;
}

/** Span sink that only counts completions (the fuzzer has no use for
 *  the span contents — it proves the *presence* of tracing changes
 *  nothing). */
class CountingSpanSink : public RequestTraceSink
{
  public:
    void onSpan(const RequestSpan &) override { ++count_; }
    std::uint64_t count() const { return count_; }

  private:
    std::uint64_t count_ = 0;
};

/** The harness's completion sink: counts finished requests and
 *  migrations into the report. Installed on every (re)built DRAM
 *  system, so a restored run needs nothing rebound. */
class ReportSink : public CompletionSink
{
  public:
    explicit ReportSink(FuzzReport &rep) : rep_(rep) {}
    void onRequestDone(MemRequest &, Cycle) override { ++rep_.completed; }
    void
    onMigrationDone(const MigrationJob &, Cycle) override
    {
        ++rep_.migrationsDone;
    }

  private:
    FuzzReport &rep_;
};

/** parseDesign()-compatible short name, safe for --filter replay. */
const char *
shortDesignName(DesignKind kind)
{
    switch (kind) {
      case DesignKind::Standard: return "standard";
      case DesignKind::Sas: return "sas";
      case DesignKind::Charm: return "charm";
      case DesignKind::Das: return "das";
      case DesignKind::DasFm: return "das-fm";
      case DesignKind::Fs: return "fs";
    }
    return "?";
}

} // namespace

FuzzReport
runProtocolFuzz(const FuzzCase &c)
{
    const DesignSpec &spec = designSpec(c.design);
    DramTiming t = ddr3_1600Timing(spec.charmColumnOpt);
    return runProtocolFuzz(c, t, t);
}

FuzzReport
runProtocolFuzz(const FuzzCase &c, const DramTiming &dut,
                const DramTiming &reference, CommandSink *extra_sink)
{
    const DesignSpec &spec = designSpec(c.design);
    AsymmetricLayout layout(c.geom, c.layout);
    std::unique_ptr<RowClassifier> uniform = makeUniformClassifier(spec);
    const RowClassifier &cls =
        uniform ? static_cast<const RowClassifier &>(*uniform)
                : static_cast<const RowClassifier &>(layout);

    // dram / checker / fanout live on the heap so the mid-run snapshot
    // round trip (checkpointAtCycle) can tear them down and rebuild
    // fresh instances from the serialized bytes alone.
    auto checker =
        std::make_unique<ProtocolChecker>(c.geom, reference, &cls);
    auto fanout = std::make_unique<CommandFanout>();
    fanout->addSink(checker.get());
    fanout->addSink(extra_sink);

    FuzzReport rep;
    rep.name = c.name;
    rep.seed = c.seed;
    ReportSink done_sink(rep);

    auto dram = std::make_unique<DramSystem>(c.geom, dut, cls, c.ctrl,
                                             c.mapping);
    dram->setCommandSink(fanout.get());
    dram->setCompletionSink(&done_sink);

    // Request-span tracing under fuzz traffic: every created request
    // draws a sampling decision (before the canAccept bail-out, so the
    // decision stream is a pure function of the creation sequence).
    RequestTracer tracer(c.seed, c.traceRequests);
    CountingSpanSink span_sink;
    if (c.traceRequests > 0.0)
        dram->setRequestTraceSink(&span_sink);

    Rng rng(c.seed);
    const std::uint64_t columns = c.geom.rowBytes / c.geom.lineBytes;

    // Trace-driven addressing: round-robin the workload's per-core
    // streams, folding each address into this case's geometry.
    std::vector<std::unique_ptr<TraceSource>> wl_traces;
    unsigned wl_next = 0;
    if (!c.workload.empty()) {
        WorkloadSpec w = WorkloadSpec::parse(c.workload);
        wl_traces = buildTraces(w, c.seed, c.geom.rowBytes,
                                c.geom.lineBytes);
    }
    auto next_wl_entry = [&](TraceEntry &e) {
        TraceSource &src = *wl_traces[wl_next];
        wl_next = static_cast<unsigned>((wl_next + 1) % wl_traces.size());
        if (!src.next(e)) {
            src.reset(); // non-looping file exhausted: start over
            if (!src.next(e))
                fatal("workload '{}' delivers no trace records",
                      c.workload);
        }
    };
    const unsigned fast_slots = layout.fastSlotsPerGroup();
    const unsigned group_size = layout.groupSize();
    // Limit migration injection to groups the demand traffic also
    // touches, so reservations and requests genuinely collide.
    const std::uint64_t mig_groups = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(c.rowSpread / group_size,
                                   layout.groupsPerBank()));

    // Jobs queued or running, summed over channels.
    auto pending_migrations = [&dram] {
        std::size_t n = 0;
        for (unsigned ch = 0; ch < dram->numChannels(); ++ch)
            n += dram->channel(ch).pendingMigrations();
        return n;
    };
    std::uint64_t next_req_id = 1;

    // Generous budget: a stuck controller fails the case as !drained
    // instead of hanging the harness.
    const Cycle max_mem_cycles =
        100'000 + 500ull * std::max(1u, c.requests);

    Cycle now_tick = 0;
    for (Cycle mem_cycle = 0; mem_cycle < max_mem_cycles; ++mem_cycle) {
        if (c.checkpointAtCycle > 0 &&
            mem_cycle == c.checkpointAtCycle) {
            // Snapshot round trip: serialize the DRAM system and the
            // checker, destroy them, rebuild fresh instances and
            // restore — the remainder of the run must be
            // indistinguishable from never having checkpointed.
            Archive saver;
            dram->serdeState(saver);
            checker->serdeState(saver);
            std::vector<unsigned char> bytes = binfmt::encodeEnvelope(
                kFuzzSnapshotMagic, 1, saver.payload());

            dram = std::make_unique<DramSystem>(c.geom, dut, cls,
                                                c.ctrl, c.mapping);
            checker = std::make_unique<ProtocolChecker>(c.geom,
                                                        reference, &cls);
            fanout = std::make_unique<CommandFanout>();
            fanout->addSink(checker.get());
            fanout->addSink(extra_sink);
            dram->setCommandSink(fanout.get());
            dram->setCompletionSink(&done_sink);
            if (c.traceRequests > 0.0)
                dram->setRequestTraceSink(&span_sink);

            binfmt::EnvelopeResult res = binfmt::decodeEnvelope(
                std::move(bytes), kFuzzSnapshotMagic, 1,
                "fuzz checkpoint");
            if (!res.ok())
                fatal("fuzz checkpoint round trip: {}", res.error);
            Archive loader(res.payload());
            dram->serdeState(loader);
            checker->serdeState(loader);
            loader.finish();
        }
        // Inject 0-2 demand requests per cycle while traffic remains.
        unsigned burst = static_cast<unsigned>(rng.nextBelow(3));
        for (unsigned i = 0; i < burst && rep.submitted < c.requests;
             ++i) {
            auto req = std::make_unique<MemRequest>();
            req->id = next_req_id++;
            if (!wl_traces.empty()) {
                TraceEntry e{};
                next_wl_entry(e);
                req->isWrite = e.isWrite;
                Addr line = e.addr % c.geom.capacityBytes();
                line -= line % c.geom.lineBytes;
                req->loc = dram->mapper().decode(line);
                req->addr = dram->mapper().encode(req->loc);
            } else {
                req->isWrite = rng.chance(c.writeFraction);
                req->loc.channel = static_cast<unsigned>(
                    rng.nextBelow(c.geom.channels));
                req->loc.rank = static_cast<unsigned>(
                    rng.nextBelow(c.geom.ranksPerChannel));
                req->loc.bank = static_cast<unsigned>(
                    rng.nextBelow(c.geom.banksPerRank));
                req->loc.row = pickRow(rng, c);
                req->loc.column = rng.nextBelow(columns);
                req->addr = dram->mapper().encode(req->loc);
            }
            if (c.traceRequests > 0.0) {
                req->span = tracer.maybeStart();
                if (req->span) {
                    req->span->core = -1;
                    req->span->addr = req->addr;
                    req->span->isWrite = req->isWrite;
                    req->span->issueTick = now_tick;
                    req->span->missTick = now_tick;
                    req->span->transDoneTick = now_tick;
                    req->span->submitTick = now_tick;
                }
            }
            if (!dram->canAccept(req->loc, req->isWrite))
                break;
            dram->submit(std::move(req), now_tick);
            ++rep.submitted;
        }

        // Inject swap jobs against the same row region.
        if (c.migrationChance > 0.0 && pending_migrations() < 16 &&
            rng.chance(c.migrationChance)) {
            unsigned ch = static_cast<unsigned>(
                rng.nextBelow(c.geom.channels));
            unsigned ra = static_cast<unsigned>(
                rng.nextBelow(c.geom.ranksPerChannel));
            unsigned ba = static_cast<unsigned>(
                rng.nextBelow(c.geom.banksPerRank));
            std::uint64_t base =
                layout.groupBaseRow(rng.nextBelow(mig_groups));
            std::uint64_t row_b = base + rng.nextBelow(fast_slots);
            std::uint64_t row_a =
                base + fast_slots +
                rng.nextBelow(group_size - fast_slots);
            ++rep.migrationsStarted;
            dram->startMigration(ch, ra, ba, row_a, row_b, base,
                                base + group_size);
        }

        now_tick += kMemTick;
        dram->tick(now_tick);
        if (rep.submitted >= c.requests &&
            rep.completed >= rep.submitted && !dram->busy()) {
            rep.drained = true;
            break;
        }
    }

    rep.commands = checker->commandCount();
    rep.violations = checker->violationCount();
    rep.firstViolation = checker->firstViolation();
    rep.spansEmitted = span_sink.count();
    return rep;
}

namespace
{

/** Record the first mismatching report field in @p detail. */
template <typename T>
void
diffField(std::string &detail, const char *name, const T &a, const T &b)
{
    if (a == b || !detail.empty())
        return;
    detail = formatStr("report.{}: reference={} run={}", name, a, b);
}

/** First differing line between two command-trace dumps, if any. */
void
diffTraces(std::string &detail, const std::string &ref,
           const std::string &run)
{
    if (ref == run || !detail.empty())
        return;
    std::istringstream ta(ref), tb(run);
    std::string la, lb;
    std::uint64_t line = 0;
    while (true) {
        ++line;
        bool ha = static_cast<bool>(std::getline(ta, la));
        bool hb = static_cast<bool>(std::getline(tb, lb));
        if (!ha && !hb)
            break;
        if (ha != hb || la != lb) {
            detail = formatStr(
                "trace line {}: reference=\"{}\" run=\"{}\"", line,
                ha ? la : "<eof>", hb ? lb : "<eof>");
            return;
        }
    }
    detail = "traces differ (whitespace only?)";
}

/** First mismatch between two full runs (all report fields + traces).
 *  spansEmitted is deliberately not compared here: the sampling
 *  crossing diffs a rate-0 run against sampled ones, and the span
 *  count is the one field that legitimately differs. Sampled runs
 *  are held to an exact span-count match separately. */
void
diffRuns(std::string &detail, const FuzzReport &a, const FuzzReport &b,
         const std::string &trace_a, const std::string &trace_b)
{
    diffField(detail, "commands", a.commands, b.commands);
    diffField(detail, "violations", a.violations, b.violations);
    diffField(detail, "firstViolation", a.firstViolation,
              b.firstViolation);
    diffField(detail, "submitted", a.submitted, b.submitted);
    diffField(detail, "completed", a.completed, b.completed);
    diffField(detail, "migrationsStarted", a.migrationsStarted,
              b.migrationsStarted);
    diffField(detail, "migrationsDone", a.migrationsDone,
              b.migrationsDone);
    diffField(detail, "drained", a.drained, b.drained);
    diffTraces(detail, trace_a, trace_b);
}

} // namespace

FuzzDifferential
runFuzzDifferential(const FuzzCase &c)
{
    const DesignSpec &spec = designSpec(c.design);
    const DramTiming t = ddr3_1600Timing(spec.charmColumnOpt);
    // Cross span sampling off/on: tracing is observation-only, so
    // every report field and command-trace byte must survive turning
    // it on. Without an explicit rate every request is sampled.
    const std::vector<double> rates{
        0.0, c.traceRequests > 0.0 ? c.traceRequests : 1.0};

    // With c.checkpointAtCycle set, cross the snapshot round trip too:
    // every rate additionally runs with a mid-run checkpoint/restore,
    // and must still match the straight reference byte for byte.
    std::vector<Cycle> checkpoints{0};
    if (c.checkpointAtCycle > 0)
        checkpoints.push_back(c.checkpointAtCycle);

    auto run_one = [&](double rate, Cycle checkpoint,
                       std::string &trace_text) {
        FuzzCase one = c;
        one.traceRequests = rate;
        one.checkpointAtCycle = checkpoint;
        std::ostringstream os;
        CommandTrace trace(os);
        FuzzReport rep = runProtocolFuzz(one, t, t, &trace);
        trace_text = os.str();
        return rep;
    };

    // The straight run with sampling off is the reference every other
    // (rate, checkpoint) combination must match byte-for-byte.
    FuzzDifferential d;
    std::string ref_trace;
    d.reference = run_one(0.0, 0, ref_trace);
    std::uint64_t span_ref = 0;
    bool have_span_ref = false;
    for (double rate : rates) {
        for (Cycle checkpoint : checkpoints) {
            if (rate == 0.0 && checkpoint == 0)
                continue;
            std::string trace;
            FuzzReport rep = run_one(rate, checkpoint, trace);
            std::string detail;
            diffRuns(detail, d.reference, rep, ref_trace, trace);
            if (!detail.empty() && d.detail.empty()) {
                d.detail = formatStr("rate={}/checkpoint={}: {}", rate,
                                     checkpoint, detail);
            }
            // Sampled runs must agree with each other on the span
            // count: the decisions are a pure function of (seed, rate,
            // creation order), all identical here.
            if (rate > 0.0) {
                if (!have_span_ref) {
                    span_ref = rep.spansEmitted;
                    have_span_ref = true;
                } else if (rep.spansEmitted != span_ref &&
                           d.detail.empty()) {
                    d.detail = formatStr(
                        "rate={}/checkpoint={}: spansEmitted {} != "
                        "reference {}",
                        rate, checkpoint, rep.spansEmitted, span_ref);
                }
            }
        }
    }
    d.identical = d.detail.empty();
    return d;
}

std::vector<FuzzCase>
defaultFuzzCases(std::uint64_t base_seed, unsigned requests)
{
    struct Corner
    {
        const char *name;
        void (*apply)(FuzzCase &);
        bool migrationOnly; ///< corner only meaningful with migrations
    };
    static const Corner corners[] = {
        {"base", [](FuzzCase &) {}, false},
        {"tiny-queues",
         [](FuzzCase &c) {
             c.ctrl.readQueueDepth = 4;
             c.ctrl.writeQueueDepth = 4;
             c.ctrl.writeHighWatermark = 3;
             c.ctrl.writeLowWatermark = 1;
         },
         false},
        {"no-refresh",
         [](FuzzCase &c) { c.ctrl.refreshEnabled = false; }, false},
        {"defer0",
         [](FuzzCase &c) { c.ctrl.migrationMaxDefer = 0; }, true},
    };
    static const DesignKind designs[] = {
        DesignKind::Standard, DesignKind::Sas,   DesignKind::Charm,
        DesignKind::Das,      DesignKind::DasFm, DesignKind::Fs,
    };

    std::vector<FuzzCase> cases;
    for (DesignKind design : designs) {
        // DAS designs get migration traffic; the static designs only
        // see demand requests (they never issue MIGRATE).
        bool migrates =
            design == DesignKind::Das || design == DesignKind::DasFm;
        for (const Corner &corner : corners) {
            if (corner.migrationOnly && !migrates)
                continue;
            FuzzCase c;
            c.design = design;
            c.name = std::string(shortDesignName(design)) + "/" +
                     corner.name;
            c.requests = requests;
            c.migrationChance = migrates ? 0.02 : 0.0;
            corner.apply(c);
            c.seed = SweepRunner::pointSeed(base_seed, c.name, design);
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

} // namespace dasdram
