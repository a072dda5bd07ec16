/**
 * @file
 * Sampled per-request lifecycle tracing: the span record attached to a
 * MemRequest, the sink fanout completed spans flow through, the
 * deterministic sampler, the schema-versioned JSONL exporter and the
 * in-sim critical-path aggregator.
 *
 * The tracer is strictly observation-only: nothing in the simulation
 * ever branches on whether a request carries a span, so command
 * streams and metrics are bit-identical with sampling on or off (the
 * differential fuzzer crosses both to prove it).
 */

#ifndef DASDRAM_MEM_REQUEST_TRACE_HH
#define DASDRAM_MEM_REQUEST_TRACE_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/serde.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/row_class.hh"
#include "mem/request.hh"

namespace dasdram
{

/** Span-JSONL on-disk schema version (meta record "version" field). */
constexpr int kSpanJsonlVersion = 1;

/** Span-JSONL schema identifier (meta record "schema" field). */
constexpr const char *kSpanJsonlSchema = "dasdram-spans";

/** How the DAS row translation for a request was resolved. */
enum class TranslationPath : std::uint8_t
{
    None,     ///< static design, or translation not consulted
    TagCache, ///< remap tag cache hit (zero added latency)
    LlcWalk,  ///< table walk satisfied by the LLC slice
    DramWalk, ///< table walk issued to DRAM (or coalesced onto one)
};

/** Converts a TranslationPath to a short display string. */
const char *toString(TranslationPath path);

/**
 * Lifecycle record for one sampled memory request. CPU-side stages
 * are global ticks; controller-side stages are memory-controller
 * cycles (multiply by kMemTick for ticks). A span is heap-allocated
 * only for sampled requests and owned by the MemRequest it rides on;
 * every hot-path touch point is gated on a single pointer null check.
 *
 * Blame attribution (DESIGN.md §11): the wait window [admit,
 * firstCmd) is decomposed exactly via cumulative busy-time
 * accumulators on Bank (migration reservations) and Rank (refresh),
 * so waitQueue() is the residual and
 *   waitQueue + waitBlock + waitRefresh + rowLatency + serviceLatency
 * telescopes to totalLatency() with no rounding.
 */
struct RequestSpan
{
    std::uint64_t sampleId = 0; ///< sampler decision sequence number
    int core = -1;              ///< issuing core, -1 for system traffic
    Addr addr = kAddrInvalid;
    bool isWrite = false;
    bool isTableWalk = false; ///< DAS translation-table walk request
    bool forwarded = false;   ///< read served from the write queue

    // --- CPU-side stages (global ticks) ---
    Cycle issueTick = 0;     ///< core issued the access (== missTick
                             ///< for writebacks and walks)
    Cycle missTick = 0;      ///< LLC miss / MSHR allocate / WB emit
    Cycle transDoneTick = 0; ///< DAS translation resolved
    Cycle submitTick = 0;    ///< handed to the DRAM system

    TranslationPath trans = TranslationPath::None;

    // --- DRAM coordinates (post-translation) ---
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    GlobalRowId logicalRow = 0;
    RowClass rowClass = RowClass::Slow; ///< meaningless when forwarded
    ServiceLocation location = ServiceLocation::Unknown;

    // --- Controller stages (memory-controller cycles) ---
    Cycle admitCycle = 0;    ///< controller queue admit
    Cycle readyCycle = 0;    ///< first schedulable cycle (lower bound
                             ///< computed at admit)
    Cycle firstCmdCycle = 0; ///< first command issued for this request
    Cycle preCycle = 0;      ///< conflict PRE (valid iff hasPre)
    Cycle actCycle = 0;      ///< ACT (valid iff hasAct)
    Cycle colCycle = 0;      ///< RD/WR issue
    Cycle dataCycle = 0;     ///< data return (writes: WR issue + tBL)
    bool hasFirstCmd = false;
    bool hasPre = false; ///< row-buffer conflict forced a precharge
    bool hasAct = false; ///< row-buffer miss required an activation

    // --- Blame attribution (memory-controller cycles) ---
    Cycle waitBlock = 0;          ///< migration-reservation overlap
                                  ///< with [admit, firstCmd)
    Cycle waitRefresh = 0;        ///< rank-refresh overlap with
                                  ///< [admit, firstCmd)
    Cycle fawStall = 0;           ///< extra delay tFAW/tRRD imposed on
                                  ///< the ACT beyond bank readiness
                                  ///< (informational; inside waitQueue)
    Cycle blockedUntilCycle = 0;  ///< migration blocking the row at
                                  ///< admit ends here (0 = none)
    Cycle refreshBusyAtAdmit = 0; ///< rank accumulator snapshot
    Cycle reserveBusyAtAdmit = 0; ///< bank accumulator snapshot

    /** Wait in queue not blamed on reservations or refresh. */
    Cycle
    waitQueue() const
    {
        return firstCmdCycle - admitCycle - waitBlock - waitRefresh;
    }

    /** first command -> column issue (PRE/ACT path length). */
    Cycle
    rowLatency() const
    {
        return colCycle - firstCmdCycle;
    }

    /** Column issue -> data return (CAS + burst, reads). */
    Cycle
    serviceLatency() const
    {
        return dataCycle - colCycle;
    }

    /** Queue admit -> data return; equals the histogram sample. */
    Cycle
    totalLatency() const
    {
        return dataCycle - admitCycle;
    }

    /** Row-buffer outcome label: forwarded / hit / miss / conflict. */
    const char *outcome() const;

    /** Checkpoint every stage timestamp and coordinate (spans of
     *  in-flight sampled requests ride their MemRequest). */
    void
    serdeState(Archive &ar)
    {
        ar.io(sampleId);
        ar.io(core);
        ar.io(addr);
        ar.io(isWrite);
        ar.io(isTableWalk);
        ar.io(forwarded);
        ar.io(issueTick);
        ar.io(missTick);
        ar.io(transDoneTick);
        ar.io(submitTick);
        ar.io(trans);
        ar.io(channel);
        ar.io(rank);
        ar.io(bank);
        ar.io(row);
        ar.io(logicalRow);
        ar.io(rowClass);
        ar.io(location);
        ar.io(admitCycle);
        ar.io(readyCycle);
        ar.io(firstCmdCycle);
        ar.io(preCycle);
        ar.io(actCycle);
        ar.io(colCycle);
        ar.io(dataCycle);
        ar.io(hasFirstCmd);
        ar.io(hasPre);
        ar.io(hasAct);
        ar.io(waitBlock);
        ar.io(waitRefresh);
        ar.io(fawStall);
        ar.io(blockedUntilCycle);
        ar.io(refreshBusyAtAdmit);
        ar.io(reserveBusyAtAdmit);
    }
};

/** Receives completed spans; implementations must not mutate state
 *  the simulation branches on (observation only). */
class RequestTraceSink
{
  public:
    virtual ~RequestTraceSink() = default;

    /** Called once per sampled request, at completion, in completion
     *  order (deterministic, and reproduced exactly by a restored run). */
    virtual void onSpan(const RequestSpan &span) = 0;
};

/** Broadcasts each completed span to every registered sink. */
class RequestSpanFanout : public RequestTraceSink
{
  public:
    /** Registers @p sink (ignored when null). Not owned. */
    void
    addSink(RequestTraceSink *sink)
    {
        if (sink)
            sinks_.push_back(sink);
    }

    void
    onSpan(const RequestSpan &span) override
    {
        for (RequestTraceSink *s : sinks_)
            s->onSpan(span);
    }

  private:
    std::vector<RequestTraceSink *> sinks_;
};

/**
 * Deterministic request sampler. Each call to maybeStart() consumes
 * one decision: the decision sequence number is hashed (splitmix64)
 * against the seed, so the sampled subset depends only on (seed,
 * rate, decision index) — never on wall-clock. Decisions are made at
 * deterministic request-creation points (MSHR allocation, writeback
 * emission, table-walk issue), so a rerun or a restored run samples
 * the same requests.
 */
class RequestTracer
{
  public:
    /** @p rate in [0, 1]: 0 never samples, >= 1 samples every
     *  request, else a deterministic pseudo-random subset. */
    RequestTracer(std::uint64_t seed, double rate);

    /** Rolls the next decision; returns a fresh span (with sampleId
     *  set) when sampled, null otherwise. */
    std::unique_ptr<RequestSpan> maybeStart();

    double rate() const { return rate_; }
    std::uint64_t seed() const { return seed_; }
    std::uint64_t decisions() const { return decisions_; }
    std::uint64_t sampled() const { return sampled_; }

    /** Checkpoint the decision/sample counters (seed, rate and the
     *  derived threshold are config; the fingerprint pins them). */
    void
    serdeState(Archive &ar)
    {
        ar.section("reqTracer");
        ar.io(decisions_);
        ar.io(sampled_);
        ar.end();
    }

  private:
    std::uint64_t seed_;
    double rate_;
    std::uint64_t threshold_; ///< sample iff hash < threshold_
    std::uint64_t decisions_ = 0;
    std::uint64_t sampled_ = 0;
};

/** Identity stamped into the span-JSONL meta record. */
struct SpanJsonlMeta
{
    std::string workload;
    std::string design;
    std::string label;
    std::uint64_t seed = 0;
    double rate = 0.0;
};

/**
 * Streams completed spans as schema-versioned JSONL: one meta record
 * ("type":"meta", schema dasdram-spans v1) followed by one
 * "type":"span" record per completed span, in completion order.
 * Deterministic byte-for-byte for a given (seed, rate, workload).
 */
class SpanJsonlWriter : public RequestTraceSink
{
  public:
    /** Writes the meta record immediately. Stream must outlive us. */
    SpanJsonlWriter(std::ostream &os, const SpanJsonlMeta &meta);

    void onSpan(const RequestSpan &span) override;

    std::uint64_t spansWritten() const { return spans_; }

  private:
    std::ostream &os_;
    std::uint64_t spans_ = 0;
};

/**
 * In-sim critical-path aggregator: folds completed spans into
 * per-row-class and per-tenant latency-breakdown distributions that
 * ride the ordinary StatGroup tree (and therefore the stats-JSONL
 * export and epoch series). All values are memory-controller cycles.
 *
 * Row-class groups (classRowHit/classFast/classSlow) cover reads that
 * went through the controller — including table walks, mirroring the
 * rollup.readLatency histograms — so at sampling rate 1.0 their total
 * count/sum reconcile exactly with the aggregate histograms. Walks
 * and forwarded reads additionally get their own groups; per-tenant
 * groups split demand reads by issuing core.
 */
class CriticalPathAggregator : public RequestTraceSink
{
  public:
    explicit CriticalPathAggregator(unsigned num_tenants);

    void onSpan(const RequestSpan &span) override;

    StatGroup &stats() { return group_; }
    std::uint64_t spansSeen() const { return spansSeen_; }

    /** Checkpoint the raw span counter (the distributions live in the
     *  stat tree and ride the owner's serdeTree pass). */
    void
    serdeState(Archive &ar)
    {
        ar.section("spanAgg");
        ar.io(spansSeen_);
        ar.end();
    }

  private:
    /** One breakdown bundle: total + the five blame components. */
    struct Breakdown
    {
        Distribution total;
        Distribution waitQueue;
        Distribution waitBlock;
        Distribution waitRefresh;
        Distribution rowLatency;
        Distribution service;
        Distribution fawStall;

        void registerIn(StatGroup &g);
        void sample(const RequestSpan &s);
    };

    StatGroup group_{"reqtrace"};
    Counter spans_;

    StatGroup rowHitGroup_{"classRowHit"};
    StatGroup fastGroup_{"classFast"};
    StatGroup slowGroup_{"classSlow"};
    StatGroup writeGroup_{"writes"};
    StatGroup walkGroup_{"tableWalks"};
    StatGroup forwardGroup_{"forwarded"};
    Breakdown rowHit_;
    Breakdown fast_;
    Breakdown slow_;
    Breakdown writes_;
    Breakdown walks_;
    Breakdown forwarded_;

    struct Tenant
    {
        StatGroup group;
        Breakdown reads;
        explicit Tenant(const std::string &name) : group(name) {}
    };
    std::vector<std::unique_ptr<Tenant>> tenants_;

    std::uint64_t spansSeen_ = 0;
};

} // namespace dasdram

#endif // DASDRAM_MEM_REQUEST_TRACE_HH
