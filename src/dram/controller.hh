/**
 * @file
 * Per-channel DRAM memory controller: FR-FCFS scheduling, open-page row
 * policy, separate read/write queues with drain watermarks, refresh
 * management, and bank reservation for DAS-DRAM migrations/swaps.
 *
 * Time unit throughout is memory-bus cycles (tCK = 1.25 ns).
 */

#ifndef DASDRAM_DRAM_CONTROLLER_HH
#define DASDRAM_DRAM_CONTROLLER_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/cmd_trace.hh"
#include "dram/geometry.hh"
#include "dram/rank.hh"
#include "dram/row_class.hh"
#include "dram/timing.hh"
#include "mem/request.hh"

namespace dasdram
{

class RequestTraceSink; // mem/request_trace.hh

/** Controller tunables. */
struct ControllerConfig
{
    unsigned readQueueDepth = 32; ///< Table 1: 32-entry request queue
    unsigned writeQueueDepth = 32;
    unsigned writeHighWatermark = 24;
    unsigned writeLowWatermark = 8;
    bool refreshEnabled = true;

    /**
     * Migrations are background work: they wait for the target bank to
     * have no queued demand requests, but at most this many cycles
     * (then they force their way in to avoid starvation).
     */
    Cycle migrationMaxDefer = 1600; // 2 us at 800 MHz
};

/** An internal row swap (a DAS promotion) to run in one bank. */
struct MigrationJob
{
    /** group value for jobs with no owner-side identity. */
    static constexpr std::uint64_t kNoGroup = ~std::uint64_t{0};

    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t rowA = 0; ///< e.g. promotee (slow) row
    std::uint64_t rowB = 0; ///< e.g. victim (fast) row
    /** Row range blocked while the swap runs (the two subarrays /
     *  migration group). Defaults to just the two rows. */
    std::uint64_t rowLo = 0;
    std::uint64_t rowHi = 0;
    Cycle enqueuedAt = kCycleMax; ///< stamped by the controller
    /** Nonzero per-channel job id, stamped by addMigration(). */
    std::uint64_t id = 0;
    /**
     * Serialisable owner-side identity (the DAS migration-group id),
     * kNoGroup for untagged jobs. The completion sink dispatches on
     * it, so a restored job needs nothing beyond its data fields.
     */
    std::uint64_t group = kNoGroup;

    /** Checkpoint all data fields. */
    void
    serdeState(Archive &ar)
    {
        ar.io(rank);
        ar.io(bank);
        ar.io(rowA);
        ar.io(rowB);
        ar.io(rowLo);
        ar.io(rowHi);
        ar.io(enqueuedAt);
        ar.io(id);
        ar.io(group);
    }
};

/**
 * Receives finished requests and migration jobs, synchronously, in
 * completion order. The owner installs one sink once; a request or job
 * carries only data (isTableAccess, cont, group), so the sink
 * dispatches on that and a restored simulation needs no rebind step.
 * @p at is in the installer's clock domain: memory cycles from a
 * ChannelController, global ticks from a DramSystem.
 */
class CompletionSink
{
  public:
    virtual ~CompletionSink() = default;

    /** @p req is destroyed right after the call returns. */
    virtual void onRequestDone(MemRequest &req, Cycle at) = 0;
    virtual void onMigrationDone(const MigrationJob &job, Cycle at) = 0;
};

/**
 * One DDR3 channel: command/data bus, ranks, queues and scheduler.
 */
class ChannelController
{
  public:
    ChannelController(unsigned channel_id, const DramGeometry &geom,
                      const DramTiming &timing,
                      const RowClassifier &classifier,
                      const ControllerConfig &cfg);

    /// @name Request interface
    /// @{

    /** True iff a request of this kind can be accepted now. */
    bool canAccept(bool is_write) const;

    /**
     * Hand a request to the controller. @pre canAccept(req->isWrite).
     * The controller takes ownership; the completion sink receives it
     * when the data burst finishes (reads) or the WR command issues
     * (writes), then the request is destroyed.
     */
    void enqueue(std::unique_ptr<MemRequest> req, Cycle now);

    /**
     * True iff a write to @p line_addr is queued (read forwarding).
     */
    bool writeQueued(Addr line_addr) const;
    /// @}

    /** Queue a migration/swap job. Jobs run FIFO per bank. */
    void addMigration(MigrationJob job);

    /** Number of migration jobs not yet completed (queued or running). */
    std::size_t
    pendingMigrations() const
    {
        return migrations_.size() + activeMigrations_.size();
    }

    /**
     * Advance to cycle @p now: retire completions, update the
     * write-drain state, issue ≤1 command. Call once per memory cycle,
     * with @p now one past the previous call: the drain hysteresis
     * and the migration deferral are per-cycle state machines.
     */
    void tick(Cycle now);

    /** Outstanding work (queues, in-flight, migrations)? */
    bool busy() const;

    /** Attach (or detach with nullptr) the command observer. */
    void setCommandSink(CommandSink *sink) { sink_ = sink; }

    /** Attach (or detach with nullptr) the completed-span observer. */
    void setSpanSink(RequestTraceSink *sink) { spanSink_ = sink; }

    /** Attach (or detach with nullptr) the completion receiver; times
     *  are memory cycles. Null drops completions. */
    void setCompletionSink(CompletionSink *sink) { doneSink_ = sink; }

    /// @name Introspection & statistics
    /// @{
    Rank &rank(unsigned i) { return ranks_[i]; }
    const Rank &rank(unsigned i) const { return ranks_[i]; }

    StatGroup &stats() { return statGroup_; }

    std::uint64_t actCountFast() const { return actsFast_.value(); }
    std::uint64_t actCountSlow() const { return actsSlow_.value(); }
    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t readCount() const { return reads_.value(); }
    std::uint64_t writeCount() const { return writes_.value(); }
    std::uint64_t migrationCount() const { return migrationsDone_.value(); }

    /**
     * Read-latency histogram (enqueue → data, memory cycles) for
     * requests serviced at @p loc: RowBuffer (row hit), FastLevel or
     * SlowLevel. Unknown aliases to RowBuffer.
     */
    const Histogram &readLatencyHistogram(ServiceLocation loc) const;
    const Histogram &writeLatencyHistogram() const { return writeLat_; }

    /** Per-bank read-latency distributions merged channel-wide. */
    Distribution mergedBankReadLatency() const;
    /// @}

    /// @name Checkpointing
    /// @{

    /**
     * Checkpoint the channel: ranks and banks, both queues, the
     * completion heap of in-flight reads (raw array, preserving exact
     * tie-break pop order), migrations and bus/scheduler bookkeeping.
     * Stats are not stored here — they ride the owner's StatGroup
     * serdeTree pass. Sink wiring is not stored either: restored work
     * completes to whatever sink the owner installed at construction.
     * A restored request or job outside this channel's geometry, or a
     * completion array that is not a heap, is a fatal().
     */
    void serdeState(Archive &ar);
    /// @}

  private:
    /** An in-flight read, owned until its data burst ends at `at`. */
    struct Completion
    {
        Cycle at;
        std::unique_ptr<MemRequest> req;
        bool operator>(const Completion &o) const { return at > o.at; }
    };

    const Bank &bankOf(const MemRequest &r) const;

    /** Report completions due at or before @p now to the sink. */
    void retireCompletions(Cycle now);

    /** Returns true if a command was issued (consumes the cmd bus). */
    bool serviceRefresh(Cycle now);
    bool serviceMigrations(Cycle now);
    bool issueFromQueue(std::vector<std::unique_ptr<MemRequest>> &queue,
                        Cycle now);

    /**
     * If queue[i] is a ready row hit, issue its column command, retire
     * or track it, and return true.
     */
    bool issueColumnFor(std::vector<std::unique_ptr<MemRequest>> &queue,
                        std::size_t i, Cycle now);

    /** Try to issue the column command for @p req. */
    bool tryColumn(MemRequest &req, Cycle now);
    /** Try to issue ACT or PRE on behalf of @p req. */
    bool tryRowCommand(MemRequest &req, Cycle now);

    /**
     * Lower bound on the cycle at which @p req could issue its next
     * command — column, ACT or conflict PRE — from the current
     * bank/rank/bus state. A pure function; the scheduler does not use
     * it. stampSpanAdmit() records it as the span's readyCycle.
     */
    Cycle requestReadyAt(const MemRequest &req) const;

    /** fatal() unless every restored request and migration job lies
     *  inside this channel's geometry and completions_ is a heap. */
    void checkRestored() const;

    /** Record stats, report @p req to the sink, then destroy it. */
    void finish(std::unique_ptr<MemRequest> req, Cycle at,
                ServiceLocation fallback_loc);

    /// @name Request-span stamping (no-ops unless req.span is set)
    /// @{

    /** Queue-admit stamp: coordinates, row class, readiness lower
     *  bound and the busy-accumulator snapshots blame is charged
     *  against. Call from enqueue(), after arrivalTick is set. */
    void stampSpanAdmit(MemRequest &req, Cycle now);

    /**
     * First-command stamp: closes the wait window [admit, now) and
     * charges its reservation/refresh overlap from the accumulator
     * deltas. Idempotent — later commands for the same request leave
     * the window closed. @pre req.span.
     */
    void stampSpanFirstCommand(MemRequest &req, Cycle now);
    /// @}

    /**
     * Report a PRE closing @p bank's open row (call before
     * Bank::precharge, while the row is still visible).
     */
    void emitPrecharge(Cycle now, unsigned rank_id, unsigned bank_id,
                       const Bank &bank);

    unsigned channelId_;
    DramGeometry geom_;
    const DramTiming *timing_;
    const RowClassifier *classifier_;
    ControllerConfig cfg_;

    std::vector<Rank> ranks_;

    std::vector<std::unique_ptr<MemRequest>> readQueue_;
    std::vector<std::unique_ptr<MemRequest>> writeQueue_;
    bool drainingWrites_ = false;

    /**
     * In-flight reads awaiting data completion: a min-heap on `at`
     * kept with push_heap/pop_heap over an explicit vector, so a
     * checkpoint can serialise the raw heap array verbatim and restore
     * the exact tie-break order.
     */
    std::vector<Completion> completions_;

    CommandSink *sink_ = nullptr;
    RequestTraceSink *spanSink_ = nullptr;
    CompletionSink *doneSink_ = nullptr;
    std::uint64_t nextMigrationId_ = 1;

    std::deque<MigrationJob> migrations_;
    /** Running migrations: (finish cycle, job). */
    std::vector<std::pair<Cycle, MigrationJob>> activeMigrations_;

    /** Channel data-bus bookkeeping. */
    Cycle dataBusFreeAt_ = 0;
    Cycle nextColAllowedAt_ = 0;
    int lastBusRank_ = -1;
    bool lastBusWasWrite_ = false;

    /// @name Statistics
    /// @{
    StatGroup statGroup_;
    Counter reads_, writes_, rowHits_, actsFast_, actsSlow_, precharges_;
    Counter refreshes_, migrationsDone_, readForwards_;
    Distribution readLatency_; ///< enqueue → data, in memory cycles

    /** Per-row-class latency and queue histograms (memory cycles /
     *  queue entries). */
    Histogram readLatRowHit_, readLatFast_, readLatSlow_, writeLat_;
    Histogram readQueueDelay_, writeQueueDelay_;
    Histogram readQueueOcc_, writeQueueOcc_;
    Histogram migrationStartDelay_; ///< first consideration → start

    /** Row-buffer behaviour broken down per bank (global bank index
     *  = rank * banksPerRank + bank), rolled up via merge(). */
    struct BankStats
    {
        explicit BankStats(const std::string &name) : group(name) {}
        StatGroup group;
        Counter rowHits;
        Counter rowConflicts;   ///< PRE issued for a conflicting row
        Counter classConflicts; ///< conflict where the classes differ
        Distribution readLatency;
    };
    std::vector<std::unique_ptr<BankStats>> bankStats_;

    BankStats &bankStatsOf(unsigned rank_id, unsigned bank_id);
    /// @}
};

} // namespace dasdram

#endif // DASDRAM_DRAM_CONTROLLER_HH
