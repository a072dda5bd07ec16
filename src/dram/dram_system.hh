/**
 * @file
 * Multi-channel DRAM system: address decoding, request routing, write-
 * to-read forwarding, clock-domain conversion (global ticks ↔ memory
 * cycles) and the migration interface used by DAS-DRAM.
 */

#ifndef DASDRAM_DRAM_DRAM_SYSTEM_HH
#define DASDRAM_DRAM_DRAM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "dram/address_mapping.hh"
#include "dram/controller.hh"
#include "dram/energy.hh"
#include "dram/timing.hh"
#include "mem/clock.hh"
#include "mem/request.hh"

namespace dasdram
{

/**
 * The full memory system below the last-level cache. All public times
 * are in global simulation ticks (1/12 ns); internal controller state
 * runs in memory-bus cycles. The system is every channel's completion
 * sink: it converts their memory cycles to ticks, in one place, and
 * forwards to the owner's sink.
 */
class DramSystem : private CompletionSink
{
  public:
    /**
     * @param classifier row-class oracle; must outlive the system.
     */
    DramSystem(const DramGeometry &geom, const DramTiming &timing,
               const RowClassifier &classifier,
               const ControllerConfig &ctrl_cfg = {},
               MappingScheme scheme = MappingScheme::RoRaBaChCo);

    DramSystem(const DramSystem &) = delete;
    DramSystem &operator=(const DramSystem &) = delete;

    /// @name Request interface (tick domain)
    /// @{

    /** Decode a physical byte address. */
    DramLoc decode(Addr addr) const { return mapper_.decode(addr); }

    /** True iff the channel owning @p loc can accept the request. */
    bool canAccept(const DramLoc &loc, bool is_write) const;

    /**
     * Submit a request whose loc is already decoded (and translated).
     * @pre canAccept(req->loc, req->isWrite).
     * The completion sink receives it with the completion time in
     * ticks. Reads that hit the channel write queue are forwarded and
     * complete quickly without occupying DRAM banks; they reach the
     * sink before submit() returns.
     */
    void submit(std::unique_ptr<MemRequest> req, Cycle now_tick);
    /// @}

    /**
     * Queue a row swap (promotion) or single migration in the bank that
     * owns the two rows. Rows [row_lo, row_hi) — the affected
     * subarrays / migration group — are blocked while it runs; pass
     * row_lo == row_hi to block just the two rows. The completion sink
     * receives the job with the finish tick. @p group is the caller's
     * serialisable identity for the job (MigrationJob::kNoGroup when
     * it has none), for the sink to dispatch on.
     */
    void startMigration(unsigned channel, unsigned rank, unsigned bank,
                        std::uint64_t row_a, std::uint64_t row_b,
                        bool full_swap, std::uint64_t row_lo,
                        std::uint64_t row_hi,
                        std::uint64_t group = MigrationJob::kNoGroup);

    /**
     * Install the owner's completion receiver (times in ticks);
     * nullptr drops completions. Must outlive the system or be
     * detached first. Not checkpointed: a restored system completes
     * in-flight work to the sink installed on it.
     */
    void setCompletionSink(CompletionSink *sink) { doneSink_ = sink; }

    /**
     * Attach a command observer (protocol checker / trace writer) to
     * every channel; nullptr detaches. Must outlive the system.
     */
    void setCommandSink(CommandSink *sink);

    /**
     * Attach a completed-request-span observer (request tracing) to
     * every channel; nullptr detaches. Must outlive the system. The
     * system keeps its own reference for reads forwarded from the
     * write queue, which never reach a channel controller.
     */
    void setRequestTraceSink(RequestTraceSink *sink);

    /** Advance the memory clock up to @p now_tick (call monotonically). */
    void tick(Cycle now_tick);

    /** nextWakeMemCycle() in ticks (kCycleMax when fully idle). */
    Cycle nextWakeTick(Cycle now_tick) const;

    /**
     * Earliest memory cycle any channel could issue a command or change
     * state after @p mem_now (kCycleMax when fully idle) — the horizon
     * tick()'s catch-up loop skips dead cycles up to. The memory-
     * cycle-domain primitive behind nextWakeTick().
     */
    Cycle nextWakeMemCycle(Cycle mem_now) const;

    /** Any outstanding work in any channel? */
    bool busy() const;

    /// @name Introspection
    /// @{
    const AddressMapper &mapper() const { return mapper_; }
    const DramGeometry &geometry() const { return mapper_.geometry(); }
    const DramTiming &timing() const { return timing_; }
    ChannelController &channel(unsigned i) { return *channels_[i]; }
    const ChannelController &channel(unsigned i) const
    {
        return *channels_[i];
    }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /** Aggregate operation counts for the energy model. */
    EnergyBreakdown energyBreakdown() const;

    StatGroup &stats() { return statGroup_; }
    /// @}

    /// @name Checkpointing
    /// @{

    /** Checkpoint the memory clock and every channel (sink wiring is
     *  reconstructed, not stored). */
    void serdeState(Archive &ar);
    /// @}

  private:
    /// Channel completions (memory cycles) → owner's sink (ticks).
    void onRequestDone(MemRequest &req, Cycle mem_at) override;
    void onMigrationDone(const MigrationJob &job, Cycle mem_at) override;

    DramTiming timing_;
    AddressMapper mapper_;
    std::vector<std::unique_ptr<ChannelController>> channels_;
    Cycle lastMemCycle_ = 0;

    RequestTraceSink *spanSink_ = nullptr; ///< request-span sink
    CompletionSink *doneSink_ = nullptr;   ///< owner's, tick domain

    StatGroup statGroup_;
    Counter forwardedReads_;
};

} // namespace dasdram

#endif // DASDRAM_DRAM_DRAM_SYSTEM_HH
