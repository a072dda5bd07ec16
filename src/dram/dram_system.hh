/**
 * @file
 * Multi-channel DRAM system: address decoding, request routing, write-
 * to-read forwarding, clock-domain conversion (global ticks ↔ memory
 * cycles) and the migration interface used by DAS-DRAM.
 */

#ifndef DASDRAM_DRAM_DRAM_SYSTEM_HH
#define DASDRAM_DRAM_DRAM_SYSTEM_HH

#include <cstdint>
#include <functional>
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
 * runs in memory-bus cycles.
 */
class DramSystem
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
     * onComplete fires with the completion time in ticks. Reads that hit
     * the channel write queue are forwarded and complete quickly without
     * occupying DRAM banks.
     */
    void submit(std::unique_ptr<MemRequest> req, Cycle now_tick);
    /// @}

    /**
     * Queue a row swap (promotion) or single migration in the bank that
     * owns the two rows. Rows [row_lo, row_hi) — the affected
     * subarrays / migration group — are blocked while it runs; pass
     * row_lo == row_hi to block just the two rows. @p on_done fires
     * with the finish tick. @p group is the caller's serialisable
     * identity for the job (MigrationJob::kNoGroup when it has none):
     * after a snapshot restore, rebindMigrations() hands it back so
     * the owner can reconstruct on_done.
     */
    void startMigration(unsigned channel, unsigned rank, unsigned bank,
                        std::uint64_t row_a, std::uint64_t row_b,
                        bool full_swap, std::uint64_t row_lo,
                        std::uint64_t row_hi,
                        std::function<void(Cycle)> on_done,
                        std::uint64_t group = MigrationJob::kNoGroup);

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

    /** Earliest tick tick() should next be called at. */
    Cycle nextWakeTick(Cycle now_tick) const;

    /**
     * Earliest memory cycle any channel could issue a command or change
     * state after @p mem_now (kCycleMax when fully idle). The memory-
     * cycle-domain primitive behind nextWakeTick(); fuzz/differential
     * harnesses probe this directly.
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

    /**
     * Reinstall completion callbacks on every owned request after a
     * restore. @p binder maps a request (via its serialised
     * Continuation) to a tick-domain callback (or null); each one is
     * re-wrapped into the controller's memory-cycle domain exactly as
     * submit() wraps live callbacks.
     */
    void rebindRequests(
        const std::function<MemRequest::Callback(const MemRequest &)>
            &binder);

    /**
     * Reinstall onDone on every pending/active migration job after a
     * restore. @p binder maps a job (via its serialised group tag) to
     * a tick-domain callback (or null); wrapped like startMigration()
     * wraps live callbacks.
     */
    void rebindMigrations(
        const std::function<std::function<void(Cycle)>(
            const MigrationJob &)> &binder);
    /// @}

  private:
    DramTiming timing_;
    AddressMapper mapper_;
    std::vector<std::unique_ptr<ChannelController>> channels_;
    Cycle lastMemCycle_ = 0;

    RequestTraceSink *spanSink_ = nullptr; ///< request-span sink

    StatGroup statGroup_;
    Counter forwardedReads_;
};

} // namespace dasdram

#endif // DASDRAM_DRAM_DRAM_SYSTEM_HH
