/**
 * @file
 * ROB-window out-of-order core model (Table 1: 3 GHz, 4-wide issue,
 * 192-entry ROB).
 *
 * Every instruction occupies a window slot; non-memory instructions and
 * stores complete immediately, loads complete when the memory system
 * calls back. Retirement is in order, up to issue-width per cycle, so
 * a long-latency load at the head stalls the core exactly as a ROB
 * does. This converts memory latency into IPC the same way detailed
 * cores do for memory-bound workloads.
 */

#ifndef DASDRAM_CPU_CORE_HH
#define DASDRAM_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/trace.hh"
#include "mem/clock.hh"

namespace dasdram
{

/** Core tunables (Table 1 defaults). */
struct CoreConfig
{
    unsigned issueWidth = 4;
    unsigned robSize = 192;
};

/**
 * One core bound to one trace. The owner provides a memory-access
 * functor; the core hands it loads/stores and, for loads, the ROB
 * slot index the owner must wake through completeLoad() when the
 * data arrives. The slot index is plain data, so in-flight accesses
 * survive a checkpoint (the owner serialises the token, not a
 * closure).
 */
class Core
{
  public:
    /** Slot argument passed for accesses needing no completion
     *  (stores retire via the store buffer). */
    static constexpr unsigned kNoSlot = ~0u;

    /**
     * Memory access hook. Arguments: address, is_write, slot — for
     * loads the owner must call @c completeLoad(slot, tick) when the
     * data arrives (possibly synchronously, for cache hits); for
     * stores @c slot is kNoSlot and no completion is expected.
     */
    using MemAccessFn = std::function<void(Addr, bool, unsigned)>;

    Core(int id, const CoreConfig &cfg, TraceSource &trace,
         MemAccessFn mem);

    /** Advance one CPU cycle ending at tick @p now. */
    void tick(Cycle now);

    /**
     * Wake the load in ROB slot @p slot: its data arrived at
     * @p done_tick. @p slot is the index handed to the MemAccessFn
     * when the load dispatched; the slot is guaranteed still to hold
     * that load (in-order retirement cannot pass an incomplete load).
     */
    void completeLoad(unsigned slot, Cycle done_tick);

    /** Retired instruction count. */
    InstCount retired() const { return retired_.value(); }

    /** Elapsed CPU cycles. */
    std::uint64_t cycles() const { return cycles_.value(); }

    /** Retired / cycles. */
    double
    ipc() const
    {
        return cycles() ? static_cast<double>(retired()) /
                              static_cast<double>(cycles())
                        : 0.0;
    }

    /** True iff the trace ran out and the window drained. */
    bool finished() const { return traceDone_ && windowCount_ == 0; }

    int id() const { return id_; }

    /** Zero statistics (end of warm-up) without touching window state. */
    void resetStats();

    /**
     * Checkpoint the window, dispatch cursor and pending trace record
     * (stats ride the owner's StatGroup tree; the trace source is
     * serialised by its owner). Slot done-ness round-trips, so loads
     * still in flight at save time resume waiting after a load.
     */
    void serdeState(Archive &ar);

    StatGroup &stats() { return statGroup_; }

  private:
    struct Slot
    {
        bool isMem = false;
        bool isLoad = false;
        bool done = true;
        Cycle doneAtTick = 0;
    };

    /** Fetch the next trace record into pending state. */
    void refill();

    void dispatchOne(Cycle now);

    int id_;
    CoreConfig cfg_;
    TraceSource *trace_;
    MemAccessFn mem_;

    std::vector<Slot> window_;
    unsigned head_ = 0;
    unsigned tail_ = 0;
    unsigned windowCount_ = 0;

    /** Pending trace record being dispatched. */
    TraceEntry pending_{};
    std::uint32_t gapLeft_ = 0;
    bool havePending_ = false;
    bool traceDone_ = false;

    StatGroup statGroup_;
    Counter retired_, cycles_, loads_, stores_, robStallCycles_;
};

} // namespace dasdram

#endif // DASDRAM_CPU_CORE_HH
