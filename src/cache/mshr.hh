/**
 * @file
 * Miss-status holding registers: coalesce outstanding misses to the
 * same cache line so one DRAM request serves all waiters.
 */

#ifndef DASDRAM_CACHE_MSHR_HH
#define DASDRAM_CACHE_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/continuation.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dasdram
{

/**
 * Tracks in-flight line fills. Capacity-limited; callers must check
 * full() before allocating and stall otherwise.
 *
 * The file is @c capacity fixed slots. A small open-addressed table
 * (linear probing, backward-shift deletion) maps an outstanding line
 * to its slot, and each slot's waiter vector keeps its capacity
 * across fills, so the per-miss path allocates nothing once warm.
 *
 * Waiters are serialisable Continuation tokens, not closures: the
 * owner installs one dispatcher that interprets every completed token,
 * so entries in flight at checkpoint time round-trip through a
 * snapshot and resume under the restored owner's dispatcher.
 */
class MshrFile
{
  public:
    /** Dispatcher: (waiter token, line address, completion tick). */
    using Dispatcher =
        std::function<void(const Continuation &, Addr, Cycle)>;

    explicit MshrFile(unsigned capacity, std::string name = "mshr");

    /** Install the waiter interpreter (required before complete()). */
    void setDispatcher(Dispatcher d) { dispatch_ = std::move(d); }

    /** True iff a miss to @p line is already outstanding. */
    bool outstanding(Addr line) const { return findSlot(line) != kNone; }

    /** True iff no new entry can be allocated. */
    bool full() const { return used_ >= capacity_; }

    /**
     * Allocate an entry for @p line. @pre !outstanding(line) && !full().
     */
    void allocate(Addr line);

    /** Add a waiter to an outstanding entry. @pre outstanding(line). */
    void addWaiter(Addr line, Continuation w);

    /**
     * Complete the fill for @p line at @p tick: runs and removes all
     * waiters. @pre outstanding(line).
     */
    void complete(Addr line, Cycle tick);

    std::size_t size() const { return used_; }

    /** Waiters registered on all outstanding entries. */
    std::size_t waiterCount() const;
    std::uint64_t coalesced() const { return coalesced_.value(); }

    /** Unique line fills started (the paper-style miss count). */
    std::uint64_t allocations() const { return allocations_.value(); }

    StatGroup &stats() { return statGroup_; }

    /**
     * Checkpoint outstanding entries and their waiter tokens. Entries
     * are written sorted by line address, so the bytes do not depend
     * on which slot holds which line (complete() is per-line). Loading
     * more entries than the capacity, or one line twice, is fatal.
     */
    void serdeState(Archive &ar);

  private:
    /** No slot / an empty index bucket. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** Home bucket of @p line in index_. */
    std::size_t
    bucketOf(Addr line) const
    {
        return static_cast<std::size_t>(
            (line * 0x9e3779b97f4a7c15ULL) >> indexShift_);
    }

    /** Slot holding @p line, or kNone. */
    std::uint32_t
    findSlot(Addr line) const
    {
        for (std::size_t b = bucketOf(line);; b = (b + 1) & indexMask_) {
            const std::uint32_t s = index_[b];
            if (s == kNone || lines_[s] == line)
                return s;
        }
    }

    /** Take a free slot for @p line and index it. @pre !full(). */
    std::uint32_t claimSlot(Addr line);

    /** Unindex and free slot @p s (its waiters are left in place). */
    void releaseSlot(std::uint32_t s);

    /** Free every slot and empty the index. */
    void clear();

    unsigned capacity_;
    std::vector<Addr> lines_; ///< per slot; kAddrInvalid = free
    std::vector<std::vector<Continuation>> waiters_; ///< per slot
    std::vector<std::uint32_t> freeSlots_; ///< stack, top = back
    std::size_t used_ = 0;
    /** line -> slot, power-of-two size >= 2 * capacity; kNone = empty. */
    std::vector<std::uint32_t> index_;
    std::size_t indexMask_ = 0;
    unsigned indexShift_ = 0;
    Dispatcher dispatch_;

    StatGroup statGroup_;
    Counter allocations_, coalesced_;
    Histogram occupancy_; ///< sampled after each allocation
};

} // namespace dasdram

#endif // DASDRAM_CACHE_MSHR_HH
