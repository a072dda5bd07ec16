/**
 * @file
 * EpochSeries: periodic snapshots of a StatGroup tree as a time series.
 *
 * Every `epochLength` cycles the series records the *delta* of each
 * counter (and the count/sum of each distribution and histogram) since
 * the previous epoch boundary, giving a per-epoch rate view of any
 * stat tree without touching the components that own the stats.
 *
 * Epoch boundaries are derived from a base cycle so the series can be
 * restarted after the warm-up reset: `restart(now)` discards history
 * and realigns epoch 0 to `now`, matching `StatGroup::resetAll`.
 */

#ifndef DASDRAM_COMMON_EPOCH_SERIES_HH
#define DASDRAM_COMMON_EPOCH_SERIES_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace dasdram
{

class EpochSeries
{
  public:
    /** One completed epoch: [start, end) with per-stat deltas. */
    struct Epoch
    {
        std::uint64_t index; ///< 0-based since the last (re)start
        Cycle start;
        Cycle end;
        /** Parallel to names(); delta of each tracked value. */
        std::vector<double> deltas;
    };

    /**
     * Track @p group, one epoch every @p epoch_length cycles (must be
     * > 0). The set of tracked stats is fixed at construction:
     * every counter ("name"), plus "name.count"/"name.sum" for each
     * distribution and histogram. Formulas are excluded — they are
     * ratios of other stats, not accumulators, so per-epoch deltas of
     * them are meaningless; recompute them from the deltas instead.
     */
    EpochSeries(const StatGroup &group, Cycle epoch_length);

    /**
     * Emit every epoch whose end is <= @p now. Cheap no-op between
     * boundaries; call from the simulation loop. When several
     * boundaries elapse in one call (idle fast-forward), the first
     * elapsed epoch receives the whole delta and the rest are zero —
     * a cycle-skipping caller that wants exact per-epoch attribution
     * must instead stop at every nextBoundaryCycle() whose span saw
     * stat changes and sample there.
     */
    void maybeSample(Cycle now);

    /**
     * Cycle at which the current epoch ends — the next boundary a
     * cycle-skipping caller must not jump over without sampling.
     * Tracks restart(): a warm-up reset landing mid-epoch realigns
     * the grid, and the boundary reported here moves with it.
     */
    Cycle
    nextBoundaryCycle() const
    {
        return base_ + (nextIndex_ + 1) * epochLength_;
    }

    /**
     * Drop history and realign epoch 0 to start at @p now, re-reading
     * current stat values as the new baseline. Call right after the
     * owner's warm-up `resetAll()`.
     */
    void restart(Cycle now);

    /**
     * Close the trailing partial epoch at @p now. Any complete epochs
     * still pending (a caller that fast-forwarded past boundaries
     * without sampling) are emitted first, so the series always ends
     * with at most one partial epoch. A partial epoch is only emitted
     * if time advanced past the last boundary.
     */
    void flush(Cycle now);

    Cycle epochLength() const { return epochLength_; }
    /** Fully qualified names of the tracked values. */
    const std::vector<std::string> &names() const { return names_; }
    const std::vector<Epoch> &epochs() const { return epochs_; }

    /**
     * Checkpoint the grid alignment, the per-stat baseline at the last
     * boundary and the completed-epoch history, so a restored run's
     * flushed series matches the straight run exactly — including a
     * checkpoint taken mid-epoch. The tracked-name set is derived from
     * the stat tree; a shape mismatch is fatal.
     */
    void serdeState(Archive &ar);

  private:
    /** Read the current value of every tracked stat into @p out. */
    void collect(std::vector<double> &out) const;

    const StatGroup *group_;
    Cycle epochLength_;
    Cycle base_ = 0;          ///< cycle where epoch 0 starts
    std::uint64_t nextIndex_ = 0;
    std::vector<std::string> names_;
    std::vector<double> prev_;    ///< values at the last boundary
    std::vector<double> scratch_; ///< reused buffer for collect()
    std::vector<Epoch> epochs_;
};

} // namespace dasdram

#endif // DASDRAM_COMMON_EPOCH_SERIES_HH
