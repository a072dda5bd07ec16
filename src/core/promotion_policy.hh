/**
 * @file
 * Row-promotion filtering policies (Section 5.3 / Section 7.3).
 *
 * Policy 1 promotes on every slow-level hit (threshold 1). Policy 2
 * counts accesses per recently-used row in a fixed pool of hardware
 * counters (the paper uses 1024) and promotes only when a row has been
 * hit @c threshold times.
 */

#ifndef DASDRAM_CORE_PROMOTION_POLICY_HH
#define DASDRAM_CORE_PROMOTION_POLICY_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "dram/geometry.hh"

namespace dasdram
{

/** Configuration for the promotion filter. */
struct PromotionConfig
{
    /** Hits in the slow level required before promotion. 1 = always. */
    unsigned threshold = 1;
    /** Hardware counters tracking recently used rows; allocated only
     *  when threshold > 1. Must be at least 1. */
    unsigned counters = 1024;
};

/** Fatal unless @p cfg has a threshold and a counter pool of at least
 *  one. Every design checks it, whether or not it promotes. */
void checkPromotionConfig(const PromotionConfig &cfg);

/**
 * The promotion filter. Direct-mapped counter table over logical rows:
 * a row evicting another's counter restarts from one, approximating the
 * paper's recently-used-rows counter pool.
 */
class PromotionFilter
{
  public:
    explicit PromotionFilter(const PromotionConfig &cfg);

    /**
     * Record a slow-level access to @p row.
     * @return true when the row should be promoted now (the counter is
     * then released).
     */
    bool onSlowAccess(GlobalRowId row);

    /** Forget state for @p row (e.g. after its promotion). */
    void clear(GlobalRowId row);

    unsigned threshold() const { return cfg_.threshold; }

    std::uint64_t filtered() const { return filtered_.value(); }
    std::uint64_t promotionsAllowed() const { return allowed_.value(); }

    StatGroup &stats() { return statGroup_; }

    /** Checkpoint the counter pool (empty at threshold 1). */
    void
    serdeState(Archive &ar)
    {
        ar.section("promoFilter");
        ar.expectCount(slots_.size(), "promotion counters");
        for (Slot &s : slots_) {
            ar.io(s.row);
            ar.io(s.count);
            ar.io(s.valid);
        }
        ar.end();
    }

  private:
    struct Slot
    {
        GlobalRowId row = ~0ULL;
        unsigned count = 0;
        bool valid = false;
    };

    PromotionConfig cfg_;
    std::vector<Slot> slots_;

    StatGroup statGroup_;
    Counter filtered_, allowed_;
};

} // namespace dasdram

#endif // DASDRAM_CORE_PROMOTION_POLICY_HH
