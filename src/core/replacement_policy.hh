/**
 * @file
 * Fast-slot (victim) replacement policies for row promotion
 * (Section 5.3 / Section 7.6): LRU, random, sequential (per-group
 * round-robin) and pseudo-random via a global increasing counter.
 */

#ifndef DASDRAM_CORE_REPLACEMENT_POLICY_HH
#define DASDRAM_CORE_REPLACEMENT_POLICY_HH

#include <cstdint>
#include <string>

#include "common/random.hh"
#include "common/zero_paged.hh"

namespace dasdram
{

/** Which victim-selection policy to use. */
enum class FastReplPolicy
{
    Lru,
    Random,
    Sequential,
    PseudoRandom, ///< global increasing counter mod slots
};

/** Parse "lru"/"random"/"sequential"/"pseudorandom". Fatal otherwise. */
FastReplPolicy parseFastReplPolicy(const std::string &name);

/** Display name of a policy. */
const char *toString(FastReplPolicy p);

/**
 * Chooses which fast slot of a migration group to evict on promotion.
 * Per-group state is zero-paged: a group that was never touched holds
 * no memory and reads as all zero.
 */
class FastSlotReplacement
{
  public:
    FastSlotReplacement(FastReplPolicy policy, unsigned slots_per_group,
                        std::uint64_t total_groups,
                        std::uint64_t seed = 11);

    /** Record an access to fast slot @p slot of @p group (LRU info). */
    void onFastAccess(std::uint64_t group, unsigned slot);

    /** Pick the victim fast slot in @p group. */
    unsigned chooseVictim(std::uint64_t group);

    FastReplPolicy policy() const { return policy_; }
    unsigned slotsPerGroup() const { return slots_; }

    /**
     * Checkpoint the counters, the RNG and the touched entries of the
     * per-group recency stamps and cursors. Untouched entries are 0
     * and are folded into zero runs (see replacement_policy.cc), so
     * the saved form is never longer than the dense tables; only
     * allocated pages are walked.
     */
    void serdeState(Archive &ar);

  private:
    FastReplPolicy policy_;
    unsigned slots_;
    ZeroPagedArray<std::uint64_t> lastUse_; ///< LRU stamps (Lru only)
    ZeroPagedArray<std::uint8_t> seqPtr_; ///< per-group cursor (Sequential)
    std::uint64_t stampCounter_ = 0;
    std::uint64_t globalCounter_ = 0;
    Rng rng_;
};

} // namespace dasdram

#endif // DASDRAM_CORE_REPLACEMENT_POLICY_HH
