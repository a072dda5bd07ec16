/**
 * @file
 * The DAS-DRAM translation table: the authoritative logical→physical
 * row mapping, restricted to migration groups (Section 5.2).
 *
 * Each migration group of G rows holds a permutation of its G physical
 * slots; with G ≤ 256 an entry is one byte, which is what makes the
 * in-memory table and its caching affordable. This class is the
 * functional model; TranslationCache models lookup timing.
 */

#ifndef DASDRAM_CORE_TRANSLATION_TABLE_HH
#define DASDRAM_CORE_TRANSLATION_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/serde.hh"
#include "core/subarray_layout.hh"
#include "dram/geometry.hh"

namespace dasdram
{

/**
 * Logical→physical slot permutations for every migration group in the
 * system, plus the inverse mapping needed for victim identification.
 */
class TranslationTable
{
  public:
    explicit TranslationTable(const AsymmetricLayout &layout);

    /** Physical row currently holding logical row @p logical. */
    GlobalRowId physicalOf(GlobalRowId logical) const;

    /** Logical row currently stored in physical row @p physical. */
    GlobalRowId logicalOf(GlobalRowId physical) const;

    /** True iff logical row @p logical currently lives in a fast slot. */
    bool isFast(GlobalRowId logical) const;

    /**
     * Swap the physical locations of two logical rows. They must
     * belong to the same migration group.
     */
    void swap(GlobalRowId logical_a, GlobalRowId logical_b);

    /**
     * Logical row occupying fast slot @p fast_slot
     * (0 ≤ fast_slot < fastSlotsPerGroup) of @p group.
     */
    GlobalRowId logicalInFastSlot(std::uint64_t group,
                                  unsigned fast_slot) const;

    /** Number of swaps performed so far. */
    std::uint64_t swapCount() const { return swaps_; }

    /** Reset to the identity mapping. */
    void reset();

    /**
     * Byte address of the table entry for @p logical in the reserved
     * table region starting at @p table_base (1 byte per row). Used by
     * the timing model to charge LLC/DRAM accesses for table walks.
     */
    static Addr
    entryAddr(Addr table_base, GlobalRowId logical)
    {
        return table_base + logical;
    }

    const AsymmetricLayout &layout() const { return *layout_; }

    /**
     * Checkpoint the groups that differ from the identity as (group,
     * G permutation bytes), and the swap counter. A group only leaves
     * the identity when a promotion swaps within it, so most are
     * never saved; the inverse permutations are rebuilt on load.
     */
    void serdeState(Archive &ar);

  private:
    std::uint64_t groupIndex(GlobalRowId row) const;

    /** Loader: rebuild group @p g's inverse from its restored
     *  permutation, fatal() unless it permutes 0..G-1. */
    void restoreInverse(std::uint64_t g);

    const AsymmetricLayout *layout_;
    unsigned groupSize_;
    /** perm_[group * G + logicalSlot] = physicalSlot. */
    std::vector<std::uint8_t> perm_;
    /** inverse_[group * G + physicalSlot] = logicalSlot. */
    std::vector<std::uint8_t> inverse_;
    std::uint64_t swaps_ = 0;
};

} // namespace dasdram

#endif // DASDRAM_CORE_TRANSLATION_TABLE_HH
