/**
 * @file
 * The DAS-DRAM translation table: the authoritative logical→physical
 * row mapping, restricted to migration groups (Section 5.2).
 *
 * Each migration group of G rows holds a permutation of its G physical
 * slots; with G ≤ 256 an entry is one byte, which is what makes the
 * in-memory table and its caching affordable. This class is the
 * functional model; TranslationCache models lookup timing.
 *
 * An entry is stored as the XOR distance of the row from where the
 * identity mapping puts it: 0 means "not moved". G is a power of two
 * (it divides the power-of-two rows per bank) and groups are aligned,
 * so the distance stays below G and a lookup is one XOR. The entries
 * live in zero-paged arrays: a fresh or reset table allocates nothing,
 * and only the pages a swap writes exist.
 */

#ifndef DASDRAM_CORE_TRANSLATION_TABLE_HH
#define DASDRAM_CORE_TRANSLATION_TABLE_HH

#include <cstdint>

#include "common/serde.hh"
#include "common/zero_paged.hh"
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
    GlobalRowId
    physicalOf(GlobalRowId logical) const
    {
        return logical ^ perm_[logical];
    }

    /** Logical row currently stored in physical row @p physical. */
    GlobalRowId
    logicalOf(GlobalRowId physical) const
    {
        return physical ^ inverse_[physical];
    }

    /** True iff logical row @p logical currently lives in a fast slot. */
    bool
    isFast(GlobalRowId logical) const
    {
        return layout_->slotIsFast(
            static_cast<unsigned>(physicalOf(logical) & groupMask_));
    }

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

    /** Reset to the identity mapping, releasing every page. */
    void reset();

    /** Pages allocated for the mapping and its inverse. */
    std::size_t
    residentPages() const
    {
        return perm_.residentPages() + inverse_.residentPages();
    }

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
    /** Save or load group @p g as its G physical-slot bytes; the
     *  loader fatal()s unless they permute 0..G-1. */
    void serdeGroup(Archive &ar, std::uint64_t g);

    const AsymmetricLayout *layout_;
    unsigned groupSize_;
    GlobalRowId groupMask_; ///< G - 1
    /** perm_[logical] = logical ^ physical. */
    ZeroPagedArray<std::uint8_t> perm_;
    /** inverse_[physical] = physical ^ logical. */
    ZeroPagedArray<std::uint8_t> inverse_;
    std::uint64_t swaps_ = 0;
};

} // namespace dasdram

#endif // DASDRAM_CORE_TRANSLATION_TABLE_HH
