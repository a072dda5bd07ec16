/**
 * @file
 * The memory-controller translation cache ("tag cache", Section 5.2):
 * a small set-associative cache over per-row translation entries.
 *
 * Per the paper, only entries for rows currently in the fast level are
 * cached, which maximises hit ratio because fast-level accesses
 * dominate; its lookup overlaps the LLC access, so hits add no
 * latency. Each entry is one byte of payload; capacity is therefore
 * counted in entries == bytes.
 */

#ifndef DASDRAM_CORE_TRANSLATION_CACHE_HH
#define DASDRAM_CORE_TRANSLATION_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/geometry.hh"

namespace dasdram
{

/**
 * Set-associative cache keyed by logical GlobalRowId. Contents are
 * presence-only: the authoritative mapping lives in TranslationTable;
 * this models which lookups are free vs. must walk the LLC/memory.
 */
class TranslationCache
{
  public:
    /**
     * @param capacity_bytes total payload capacity (1 byte/entry).
     * @param assoc         associativity.
     */
    TranslationCache(std::uint64_t capacity_bytes, unsigned assoc = 8);

    /** Look up @p row, updating recency. @return true on hit. */
    bool lookup(GlobalRowId row);

    /** Insert (or refresh) an entry for @p row. */
    void insert(GlobalRowId row);

    /** Drop the entry for @p row if present (e.g. row left fast level). */
    void invalidate(GlobalRowId row);

    /** Hit check without recency update. */
    bool probe(GlobalRowId row) const;

    std::uint64_t capacityEntries() const { return capacity_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    double
    hitRatio() const
    {
        std::uint64_t total = hits() + misses();
        return total ? static_cast<double>(hits()) /
                           static_cast<double>(total)
                     : 0.0;
    }

    StatGroup &stats() { return statGroup_; }

    /** Checkpoint the valid entries as (index, row, stamp) and the
     *  stamp counter (hit/miss counters ride the owner's StatGroup
     *  serdeTree pass). An invalid entry's stale row and stamp are
     *  never read, so they are not saved. */
    void serdeState(Archive &ar);

  private:
    /** Entry index of a miss. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** First entry index of @p row's set. */
    std::size_t setBase(GlobalRowId row) const;

    /** Valid entry holding @p row, or kNoWay. */
    std::size_t find(GlobalRowId row) const;

    /** Loader: fatal() unless restored entry @p i belongs to its set,
     *  holds a row no other entry of the set holds, and is stamped no
     *  later than the counter. */
    void checkRestoredEntry(std::size_t i) const;

    std::uint64_t capacity_;
    unsigned assoc_;
    std::uint64_t numSets_;
    /** The directory, one entry per [set * assoc + way] in each array.
     *  An 8-way set's rows fill one 64-byte host line; validity is
     *  read only on a row match. */
    std::vector<GlobalRowId> rows_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> stamps_; ///< LRU recency
    std::uint64_t stampCounter_ = 0;

    StatGroup statGroup_;
    Counter hits_, misses_;
};

} // namespace dasdram

#endif // DASDRAM_CORE_TRANSLATION_CACHE_HH
