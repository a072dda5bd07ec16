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
 *
 * Host layout: 5 bytes an entry (640 KiB for the default 128 KB), a
 * 4-byte row id and a one-byte LRU rank (common/lru_order.hh).
 */

#ifndef DASDRAM_CORE_TRANSLATION_CACHE_HH
#define DASDRAM_CORE_TRANSLATION_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/lru_order.hh"
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
    /** The row id of an empty entry. */
    static constexpr std::uint32_t kEmptyRow = ~std::uint32_t{0};

    /**
     * @param capacity_bytes total payload capacity (1 byte/entry).
     * @param assoc         associativity, at most kLruMaxAssoc.
     * @param total_rows    rows of the device; every row id passed in
     *                      is below it. fatal() above kEmptyRow, which
     *                      a 4-byte row id cannot hold.
     */
    TranslationCache(std::uint64_t capacity_bytes, unsigned assoc = 8,
                     std::uint64_t total_rows = kEmptyRow);

    /** Look up @p row, updating recency. @return true on hit. */
    bool lookup(GlobalRowId row);

    /** Insert (or refresh) an entry for @p row. */
    void insert(GlobalRowId row);

    /** Drop the entry for @p row if present (e.g. row left fast level). */
    void invalidate(GlobalRowId row);

    /** Hit check without recency update. */
    bool probe(GlobalRowId row) const;

    std::uint64_t capacityEntries() const { return capacity_; }

    /** Host bytes of the directory: 5 an entry. */
    std::size_t
    hostBytes() const
    {
        return rows_.size() * sizeof(rows_[0]) + order_.size();
    }
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

    /** Checkpoint each set holding a valid entry as its recency ranks
     *  and the rows of its valid ways (hit/miss counters ride the
     *  owner's StatGroup serdeTree pass). An empty entry holds
     *  kEmptyRow and kLruEmpty, so empty sets are not saved. */
    void serdeState(Archive &ar);

  private:
    /** First entry index of @p row's set. */
    std::size_t setBase(GlobalRowId row) const;

    /** Way of the set at @p base holding @p row, or assoc. */
    unsigned findWay(std::size_t base, GlobalRowId row) const;

    /** Loader: fatal() unless the restored set at @p base ranks its
     *  valid ways 0..k-1 once each (k > 0). */
    void checkRestoredOrder(std::size_t base) const;

    /** Loader: fatal() unless restored entry @p i holds a device row
     *  of its set that no earlier entry of the set holds. */
    void checkRestoredEntry(std::size_t i) const;

    std::uint64_t capacity_;
    unsigned assoc_;
    std::uint64_t numSets_;
    std::uint64_t totalRows_;
    /** The directory, one entry per [set * assoc + way] in each array.
     *  An empty entry's row is kEmptyRow, so a lookup compares rows
     *  only, and an 8-way set's rows are 32 bytes of one host line. */
    std::vector<std::uint32_t> rows_;
    /** Each set's LRU ranks, kLruEmpty for an empty entry. */
    std::vector<std::uint8_t> order_;

    StatGroup statGroup_;
    Counter hits_, misses_;
};

} // namespace dasdram

#endif // DASDRAM_CORE_TRANSLATION_CACHE_HH
