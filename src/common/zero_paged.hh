/**
 * @file
 * A fixed-length array of integers that are zero until written, with
 * memory allocated one page at a time on the first write into it.
 *
 * The DAS manager keeps several tables sized by the whole device (one
 * entry per row, per group or per fast slot), while a run writes only
 * the parts of them its promotions and accesses reach. Here such a
 * table costs a page-pointer vector at construction, a page for each
 * region something has written, and nothing to reset beyond dropping
 * the pages. A read of a page that was never written returns zero
 * without allocating.
 */

#ifndef DASDRAM_COMMON_ZERO_PAGED_HH
#define DASDRAM_COMMON_ZERO_PAGED_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitutil.hh"

namespace dasdram
{

template <typename T>
class ZeroPagedArray
{
  public:
    /** Bytes per page; a page holds kPageEntries entries. */
    static constexpr std::size_t kPageBytes = 4096;
    static_assert(isPowerOfTwo(sizeof(T)) && sizeof(T) <= kPageBytes);
    static constexpr unsigned kPageShift = log2Exact(kPageBytes / sizeof(T));
    static constexpr std::uint64_t kPageEntries = std::uint64_t{1}
                                                  << kPageShift;

    /** @p size entries, all zero, with no page allocated. */
    explicit ZeroPagedArray(std::uint64_t size)
        : size_(size), pages_(divCeil(size, kPageEntries))
    {
    }

    std::uint64_t size() const { return size_; }

    /** Entry @p i, zero if never written. @pre i < size(). */
    T
    operator[](std::uint64_t i) const
    {
        const T *page = pages_[i >> kPageShift].get();
        return page ? page[i & (kPageEntries - 1)] : T{};
    }

    /** Writable entry @p i; allocates its page, zeroed, on first use.
     *  A page holds entries [k * kPageEntries, (k + 1) * kPageEntries)
     *  contiguously, so the reference may be indexed within that
     *  range. @pre i < size(). */
    T &
    at(std::uint64_t i)
    {
        std::unique_ptr<T[]> &page = pages_[i >> kPageShift];
        if (!page) [[unlikely]]
            page = std::make_unique<T[]>(kPageEntries);
        return page[i & (kPageEntries - 1)];
    }

    /** Zero every entry by dropping every page. */
    void
    reset()
    {
        for (std::unique_ptr<T[]> &page : pages_)
            page.reset();
    }

    /** Pages allocated so far. */
    std::size_t
    residentPages() const
    {
        return static_cast<std::size_t>(
            std::count_if(pages_.begin(), pages_.end(),
                          [](const auto &page) { return page != nullptr; }));
    }

    /**
     * Call @p visit(first, entries, n) for each allocated page in
     * ascending order: @p first is the index of its first entry and
     * @p n its entry count, which stops at size(). Entries outside
     * every visited page are zero.
     */
    template <typename Visit>
    void
    forEachPage(Visit visit) const
    {
        for (std::size_t p = 0; p < pages_.size(); ++p) {
            if (!pages_[p])
                continue;
            const std::uint64_t first = std::uint64_t{p} << kPageShift;
            visit(first, static_cast<const T *>(pages_[p].get()),
                  std::min(kPageEntries, size_ - first));
        }
    }

  private:
    std::uint64_t size_;
    std::vector<std::unique_ptr<T[]>> pages_;
};

} // namespace dasdram

#endif // DASDRAM_COMMON_ZERO_PAGED_HH
