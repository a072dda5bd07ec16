/**
 * @file
 * One set's LRU recency order, one byte per way, shared by the cache
 * directories and the translation cache.
 *
 * The k valid ways of a set hold the ranks 0..k-1 once each: 0 is the
 * most recently used way and k-1 the least. An empty way holds
 * kLruEmpty. A touch moves a way to rank 0 and ages the ways that were
 * younger by one, so the ranks of the valid ways always order them by
 * their last touch: the oldest way of a full set is the one whose
 * per-way 64-bit stamp would be the smallest. Ranks never count up
 * past the associativity, so nothing can wrap; a set holds at most
 * kLruMaxAssoc ways.
 */

#ifndef DASDRAM_COMMON_LRU_ORDER_HH
#define DASDRAM_COMMON_LRU_ORDER_HH

#include <bitset>
#include <cstdint>

namespace dasdram
{

/** The rank of an empty way. */
inline constexpr std::uint8_t kLruEmpty = 0xFF;

/** The most ways a one-byte order can rank beside kLruEmpty. */
inline constexpr unsigned kLruMaxAssoc = kLruEmpty;

/** Make @p way of the set @p order the most recently used. An empty
 *  way becomes valid and every valid way ages by one. */
inline void
lruTouch(std::uint8_t *order, unsigned assoc, unsigned way)
{
    const std::uint8_t rank = order[way];
    if (rank == 0)
        return;
    for (unsigned w = 0; w < assoc; ++w)
        order[w] += order[w] < rank ? 1 : 0;
    order[way] = 0;
}

/** Empty @p way: the valid ways it was younger than move up a rank. */
inline void
lruRemove(std::uint8_t *order, unsigned assoc, unsigned way)
{
    const std::uint8_t rank = order[way];
    order[way] = kLruEmpty;
    for (unsigned w = 0; w < assoc; ++w)
        order[w] -= order[w] > rank && order[w] != kLruEmpty ? 1 : 0;
}

/** The first empty way of the set, or @p assoc if it is full. */
inline unsigned
lruFirstEmpty(const std::uint8_t *order, unsigned assoc)
{
    unsigned w = 0;
    while (w < assoc && order[w] != kLruEmpty)
        ++w;
    return w;
}

/** The least recently used way of a full set. */
inline unsigned
lruOldest(const std::uint8_t *order, unsigned assoc)
{
    unsigned w = 0;
    while (order[w] != assoc - 1)
        ++w;
    return w;
}

/** The number of valid ways of the set. */
inline unsigned
lruValidWays(const std::uint8_t *order, unsigned assoc)
{
    unsigned k = 0;
    for (unsigned w = 0; w < assoc; ++w)
        k += order[w] != kLruEmpty ? 1 : 0;
    return k;
}

/** Loader check: the first valid way whose rank is not below the
 *  set's valid-way count or repeats an earlier way's rank, or
 *  @p assoc when the valid ways hold 0..k-1 once each. */
inline unsigned
lruBadWay(const std::uint8_t *order, unsigned assoc)
{
    const unsigned k = lruValidWays(order, assoc);
    std::bitset<kLruMaxAssoc> seen;
    for (unsigned w = 0; w < assoc; ++w) {
        if (order[w] == kLruEmpty)
            continue;
        if (order[w] >= k || seen[order[w]])
            return w;
        seen[order[w]] = true;
    }
    return assoc;
}

} // namespace dasdram

#endif // DASDRAM_COMMON_LRU_ORDER_HH
