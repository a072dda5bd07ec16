/**
 * @file
 * A functional set-associative write-back cache with pluggable
 * replacement, used for L1/L2/LLC. Timing is handled by the owner;
 * this class models contents only.
 *
 * Host layout: 9.125 bytes a line, an 8-byte tag, a one-byte LRU rank
 * (common/lru_order.hh) and a dirty bit; the default 4 MiB LLC's
 * 65,536 lines take 584 KiB.
 */

#ifndef DASDRAM_CACHE_CACHE_HH
#define DASDRAM_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/lru_order.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dasdram
{

/** Replacement policy for Cache. */
enum class CacheRepl
{
    Lru,
    Random,
};

/** Geometry and policy of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 64 * KiB;
    unsigned assoc = 8;
    std::uint64_t lineBytes = 64;
    CacheRepl repl = CacheRepl::Lru;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (lineBytes * assoc);
    }
};

/**
 * Set-associative cache directory. Addresses passed in may be unaligned;
 * they are truncated to lines internally.
 */
class Cache
{
  public:
    /** Result of an insertion: the victim line, if one was evicted. */
    struct Eviction
    {
        bool valid = false;
        Addr line = kAddrInvalid;
        bool dirty = false;
    };

    Cache(const CacheConfig &cfg, std::string name,
          std::uint64_t seed = 1);

    /**
     * Look up @p addr; on hit update recency (and dirty when
     * @p is_write). Misses do NOT allocate — use insert() on fill.
     * @return true on hit.
     */
    bool access(Addr addr, bool is_write);

    /** Hit check without state update. */
    bool probe(Addr addr) const;

    /**
     * Allocate a line (e.g. on fill or writeback from an upper level).
     * If the line is already present it is refreshed (dirty OR-ed in)
     * and no eviction happens.
     */
    Eviction insert(Addr addr, bool dirty);

    /** Remove a line. @return true iff it was present and dirty. */
    bool invalidate(Addr addr);

    /** Line-align an address. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~(cfg_.lineBytes - 1);
    }

    const CacheConfig &config() const { return cfg_; }
    const std::string &name() const { return name_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_.value(); }

    /** Host bytes of the directory: 9.125 a line. */
    std::size_t
    hostBytes() const
    {
        return tags_.size() * sizeof(Addr) + order_.size() + dirty_.size();
    }

    /** Fraction of lines currently valid (for warm-up checks). */
    double occupancy() const;

    /** Checkpoint the replacement RNG and each set holding a valid
     *  line as its recency ranks, its dirty mask and the tags of its
     *  valid ways (stats ride the owner's StatGroup tree). An empty
     *  way holds kAddrInvalid, kLruEmpty and a clean bit, so empty
     *  sets are not saved. */
    void serdeState(Archive &ar);

    StatGroup &stats() { return statGroup_; }

  private:
    /** First directory slot of @p line's set. */
    std::size_t
    setBase(Addr line) const
    {
        return static_cast<std::size_t>((line >> lineShift_) & setMask_) *
               cfg_.assoc;
    }

    /** Way of the set at @p base holding @p line, or assoc. */
    unsigned
    findWay(std::size_t base, Addr line) const
    {
        const Addr *tags = &tags_[base];
        unsigned w = 0;
        while (w < cfg_.assoc && tags[w] != line)
            ++w;
        return w;
    }

    bool
    dirtyAt(std::size_t i) const
    {
        return (dirty_[i >> 3] >> (i & 7) & 1) != 0;
    }

    void
    setDirty(std::size_t i, bool dirty)
    {
        const auto bit = static_cast<std::uint8_t>(1u << (i & 7));
        if (dirty)
            dirty_[i >> 3] |= bit;
        else
            dirty_[i >> 3] &= static_cast<std::uint8_t>(~bit);
    }

    /** Loader: fatal() unless the restored set at @p base ranks its
     *  valid ways 0..k-1 once each (k > 0). */
    void checkRestoredOrder(std::size_t base) const;

    /** Loader: fatal() unless restored line @p i is a valid, unique
     *  member of its set. */
    void checkRestoredLine(std::size_t i) const;

    CacheConfig cfg_;
    std::string name_;
    unsigned lineShift_;    ///< log2(lineBytes)
    std::uint64_t setMask_; ///< numSets - 1
    /** The directory, one entry per [set * assoc + way] in each array.
     *  A tag of kAddrInvalid is an empty way, so an 8-way set's tags
     *  fill one 64-byte host line and a miss reads nothing else. */
    std::vector<Addr> tags_;
    /** Each set's LRU ranks, kLruEmpty for an empty way. */
    std::vector<std::uint8_t> order_;
    /** Dirty bit of line i at bit i % 8 of byte i / 8; an empty way's
     *  bit is clear. */
    std::vector<std::uint8_t> dirty_;
    Rng rng_;

    StatGroup statGroup_;
    Counter hits_, misses_, evictions_, dirtyEvictions_;
};

} // namespace dasdram

#endif // DASDRAM_CACHE_CACHE_HH
