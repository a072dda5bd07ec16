/**
 * @file
 * Unit and property tests for the set-associative cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "common/random.hh"

using namespace dasdram;

TEST(Cache, MissThenInsertThenHit)
{
    Cache c({1024, 2, 64}, "c");
    EXPECT_FALSE(c.access(0x100, false));
    c.insert(0x100, false);
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LineGranularity)
{
    Cache c({1024, 2, 64}, "c");
    c.insert(0x100, false);
    EXPECT_TRUE(c.access(0x100 + 63, false)); // same line
    EXPECT_FALSE(c.access(0x100 + 64, false)); // next line
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 1 set: 128 B cache with 64 B lines.
    Cache c({128, 2, 64}, "c");
    c.insert(0 * 64, false);
    c.insert(1 * 64, false);
    c.access(0 * 64, false); // touch line 0 → line 1 is LRU
    Cache::Eviction ev = c.insert(2 * 64, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 1u * 64);
    EXPECT_TRUE(c.probe(0 * 64));
    EXPECT_FALSE(c.probe(1 * 64));
}

TEST(Cache, DirtyTrackingThroughWriteAccess)
{
    Cache c({128, 2, 64}, "c");
    c.insert(0, false);
    c.insert(64, false);
    c.access(0, true); // dirties and refreshes line 0 → 64 is LRU
    Cache::Eviction ev = c.insert(128, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 64u);
    EXPECT_FALSE(ev.dirty);
    // Now {0 (dirty, older), 128}: next insert evicts the dirty line.
    ev = c.insert(192, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 0u);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, InsertExistingRefreshesWithoutEviction)
{
    Cache c({128, 2, 64}, "c");
    c.insert(0, false);
    c.insert(64, false);
    Cache::Eviction ev = c.insert(0, true); // refresh + dirty
    EXPECT_FALSE(ev.valid);
    ev = c.insert(128, false); // evicts 64, not 0
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 64u);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c({1024, 2, 64}, "c");
    c.insert(0x40, true);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.invalidate(0x40)); // already gone
}

TEST(Cache, OccupancyGrowsToFull)
{
    Cache c({1024, 4, 64}, "c"); // 16 lines
    EXPECT_DOUBLE_EQ(c.occupancy(), 0.0);
    for (Addr a = 0; a < 1024; a += 64)
        c.insert(a, false);
    EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
}

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(CacheGeometrySweep, WorkingSetSmallerThanCacheAlwaysHitsAfterWarm)
{
    auto [size, assoc] = GetParam();
    Cache c({size, assoc, 64}, "c");
    std::uint64_t lines = size / 64;
    // Warm exactly the cache capacity with a stride-1 set.
    for (std::uint64_t i = 0; i < lines; ++i)
        c.insert(i * 64, false);
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(i * 64, false)) << "line " << i;
}

TEST_P(CacheGeometrySweep, CapacityNeverExceeded)
{
    auto [size, assoc] = GetParam();
    Cache c({size, assoc, 64}, "c");
    for (std::uint64_t i = 0; i < 4 * size / 64; ++i)
        c.insert(i * 64, false);
    EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
    // Evictions = inserts - capacity.
    EXPECT_EQ(c.evictions(), 4 * size / 64 - size / 64);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(std::make_tuple(4 * KiB, 1u),
                      std::make_tuple(4 * KiB, 4u),
                      std::make_tuple(64 * KiB, 8u),
                      std::make_tuple(256 * KiB, 16u)));

TEST(Cache, RandomReplacementStillBoundsCapacity)
{
    Cache c({4 * KiB, 4, 64, CacheRepl::Random}, "c");
    for (std::uint64_t i = 0; i < 500; ++i)
        c.insert(i * 64, false);
    EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
}

TEST(Cache, MatchesReferenceLruModel)
{
    // Property: under random traffic, Cache agrees exactly with a
    // straightforward list-based LRU reference model.
    const std::uint64_t size = 2 * KiB, assoc = 4, line = 64;
    const std::uint64_t sets = size / (line * assoc);
    Cache c({size, static_cast<unsigned>(assoc), line}, "dut");
    // reference[set] = lines most-recent-first
    std::vector<std::vector<Addr>> ref(sets);
    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.nextBelow(4 * size / line) * line;
        std::uint64_t set = (a / line) % sets;
        auto &v = ref[set];
        auto it = std::find(v.begin(), v.end(), a);
        bool ref_hit = it != v.end();
        bool dut_hit = c.access(a, false);
        ASSERT_EQ(dut_hit, ref_hit) << "access " << i;
        if (ref_hit) {
            v.erase(it);
            v.insert(v.begin(), a);
        } else {
            // Fill like the hierarchy would.
            c.insert(a, false);
            v.insert(v.begin(), a);
            if (v.size() > assoc)
                v.pop_back();
        }
    }
}

namespace
{

/**
 * The directory as an array of {tag, valid, dirty, stamp} structs
 * with a division-based set index: the layout Cache had before its
 * split-tag arrays, kept here as the reference model. Its snapshot
 * writes the stamp counter, the RNG and then each valid line as
 * (index, tag, dirty, stamp), so the two payloads must match byte
 * for byte.
 */
class RefCache
{
  public:
    struct Eviction
    {
        bool valid = false;
        Addr line = kAddrInvalid;
        bool dirty = false;
    };

    RefCache(const CacheConfig &cfg, std::uint64_t seed)
        : cfg_(cfg), lines_(cfg.numSets() * cfg.assoc), rng_(seed)
    {
    }

    bool
    access(Addr addr, bool is_write)
    {
        Line *l = find(lineAddr(addr));
        if (!l)
            return false;
        l->stamp = ++stampCounter_;
        if (is_write)
            l->dirty = true;
        return true;
    }

    bool probe(Addr addr) { return find(lineAddr(addr)) != nullptr; }

    Eviction
    insert(Addr addr, bool dirty)
    {
        Addr line = lineAddr(addr);
        Eviction ev;
        if (Line *existing = find(line)) {
            existing->stamp = ++stampCounter_;
            existing->dirty = existing->dirty || dirty;
            return ev;
        }
        Line *base = &lines_[setIndex(line) * cfg_.assoc];
        Line *victim = nullptr;
        for (unsigned w = 0; w < cfg_.assoc && !victim; ++w) {
            if (!base[w].valid)
                victim = &base[w];
        }
        if (!victim) {
            if (cfg_.repl == CacheRepl::Random) {
                victim = &base[rng_.nextBelow(cfg_.assoc)];
            } else {
                victim = base;
                for (unsigned w = 1; w < cfg_.assoc; ++w) {
                    if (base[w].stamp < victim->stamp)
                        victim = &base[w];
                }
            }
            ev.valid = true;
            ev.line = victim->tag;
            ev.dirty = victim->dirty;
        }
        *victim = Line{line, true, dirty, ++stampCounter_};
        return ev;
    }

    bool
    invalidate(Addr addr)
    {
        Line *l = find(lineAddr(addr));
        if (!l)
            return false;
        bool was_dirty = l->dirty;
        l->tag = kAddrInvalid; // the stamp stays behind
        l->valid = false;
        l->dirty = false;
        return was_dirty;
    }

    double
    occupancy() const
    {
        double valid = 0;
        for (const Line &l : lines_)
            valid += l.valid ? 1 : 0;
        return valid / static_cast<double>(lines_.size());
    }

    void
    serdeState(Archive &ar)
    {
        ar.section("cache");
        ar.io(stampCounter_);
        rng_.serdeState(ar);
        std::uint64_t live = 0;
        for (const Line &l : lines_)
            live += l.valid ? 1 : 0;
        ar.io(live);
        for (std::uint64_t i = 0; i < lines_.size(); ++i) {
            Line &l = lines_[i];
            if (!l.valid)
                continue;
            ar.io(i);
            ar.io(l.tag);
            ar.io(l.dirty);
            ar.io(l.stamp);
        }
        ar.end();
    }

  private:
    struct Line
    {
        Addr tag = kAddrInvalid;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0;
    };

    Addr lineAddr(Addr a) const { return a & ~(cfg_.lineBytes - 1); }

    std::uint64_t
    setIndex(Addr line) const
    {
        return (line / cfg_.lineBytes) % cfg_.numSets();
    }

    Line *
    find(Addr line)
    {
        Line *base = &lines_[setIndex(line) * cfg_.assoc];
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            if (base[w].valid && base[w].tag == line)
                return &base[w];
        }
        return nullptr;
    }

    CacheConfig cfg_;
    std::vector<Line> lines_;
    std::uint64_t stampCounter_ = 0;
    Rng rng_;
};

std::vector<unsigned char>
savedBytes(Cache &c)
{
    Archive ar;
    c.serdeState(ar);
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

std::vector<unsigned char>
savedBytes(RefCache &c)
{
    Archive ar;
    c.serdeState(ar);
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

class CacheReferenceModel
    : public ::testing::TestWithParam<std::tuple<unsigned, CacheRepl>>
{
};

} // namespace

TEST_P(CacheReferenceModel, SeededOpsMatchStepByStep)
{
    auto [assoc, repl] = GetParam();
    const CacheConfig cfg{4 * KiB, assoc, 64, repl};
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Cache dut(cfg, "dut", seed);
        RefCache ref(cfg, seed);
        Rng ops(seed * 7919);
        // Four times the capacity in distinct lines, unaligned
        // addresses included, so sets fill, evict and refill.
        const std::uint64_t span = 4 * cfg.sizeBytes;
        for (int i = 0; i < 30000; ++i) {
            Addr a = ops.nextBelow(span);
            bool flag = ops.chance(0.3);
            switch (ops.nextBelow(4)) {
              case 0:
                ASSERT_EQ(dut.access(a, flag), ref.access(a, flag))
                    << "access " << i;
                break;
              case 1: {
                Cache::Eviction d = dut.insert(a, flag);
                RefCache::Eviction r = ref.insert(a, flag);
                ASSERT_EQ(d.valid, r.valid) << "insert " << i;
                ASSERT_EQ(d.line, r.line) << "insert " << i;
                ASSERT_EQ(d.dirty, r.dirty) << "insert " << i;
                break;
              }
              case 2:
                ASSERT_EQ(dut.invalidate(a), ref.invalidate(a))
                    << "invalidate " << i;
                break;
              default:
                ASSERT_EQ(dut.probe(a), ref.probe(a)) << "probe " << i;
                break;
            }
            if (i % 1000 == 0) {
                ASSERT_EQ(dut.occupancy(), ref.occupancy()) << i;
            }
        }
        EXPECT_EQ(dut.occupancy(), ref.occupancy());
        // Same records, same stamp counter, same RNG position.
        EXPECT_EQ(savedBytes(dut), savedBytes(ref)) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReferenceModel,
    ::testing::Values(std::make_tuple(1u, CacheRepl::Lru),
                      std::make_tuple(4u, CacheRepl::Lru),
                      std::make_tuple(8u, CacheRepl::Lru),
                      std::make_tuple(4u, CacheRepl::Random),
                      std::make_tuple(8u, CacheRepl::Random)));

TEST(Cache, SaveLoadSaveRoundTripsBytes)
{
    const CacheConfig cfg{2 * KiB, 4, 64, CacheRepl::Random};
    Cache a(cfg, "c", 5);
    Rng ops(11);
    for (int i = 0; i < 2000; ++i) {
        Addr line = ops.nextBelow(128) * 64;
        if (ops.chance(0.2))
            a.invalidate(line);
        else
            a.insert(line, ops.chance(0.5));
    }
    std::vector<unsigned char> first = savedBytes(a);
    Cache b(cfg, "c", 99);
    Archive in(first);
    b.serdeState(in);
    in.finish();
    EXPECT_EQ(savedBytes(b), first);
    // Restored recency and RNG: the next victims agree.
    for (int i = 0; i < 200; ++i) {
        Addr line = (1000 + ops.nextBelow(512)) * 64;
        Cache::Eviction ea = a.insert(line, false);
        Cache::Eviction eb = b.insert(line, false);
        ASSERT_EQ(ea.line, eb.line);
        ASSERT_EQ(ea.dirty, eb.dirty);
    }
}

namespace
{

/** One saved line of a crafted "cache" section. */
struct CraftedLine
{
    std::uint64_t index;
    Addr tag;
    std::uint64_t stamp = 1;
};

/** A "cache" section holding @p lines, stamp counter @p counter. */
std::vector<unsigned char>
craftedCache(const std::vector<CraftedLine> &lines,
             std::uint64_t counter = 10)
{
    Archive ar;
    ar.section("cache");
    ar.io(counter);
    Rng(1).serdeState(ar);
    std::uint64_t n = lines.size();
    ar.io(n);
    for (CraftedLine l : lines) {
        bool dirty = false;
        ar.io(l.index);
        ar.io(l.tag);
        ar.io(dirty);
        ar.io(l.stamp);
    }
    ar.end();
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

/** Load @p bytes into a fresh 2-set, 2-way cache named "victim". */
void
restoreCache(const std::vector<unsigned char> &bytes)
{
    Cache c({256, 2, 64}, "victim");
    Archive in(bytes);
    c.serdeState(in);
    in.finish();
}

} // namespace

TEST(CacheDeathTest, SavedValidDisagreeingWithTagIsFatal)
{
    // A live line whose tag is the empty-way marker.
    restoreCache(craftedCache({{0, 0}, {1, 128}})); // well formed
    EXPECT_DEATH(restoreCache(craftedCache({{0, 0}, {1, kAddrInvalid}})),
                 "cache 'victim' line 1: saved as live with the empty-way "
                 "tag");
}

TEST(CacheDeathTest, LiveLineIndexOutOfRangeOrOrderIsFatal)
{
    EXPECT_DEATH(restoreCache(craftedCache({{4, 0}})),
                 "cache 'victim' line 4 is outside the table's 4 entries");
    EXPECT_DEATH(restoreCache(craftedCache({{1, 128}, {0, 0}})),
                 "cache 'victim' line 0 does not follow cache 'victim' "
                 "line 1");
    EXPECT_DEATH(restoreCache(craftedCache({{1, 128}, {1, 384}})),
                 "cache 'victim' line 1 does not follow cache 'victim' "
                 "line 1");
}

TEST(CacheDeathTest, TagOutsideItsSetIsFatal)
{
    // Line 64 maps to set 1, not set 0; 0x41 is not line-aligned.
    EXPECT_DEATH(restoreCache(craftedCache({{0, 64}})),
                 "cache 'victim' line 0: tag 40 does not belong to set 0");
    EXPECT_DEATH(restoreCache(craftedCache({{0, 0x41}})),
                 "cache 'victim' line 0: tag 41 does not belong to set 0");
}

TEST(CacheDeathTest, RepeatedTagInASetIsFatal)
{
    EXPECT_DEATH(restoreCache(craftedCache({{0, 128}, {1, 128}})),
                 "cache 'victim' line 1: tag 80 repeats line 0 of its set");
}

TEST(CacheDeathTest, StampNewerThanTheCounterIsFatal)
{
    restoreCache(craftedCache({{0, 0, 10}})); // stamp == counter is legal
    EXPECT_DEATH(restoreCache(craftedCache({{0, 0, 11}})),
                 "cache 'victim' line 0: stamp 11 is newer than the stamp "
                 "counter 10");
}

namespace
{

class CacheMidRunRestore : public ::testing::TestWithParam<CacheRepl>
{
};

/** One seeded operation on @p c: (op, hit or victim valid, victim
 *  line, victim dirty). */
std::tuple<std::uint64_t, bool, Addr, bool>
randomOp(Cache &c, Rng &ops, std::uint64_t span)
{
    Addr addr = ops.nextBelow(span);
    bool flag = ops.chance(0.3);
    switch (std::uint64_t op = ops.nextBelow(4)) {
      case 0:
        return {op, c.access(addr, flag), 0, false};
      case 1: {
        Cache::Eviction ev = c.insert(addr, flag);
        return {op, ev.valid, ev.line, ev.dirty};
      }
      case 2:
        return {op, c.invalidate(addr), 0, false};
      default:
        return {op, c.probe(addr), 0, false};
    }
}

} // namespace

TEST_P(CacheMidRunRestore, DroppedStateIsNeverRead)
{
    // Seeded traffic with invalidations, so the original's empty ways
    // keep stale dirty bits and stamps. Save midway, restore into a
    // cache with other contents and another RNG seed (the RNG must
    // come from the snapshot) and drive both with the same
    // operations: every hit, victim and later snapshot must agree.
    const CacheConfig cfg{4 * KiB, 4, 64, GetParam()};
    const std::uint64_t span = 4 * cfg.sizeBytes;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Cache a(cfg, "c", seed);
        Rng ops(seed * 104729);
        for (int i = 0; i < 5000; ++i)
            randomOp(a, ops, span);
        std::vector<unsigned char> mid = savedBytes(a);
        // Restore over other contents: loading must reset, not merge.
        Cache b(cfg, "c", seed + 100);
        Rng other(seed + 7);
        for (int i = 0; i < 3000; ++i)
            randomOp(b, other, span);
        Archive in(mid);
        b.serdeState(in);
        in.finish();
        ASSERT_EQ(savedBytes(b), mid) << "save-load-save, seed " << seed;
        ASSERT_EQ(a.occupancy(), b.occupancy());
        const std::uint64_t evictions_at_save = a.evictions();
        const std::uint64_t b_evictions_at_load = b.evictions();
        Rng ops_b = ops;
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(randomOp(a, ops, span), randomOp(b, ops_b, span))
                << "step " << i << ", seed " << seed;
            if (i % 2500 == 0) {
                ASSERT_EQ(savedBytes(a), savedBytes(b)) << "step " << i;
            }
        }
        EXPECT_EQ(savedBytes(a), savedBytes(b)) << "seed " << seed;
        EXPECT_EQ(a.evictions() - evictions_at_save,
                  b.evictions() - b_evictions_at_load);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheMidRunRestore,
                         ::testing::Values(CacheRepl::Lru,
                                           CacheRepl::Random));

TEST(Cache, FullDirectorySavesNoMoreThanTheDenseForm)
{
    // The dense form saved a count and (tag, valid, dirty, stamp) for
    // every line: an empty directory's section plus 32 bytes a line.
    // A live line saves (index, tag, dirty, stamp), so a full
    // directory's section is exactly that long.
    const CacheConfig cfg{4 * KiB, 4, 64};
    Cache c(cfg, "c");
    const std::size_t empty = savedBytes(c).size();
    for (Addr a = 0; a < cfg.sizeBytes; a += 64)
        c.insert(a, true);
    ASSERT_DOUBLE_EQ(c.occupancy(), 1.0);
    EXPECT_EQ(savedBytes(c).size(),
              empty + cfg.sizeBytes / cfg.lineBytes * 32);
}
