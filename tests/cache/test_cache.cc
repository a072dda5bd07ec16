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
 * with a division-based set index and 64-bit LRU stamps: the layout
 * Cache had before its split-tag arrays and one-byte ranks, kept here
 * as the reference model. Its snapshot writes the RNG and then each
 * set holding a valid line as its ranks (derived from the stamps: the
 * number of valid lines of the set stamped later), its dirty mask and
 * its valid tags, so the two payloads must match byte for byte.
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
        rng_.serdeState(ar);
        const unsigned assoc = cfg_.assoc;
        std::vector<std::uint64_t> live;
        for (std::uint64_t s = 0; s < cfg_.numSets(); ++s) {
            for (unsigned w = 0; w < assoc; ++w) {
                if (lines_[s * assoc + w].valid) {
                    live.push_back(s);
                    break;
                }
            }
        }
        std::uint64_t n = live.size();
        ar.io(n);
        for (std::uint64_t s : live) {
            ar.io(s);
            Line *base = &lines_[s * assoc];
            std::vector<std::uint8_t> ranks(assoc, kLruEmpty);
            std::vector<std::uint8_t> mask((assoc + 7) / 8, 0);
            for (unsigned w = 0; w < assoc; ++w) {
                if (!base[w].valid)
                    continue;
                ranks[w] = 0;
                for (unsigned v = 0; v < assoc; ++v)
                    ranks[w] += base[v].valid &&
                                base[v].stamp > base[w].stamp;
                if (base[w].dirty)
                    mask[w / 8] |= static_cast<std::uint8_t>(1u << (w % 8));
            }
            ar.blob(ranks.data(), ranks.size());
            ar.blob(mask.data(), mask.size());
            for (unsigned w = 0; w < assoc; ++w) {
                if (base[w].valid)
                    ar.io(base[w].tag);
            }
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
        // Same records, same recency order, same RNG position.
        const std::vector<unsigned char> saved = savedBytes(dut);
        EXPECT_EQ(saved, savedBytes(ref)) << "seed " << seed;
        Cache back(cfg, "dut", seed + 1);
        Archive in(saved);
        back.serdeState(in);
        in.finish();
        EXPECT_EQ(savedBytes(back), saved)
            << "save-load-save, seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReferenceModel,
    ::testing::Values(std::make_tuple(1u, CacheRepl::Lru),
                      std::make_tuple(4u, CacheRepl::Lru),
                      std::make_tuple(8u, CacheRepl::Lru),
                      std::make_tuple(4u, CacheRepl::Random),
                      std::make_tuple(8u, CacheRepl::Random),
                      std::make_tuple(2u, CacheRepl::Lru),
                      std::make_tuple(16u, CacheRepl::Lru),
                      std::make_tuple(1u, CacheRepl::Random),
                      std::make_tuple(2u, CacheRepl::Random),
                      std::make_tuple(16u, CacheRepl::Random)));

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

TEST(Cache, HostBytesPerLine)
{
    // An 8-byte tag, a one-byte rank and a dirty bit: the default LLC
    // takes 584 KiB, where a tag, a 64-bit stamp and a dirty byte a
    // line took 1.06 MiB.
    Cache llc({4 * MiB, 8, 64}, "llc");
    EXPECT_EQ(llc.hostBytes(), 65536u * 9 + 65536u / 8);
}

TEST(CacheDeathTest, AssociativityBeyondARankByteIsFatal)
{
    EXPECT_DEATH(Cache({256 * 64, 256, 64}, "wide"),
                 "cache 'wide': associativity 256 exceeds the 255 ways");
}

namespace
{

/** One saved set of a crafted "cache" section: its index, its ranks,
 *  its dirty mask and the tags of its valid ways. */
struct CraftedSet
{
    std::uint64_t index;
    std::vector<std::uint8_t> ranks;
    std::vector<Addr> tags;
    std::uint8_t dirtyMask = 0;
};

/** A "cache" section of a 2-way cache holding @p sets. */
std::vector<unsigned char>
craftedCache(const std::vector<CraftedSet> &sets)
{
    Archive ar;
    ar.section("cache");
    Rng(1).serdeState(ar);
    std::uint64_t n = sets.size();
    ar.io(n);
    for (CraftedSet s : sets) {
        ar.io(s.index);
        ar.blob(s.ranks.data(), s.ranks.size());
        ar.blob(&s.dirtyMask, 1);
        for (Addr tag : s.tags)
            ar.io(tag);
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

constexpr std::uint8_t E = kLruEmpty;

} // namespace

TEST(CacheDeathTest, SavedValidDisagreeingWithTagIsFatal)
{
    // A live line whose tag is the empty-way marker.
    restoreCache(craftedCache({{0, {0, 1}, {0, 128}}})); // well formed
    EXPECT_DEATH(restoreCache(craftedCache({{0, {0, 1}, {0, kAddrInvalid}}})),
                 "cache 'victim' line 1: saved as live with the empty-way "
                 "tag");
}

TEST(CacheDeathTest, LiveLineIndexOutOfRangeOrOrderIsFatal)
{
    EXPECT_DEATH(restoreCache(craftedCache({{2, {0, E}, {0}}})),
                 "cache 'victim' set 2 is outside the table's 2 entries");
    EXPECT_DEATH(restoreCache(craftedCache(
                     {{1, {0, E}, {64}}, {0, {0, E}, {0}}})),
                 "cache 'victim' set 0 does not follow cache 'victim' "
                 "set 1");
    EXPECT_DEATH(restoreCache(craftedCache(
                     {{1, {0, E}, {64}}, {1, {E, 0}, {192}}})),
                 "cache 'victim' set 1 does not follow cache 'victim' "
                 "set 1");
}

TEST(CacheDeathTest, TagOutsideItsSetIsFatal)
{
    // Line 64 maps to set 1, not set 0; 0x41 is not line-aligned.
    EXPECT_DEATH(restoreCache(craftedCache({{0, {0, E}, {64}}})),
                 "cache 'victim' line 0: tag 40 does not belong to set 0");
    EXPECT_DEATH(restoreCache(craftedCache({{0, {0, E}, {0x41}}})),
                 "cache 'victim' line 0: tag 41 does not belong to set 0");
}

TEST(CacheDeathTest, RepeatedTagInASetIsFatal)
{
    EXPECT_DEATH(restoreCache(craftedCache({{0, {0, 1}, {128, 128}}})),
                 "cache 'victim' line 1: tag 80 repeats line 0 of its set");
}

TEST(CacheDeathTest, RanksNotAPermutationAreFatal)
{
    // The valid ways of a set must rank 0..k-1 once each.
    restoreCache(craftedCache({{0, {E, 0}, {0}}})); // well formed
    EXPECT_DEATH(restoreCache(craftedCache({{0, {1, 1}, {0, 128}}})),
                 "cache 'victim' set 0: way 1 has recency rank 1; the "
                 "set's 2 valid ways must rank 0..1 once each");
    EXPECT_DEATH(restoreCache(craftedCache({{0, {2, 0}, {0, 128}}})),
                 "cache 'victim' set 0: way 0 has recency rank 2");
    EXPECT_DEATH(restoreCache(craftedCache({{1, {E, 1}, {64}}})),
                 "cache 'victim' set 1: way 1 has recency rank 1; the "
                 "set's 1 valid ways must rank 0..0 once each");
}

TEST(CacheDeathTest, DirtyBitOnAnEmptyWayIsFatal)
{
    restoreCache(craftedCache({{0, {0, E}, {0}, 0b01}})); // well formed
    EXPECT_DEATH(restoreCache(craftedCache({{0, {0, E}, {0}, 0b10}})),
                 "cache 'victim' set 0: way 1 is marked dirty but holds "
                 "no line");
    // Bits past the set's two ways name no way at all.
    EXPECT_DEATH(restoreCache(craftedCache({{0, {0, 1}, {0, 128}, 0x80}})),
                 "cache 'victim' set 0: way 7 is marked dirty but holds "
                 "no line");
}

TEST(CacheDeathTest, LiveSetWithNoValidWayIsFatal)
{
    EXPECT_DEATH(restoreCache(craftedCache({{1, {E, E}, {}}})),
                 "cache 'victim' set 1: saved as live with no valid way");
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
    // Seeded traffic with invalidations, so the original's sets empty
    // ways in the middle of their order. Save midway, restore into a
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
    // A live set saves its index, a rank byte a way, a dirty-mask byte
    // (4 ways) and each valid tag, so a full 4-way directory's section
    // is 45 bytes a set.
    const CacheConfig cfg{4 * KiB, 4, 64};
    Cache c(cfg, "c");
    const std::size_t empty = savedBytes(c).size();
    for (Addr a = 0; a < cfg.sizeBytes; a += 64)
        c.insert(a, true);
    ASSERT_DOUBLE_EQ(c.occupancy(), 1.0);
    EXPECT_EQ(savedBytes(c).size(),
              empty + cfg.numSets() * (8 + 4 + 1 + 4 * 8));
    EXPECT_LT(savedBytes(c).size(),
              empty + cfg.sizeBytes / cfg.lineBytes * 32);
}
