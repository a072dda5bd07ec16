/**
 * @file
 * Tests for the translation (tag) cache.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "core/translation_cache.hh"

using namespace dasdram;

TEST(TranslationCache, MissInsertHit)
{
    TranslationCache tc(1024, 8);
    EXPECT_FALSE(tc.lookup(42));
    tc.insert(42);
    EXPECT_TRUE(tc.lookup(42));
    EXPECT_EQ(tc.hits(), 1u);
    EXPECT_EQ(tc.misses(), 1u);
    EXPECT_DOUBLE_EQ(tc.hitRatio(), 0.5);
}

TEST(TranslationCache, CapacityInEntries)
{
    TranslationCache tc(128 * KiB, 8);
    EXPECT_EQ(tc.capacityEntries(), 128u * 1024);
}

TEST(TranslationCache, InvalidateRemovesEntry)
{
    TranslationCache tc(1024, 8);
    tc.insert(7);
    EXPECT_TRUE(tc.probe(7));
    tc.invalidate(7);
    EXPECT_FALSE(tc.probe(7));
    tc.invalidate(7); // idempotent
}

TEST(TranslationCache, ProbeDoesNotCount)
{
    TranslationCache tc(1024, 8);
    tc.insert(5);
    tc.probe(5);
    tc.probe(6);
    EXPECT_EQ(tc.hits() + tc.misses(), 0u);
}

TEST(TranslationCache, LruWithinSet)
{
    // Single-set cache: capacity 4, assoc 4.
    TranslationCache tc(4, 4);
    // These all land in the one set regardless of hash.
    tc.insert(1);
    tc.insert(2);
    tc.insert(3);
    tc.insert(4);
    tc.lookup(1); // refresh 1 → 2 is LRU
    tc.insert(5); // evicts 2
    EXPECT_TRUE(tc.probe(1));
    EXPECT_FALSE(tc.probe(2));
    EXPECT_TRUE(tc.probe(5));
}

TEST(TranslationCache, WorkingSetLargerThanCapacityThrashes)
{
    TranslationCache tc(64, 8);
    for (GlobalRowId r = 0; r < 1000; ++r)
        tc.insert(r);
    int resident = 0;
    for (GlobalRowId r = 0; r < 1000; ++r)
        resident += tc.probe(r) ? 1 : 0;
    EXPECT_LE(resident, 64);
    EXPECT_GT(resident, 0);
}

TEST(TranslationCache, InsertExistingRefreshes)
{
    TranslationCache tc(4, 4);
    tc.insert(1);
    tc.insert(2);
    tc.insert(3);
    tc.insert(4);
    tc.insert(1); // refresh, no eviction
    EXPECT_TRUE(tc.probe(2));
    tc.insert(9); // evicts LRU = 2
    EXPECT_FALSE(tc.probe(2));
}

TEST(TranslationCacheDeathTest, BadGeometryFatal)
{
    EXPECT_DEATH(TranslationCache(100, 8), "multiple of assoc");
}

namespace
{

/**
 * The tag cache as an array of {row, valid, stamp} structs, the layout
 * TranslationCache had before its split arrays, kept as the reference
 * model. Invalidation leaves the row behind; the snapshot writes the
 * stamp counter and then each valid entry as (index, row, stamp), so
 * the two payloads must match byte for byte.
 */
class RefTranslationCache
{
  public:
    RefTranslationCache(std::uint64_t capacity, unsigned assoc)
        : assoc_(assoc), numSets_(capacity / assoc), entries_(capacity)
    {
    }

    bool
    lookup(GlobalRowId row)
    {
        Entry *e = find(row);
        if (e)
            e->stamp = ++stampCounter_;
        return e != nullptr;
    }

    bool probe(GlobalRowId row) { return find(row) != nullptr; }

    void
    insert(GlobalRowId row)
    {
        Entry *base = set(row);
        Entry *victim = nullptr;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].row == row) {
                base[w].stamp = ++stampCounter_;
                return;
            }
            if (!victim && !base[w].valid)
                victim = &base[w];
        }
        if (!victim) {
            victim = base;
            for (unsigned w = 1; w < assoc_; ++w) {
                if (base[w].stamp < victim->stamp)
                    victim = &base[w];
            }
        }
        *victim = Entry{row, true, ++stampCounter_};
    }

    void
    invalidate(GlobalRowId row)
    {
        if (Entry *e = find(row))
            e->valid = false;
    }

    void
    serdeState(Archive &ar)
    {
        ar.section("transCache");
        ar.io(stampCounter_);
        std::uint64_t live = 0;
        for (const Entry &e : entries_)
            live += e.valid ? 1 : 0;
        ar.io(live);
        for (std::uint64_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (!e.valid)
                continue;
            ar.io(i);
            ar.io(e.row);
            ar.io(e.stamp);
        }
        ar.end();
    }

  private:
    struct Entry
    {
        GlobalRowId row = ~0ULL;
        bool valid = false;
        std::uint64_t stamp = 0;
    };

    Entry *
    set(GlobalRowId row)
    {
        std::uint64_t h = row * 0x9e3779b97f4a7c15ULL;
        return &entries_[((h >> 16) % numSets_) * assoc_];
    }

    Entry *
    find(GlobalRowId row)
    {
        Entry *base = set(row);
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].row == row)
                return &base[w];
        }
        return nullptr;
    }

    unsigned assoc_;
    std::uint64_t numSets_;
    std::vector<Entry> entries_;
    std::uint64_t stampCounter_ = 0;
};

template <typename T>
std::vector<unsigned char>
savedBytes(T &tc)
{
    Archive ar;
    tc.serdeState(ar);
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

} // namespace

TEST(TranslationCache, SeededOpsMatchReferenceModel)
{
    for (unsigned assoc : {1u, 4u, 8u}) {
        for (std::uint64_t seed : {1u, 2u}) {
            const std::uint64_t capacity = 256;
            TranslationCache dut(capacity, assoc);
            RefTranslationCache ref(capacity, assoc);
            Rng ops(seed * 31 + assoc);
            for (int i = 0; i < 20000; ++i) {
                GlobalRowId row = ops.nextBelow(4 * capacity);
                switch (ops.nextBelow(4)) {
                  case 0:
                    ASSERT_EQ(dut.lookup(row), ref.lookup(row))
                        << "lookup " << i;
                    break;
                  case 1:
                    dut.insert(row);
                    ref.insert(row);
                    break;
                  case 2:
                    dut.invalidate(row);
                    ref.invalidate(row);
                    break;
                  default:
                    ASSERT_EQ(dut.probe(row), ref.probe(row))
                        << "probe " << i;
                    break;
                }
            }
            // Stale rows of invalidated entries are not saved.
            EXPECT_EQ(savedBytes(dut), savedBytes(ref))
                << "assoc " << assoc << " seed " << seed;
        }
    }
}

TEST(TranslationCache, SaveLoadSaveRoundTripsInvalidatedEntries)
{
    TranslationCache a(64, 8);
    for (GlobalRowId r = 0; r < 200; ++r)
        a.insert(r);
    for (GlobalRowId r = 150; r < 200; r += 3)
        a.invalidate(r);
    std::vector<unsigned char> first = savedBytes(a);
    TranslationCache b(64, 8);
    Archive in(first);
    b.serdeState(in);
    in.finish();
    EXPECT_EQ(savedBytes(b), first);
    for (GlobalRowId r = 0; r < 200; ++r)
        ASSERT_EQ(a.probe(r), b.probe(r)) << r;
}

namespace
{

/** A "transCache" section holding (index, row, stamp) @p entries. */
std::vector<unsigned char>
craftedTagCache(
    const std::vector<std::tuple<std::uint64_t, GlobalRowId,
                                 std::uint64_t>> &entries,
    std::uint64_t counter = 10)
{
    Archive ar;
    ar.section("transCache");
    ar.io(counter);
    std::uint64_t n = entries.size();
    ar.io(n);
    for (auto [index, row, stamp] : entries) {
        ar.io(index);
        ar.io(row);
        ar.io(stamp);
    }
    ar.end();
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

/** Load @p bytes into a fresh 2-set, 2-way tag cache. */
void
restoreTagCache(const std::vector<unsigned char> &bytes)
{
    TranslationCache tc(4, 2);
    Archive in(bytes);
    tc.serdeState(in);
    in.finish();
}

/** The first @p n rows the 2-set tag cache maps to set @p set. */
std::vector<GlobalRowId>
rowsOfSet(std::size_t set, std::size_t n)
{
    std::vector<GlobalRowId> rows;
    for (GlobalRowId r = 0; rows.size() < n; ++r) {
        std::uint64_t h = r * 0x9e3779b97f4a7c15ULL;
        if (((h >> 16) & 1) == set)
            rows.push_back(r);
    }
    return rows;
}

} // namespace

TEST(TranslationCacheDeathTest, LiveEntryIndexOutOfRangeOrOrderIsFatal)
{
    const std::vector<GlobalRowId> s1 = rowsOfSet(1, 2);
    restoreTagCache(craftedTagCache({{2, s1[0], 1}, {3, s1[1], 2}}));
    EXPECT_DEATH(restoreTagCache(craftedTagCache({{4, s1[0], 1}})),
                 "tag-cache entry 4 is outside the table's 4 entries");
    EXPECT_DEATH(
        restoreTagCache(craftedTagCache({{3, s1[0], 1}, {2, s1[1], 2}})),
        "tag-cache entry 2 does not follow tag-cache entry 3");
}

TEST(TranslationCacheDeathTest, RowOutsideItsSetIsFatal)
{
    const GlobalRowId row = rowsOfSet(1, 1)[0];
    EXPECT_DEATH(restoreTagCache(craftedTagCache({{0, row, 1}})),
                 "tag-cache entry 0: row " + std::to_string(row) +
                     " does not belong to set 0");
}

TEST(TranslationCacheDeathTest, RepeatedRowInASetIsFatal)
{
    const GlobalRowId row = rowsOfSet(0, 1)[0];
    EXPECT_DEATH(
        restoreTagCache(craftedTagCache({{0, row, 1}, {1, row, 2}})),
        "tag-cache entry 1: row " + std::to_string(row) +
            " repeats entry 0 of its set");
}

TEST(TranslationCacheDeathTest, StampNewerThanTheCounterIsFatal)
{
    const GlobalRowId row = rowsOfSet(0, 1)[0];
    EXPECT_DEATH(restoreTagCache(craftedTagCache({{0, row, 11}})),
                 "tag-cache entry 0: stamp 11 is newer than the stamp "
                 "counter 10");
}

TEST(TranslationCache, MidRunRestoreNeverReadsDroppedState)
{
    // Invalidations leave stale rows and stamps in the original that
    // a restored cache does not have: hits, evictions (seen through
    // probes of every row) and later snapshots must still agree.
    for (unsigned assoc : {1u, 4u, 8u}) {
        const std::uint64_t capacity = 256;
        TranslationCache a(capacity, assoc);
        Rng ops(assoc * 7 + 1);
        auto step = [&](TranslationCache &tc, Rng &r) {
            GlobalRowId row = r.nextBelow(4 * capacity);
            switch (r.nextBelow(3)) {
              case 0:
                return tc.lookup(row);
              case 1:
                tc.insert(row);
                return true;
              default:
                tc.invalidate(row);
                return false;
            }
        };
        for (int i = 0; i < 5000; ++i)
            step(a, ops);
        std::vector<unsigned char> mid = savedBytes(a);
        // Restore over other contents: loading must reset, not merge.
        TranslationCache b(capacity, assoc);
        Rng other(assoc + 5);
        for (int i = 0; i < 3000; ++i)
            step(b, other);
        Archive in(mid);
        b.serdeState(in);
        in.finish();
        ASSERT_EQ(savedBytes(b), mid) << "save-load-save, assoc " << assoc;
        Rng ops_b = ops;
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(step(a, ops), step(b, ops_b)) << "step " << i;
            if (i % 500 == 0) {
                for (GlobalRowId r = 0; r < 4 * capacity; ++r)
                    ASSERT_EQ(a.probe(r), b.probe(r)) << "step " << i;
            }
        }
        EXPECT_EQ(savedBytes(a), savedBytes(b)) << "assoc " << assoc;
    }
}

TEST(TranslationCache, FullCacheSavesNoMoreThanTheDenseForm)
{
    // The dense form saved a count and (row, valid, stamp) for every
    // entry: the empty section plus 24 bytes an entry. A valid entry
    // saves (index, row, stamp), so a full cache is exactly that long.
    TranslationCache tc(64, 8);
    const std::size_t empty = savedBytes(tc).size();
    for (GlobalRowId r = 0; r < 4096; ++r)
        tc.insert(r);
    for (GlobalRowId r = 4096 - 256; r < 4096; ++r)
        tc.lookup(r);
    EXPECT_EQ(savedBytes(tc).size(), empty + 64 * 24);
}
