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
 * The tag cache as an array of {row, valid, stamp} structs with 64-bit
 * LRU stamps, the layout TranslationCache had before its one-byte
 * ranks, kept as the reference model. Invalidation leaves the row and
 * stamp behind. Its snapshot derives each valid entry's rank from the
 * stamps (the number of valid entries of its set stamped later), so
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
        std::vector<std::uint64_t> live;
        for (std::uint64_t s = 0; s < numSets_; ++s) {
            for (unsigned w = 0; w < assoc_; ++w) {
                if (entries_[s * assoc_ + w].valid) {
                    live.push_back(s);
                    break;
                }
            }
        }
        std::uint64_t n = live.size();
        ar.io(n);
        for (std::uint64_t s : live) {
            ar.io(s);
            const Entry *base = &entries_[s * assoc_];
            std::vector<std::uint8_t> ranks(assoc_, kLruEmpty);
            for (unsigned w = 0; w < assoc_; ++w) {
                if (!base[w].valid)
                    continue;
                ranks[w] = 0;
                for (unsigned v = 0; v < assoc_; ++v)
                    ranks[w] += base[v].valid &&
                                base[v].stamp > base[w].stamp;
            }
            ar.blob(ranks.data(), assoc_);
            for (unsigned w = 0; w < assoc_; ++w) {
                GlobalRowId row = base[w].row;
                if (base[w].valid)
                    ar.io(row);
            }
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
    for (unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
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
            // The ranks order each set's valid entries as the stamps
            // do; stale rows of invalidated entries are not saved.
            const std::vector<unsigned char> saved = savedBytes(dut);
            EXPECT_EQ(saved, savedBytes(ref))
                << "assoc " << assoc << " seed " << seed;
            TranslationCache back(capacity, assoc);
            Archive in(saved);
            back.serdeState(in);
            in.finish();
            EXPECT_EQ(savedBytes(back), saved)
                << "save-load-save, assoc " << assoc << " seed " << seed;
        }
    }
}

TEST(TranslationCache, HostBytesPerEntry)
{
    // A 4-byte row id and a one-byte rank: 640 KiB at the default
    // 128 KB, where a 64-bit row and stamp and a valid byte took 17.
    TranslationCache tc(128 * KiB, 8);
    EXPECT_EQ(tc.hostBytes(), 5u * 128 * KiB);
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

/** One saved set of a crafted "transCache" section: its index, its
 *  ranks and the rows of its valid ways. */
struct CraftedSet
{
    std::uint64_t index;
    std::vector<std::uint8_t> ranks;
    std::vector<GlobalRowId> rows;
};

/** A "transCache" section holding @p sets. */
std::vector<unsigned char>
craftedTagCache(const std::vector<CraftedSet> &sets)
{
    Archive ar;
    ar.section("transCache");
    std::uint64_t n = sets.size();
    ar.io(n);
    for (CraftedSet s : sets) {
        ar.io(s.index);
        ar.blob(s.ranks.data(), s.ranks.size());
        for (GlobalRowId row : s.rows)
            ar.io(row);
    }
    ar.end();
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

/** Load @p bytes into a fresh 2-set, 2-way tag cache over
 *  @p total_rows device rows. */
void
restoreTagCache(const std::vector<unsigned char> &bytes,
                std::uint64_t total_rows = TranslationCache::kEmptyRow)
{
    TranslationCache tc(4, 2, total_rows);
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
    const std::vector<GlobalRowId> s0 = rowsOfSet(0, 1);
    const std::vector<GlobalRowId> s1 = rowsOfSet(1, 2);
    restoreTagCache(craftedTagCache({{0, {0, kLruEmpty}, {s0[0]}},
                                     {1, {1, 0}, {s1[0], s1[1]}}}));
    EXPECT_DEATH(restoreTagCache(craftedTagCache({{2, {0, 1}, s1}})),
                 "tag-cache set 2 is outside the table's 2 entries");
    EXPECT_DEATH(restoreTagCache(craftedTagCache(
                     {{1, {0, 1}, s1}, {0, {0, kLruEmpty}, s0}})),
                 "tag-cache set 0 does not follow tag-cache set 1");
}

TEST(TranslationCacheDeathTest, RowOutsideItsSetIsFatal)
{
    const GlobalRowId row = rowsOfSet(1, 1)[0];
    EXPECT_DEATH(
        restoreTagCache(craftedTagCache({{0, {0, kLruEmpty}, {row}}})),
        "tag-cache entry 0: row " + std::to_string(row) +
            " does not belong to set 0");
}

TEST(TranslationCacheDeathTest, RepeatedRowInASetIsFatal)
{
    const GlobalRowId row = rowsOfSet(0, 1)[0];
    EXPECT_DEATH(restoreTagCache(craftedTagCache({{0, {0, 1}, {row, row}}})),
                 "tag-cache entry 1: row " + std::to_string(row) +
                     " repeats entry 0 of its set");
}

TEST(TranslationCacheDeathTest, RowOutsideTheDeviceIsFatal)
{
    // A saved row must name a device row, so it fits the 4-byte id.
    const std::vector<GlobalRowId> s0 = rowsOfSet(0, 8);
    const GlobalRowId row = s0.back();
    restoreTagCache(craftedTagCache({{0, {0, kLruEmpty}, {row}}}), row + 1);
    EXPECT_DEATH(restoreTagCache(craftedTagCache({{0, {0, kLruEmpty}, {row}}}),
                                 row),
                 "tag-cache entry 0: row " + std::to_string(row) +
                     " is outside the device's " + std::to_string(row) +
                     " rows");
}

TEST(TranslationCacheDeathTest, RanksNotAPermutationAreFatal)
{
    // The valid entries of a set must rank 0..k-1 once each.
    const std::vector<GlobalRowId> s0 = rowsOfSet(0, 2);
    EXPECT_DEATH(restoreTagCache(craftedTagCache({{0, {0, 0}, s0}})),
                 "tag-cache set 0: way 1 has recency rank 0; the set's 2 "
                 "valid entries must rank 0..1 once each");
    EXPECT_DEATH(restoreTagCache(craftedTagCache({{0, {kLruEmpty, 1}, {s0[0]}}})),
                 "tag-cache set 0: way 1 has recency rank 1; the set's 1 "
                 "valid entries must rank 0..0 once each");
}

TEST(TranslationCacheDeathTest, LiveSetWithNoValidEntryIsFatal)
{
    EXPECT_DEATH(
        restoreTagCache(craftedTagCache({{1, {kLruEmpty, kLruEmpty}, {}}})),
        "tag-cache set 1: saved as live with no valid entry");
}

TEST(TranslationCacheDeathTest, TooManyRowsForAFourByteIdIsFatal)
{
    TranslationCache fits(1024, 8, TranslationCache::kEmptyRow);
    EXPECT_DEATH(TranslationCache(1024, 8, std::uint64_t{1} << 32),
                 "the geometry's 4294967296 rows do not fit a 4-byte row "
                 "id");
}

TEST(TranslationCacheDeathTest, AssociativityBeyondARankByteIsFatal)
{
    EXPECT_DEATH(TranslationCache(256, 256),
                 "associativity 256 exceeds the 255 ways");
}

TEST(TranslationCache, MidRunRestoreNeverReadsDroppedState)
{
    // Invalidations empty entries in the middle of a set's order:
    // after a restore, hits, evictions (seen through probes of every
    // row) and later snapshots must still agree.
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
    // entry: the empty section plus 24 bytes an entry. A live set
    // saves its index, one rank byte a way and each valid row, so a
    // full 8-way cache saves 10 bytes an entry.
    TranslationCache tc(64, 8);
    const std::size_t empty = savedBytes(tc).size();
    for (GlobalRowId r = 0; r < 4096; ++r)
        tc.insert(r);
    for (GlobalRowId r = 4096 - 256; r < 4096; ++r)
        tc.lookup(r);
    EXPECT_EQ(savedBytes(tc).size(), empty + 8 * (8 + 8 + 8 * 8));
    EXPECT_LT(savedBytes(tc).size(), empty + 64 * 24);
}
