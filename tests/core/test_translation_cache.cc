/**
 * @file
 * Tests for the translation (tag) cache.
 */

#include <gtest/gtest.h>

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
 * model. Invalidation leaves the row behind, and the snapshot writes
 * the same records, so the two payloads must match byte for byte.
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
        ar.expectCount(entries_.size(), "tag-cache entries");
        for (Entry &e : entries_) {
            ar.io(e.row);
            ar.io(e.valid);
            ar.io(e.stamp);
        }
        ar.io(stampCounter_);
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
            // Stale rows of invalidated entries included.
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
