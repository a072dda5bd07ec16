/**
 * @file
 * Tests for the migration-group-restricted translation table,
 * including permutation invariants under random swap sequences.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/translation_table.hh"

using namespace dasdram;

namespace
{

DramGeometry
smallGeom()
{
    DramGeometry g;
    g.channels = 1;
    g.ranksPerChannel = 1;
    g.banksPerRank = 2;
    g.rowsPerBank = 128;
    return g;
}

} // namespace

TEST(TranslationTable, IdentityAtReset)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    for (GlobalRowId r = 0; r < g.totalRows(); ++r) {
        EXPECT_EQ(t.physicalOf(r), r);
        EXPECT_EQ(t.logicalOf(r), r);
    }
    // Initially the fast rows are exactly the fast slots.
    EXPECT_TRUE(t.isFast(0));
    EXPECT_TRUE(t.isFast(3));
    EXPECT_FALSE(t.isFast(4));
}

TEST(TranslationTable, SwapMovesBothDirections)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    t.swap(0, 10); // logical 0 (fast slot) ↔ logical 10 (slow slot)
    EXPECT_EQ(t.physicalOf(10), 0u);
    EXPECT_EQ(t.physicalOf(0), 10u);
    EXPECT_EQ(t.logicalOf(0), 10u);
    EXPECT_EQ(t.logicalOf(10), 0u);
    EXPECT_TRUE(t.isFast(10));
    EXPECT_FALSE(t.isFast(0));
    EXPECT_EQ(t.swapCount(), 1u);
}

TEST(TranslationTable, SelfSwapIsNoop)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    t.swap(5, 5);
    EXPECT_EQ(t.physicalOf(5), 5u);
    EXPECT_EQ(t.swapCount(), 0u);
}

TEST(TranslationTable, FastSlotOccupants)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    EXPECT_EQ(t.logicalInFastSlot(0, 0), 0u);
    t.swap(9, 0);
    EXPECT_EQ(t.logicalInFastSlot(0, 0), 9u);
    // Group 1 (rows 32..63) unaffected.
    EXPECT_EQ(t.logicalInFastSlot(1, 0), 32u);
}

TEST(TranslationTable, RandomSwapsPreservePermutation)
{
    // Property: after arbitrary in-group swaps, logical↔physical remain
    // inverse bijections and physical rows of a group stay in-group.
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    Rng rng(17);
    const std::uint64_t groups = l.totalGroups();
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t grp = rng.nextBelow(groups);
        GlobalRowId a = grp * 32 + rng.nextBelow(32);
        GlobalRowId b = grp * 32 + rng.nextBelow(32);
        t.swap(a, b);
    }
    std::set<GlobalRowId> seen;
    for (GlobalRowId r = 0; r < g.totalRows(); ++r) {
        GlobalRowId p = t.physicalOf(r);
        EXPECT_EQ(t.logicalOf(p), r);
        EXPECT_EQ(p / 32, r / 32); // stays within the migration group
        seen.insert(p);
    }
    EXPECT_EQ(seen.size(), g.totalRows()); // bijection
}

TEST(TranslationTable, FastCountInvariantPerGroup)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t grp = rng.nextBelow(l.totalGroups());
        t.swap(grp * 32 + rng.nextBelow(32),
               grp * 32 + rng.nextBelow(32));
    }
    for (std::uint64_t grp = 0; grp < l.totalGroups(); ++grp) {
        unsigned fast = 0;
        for (unsigned s = 0; s < 32; ++s)
            fast += t.isFast(grp * 32 + s) ? 1 : 0;
        EXPECT_EQ(fast, l.fastSlotsPerGroup());
    }
}

TEST(TranslationTable, EntryAddressLayout)
{
    EXPECT_EQ(TranslationTable::entryAddr(0x1000, 0), 0x1000u);
    EXPECT_EQ(TranslationTable::entryAddr(0x1000, 255), 0x10FFu);
}

TEST(TranslationTable, ResetRestoresIdentity)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    t.swap(0, 20);
    t.reset();
    EXPECT_EQ(t.physicalOf(20), 20u);
    EXPECT_EQ(t.swapCount(), 0u);
}

TEST(TranslationTableDeathTest, CrossGroupSwapPanics)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    EXPECT_DEATH(t.swap(0, 40), "across migration groups");
}

TEST(TranslationTableDeathTest, GroupSizeNotAPowerOfTwoIsFatal)
{
    // Entries are XOR distances, which stay inside a group only when
    // its size is a power of two.
    DramGeometry g = smallGeom();
    g.rowsPerBank = 96;
    LayoutConfig cfg;
    cfg.groupSize = 24;
    AsymmetricLayout l(g, cfg);
    EXPECT_DEATH(TranslationTable{l}, "migration groups of 24 rows: the "
                                      "translation table needs a power "
                                      "of two");
}

namespace
{

std::vector<unsigned char>
savedBytes(TranslationTable &t)
{
    Archive ar;
    t.serdeState(ar);
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

/** A "transTable" section holding (group, permutation) @p groups. */
std::vector<unsigned char>
craftedTable(
    const std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
        &groups)
{
    Archive ar;
    ar.section("transTable");
    std::uint64_t n = groups.size();
    ar.io(n);
    for (auto [g, perm] : groups) {
        ar.io(g);
        ar.blob(perm.data(), perm.size());
    }
    std::uint64_t swaps = 1;
    ar.io(swaps);
    ar.end();
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

/** Group 0..31 with slots 0 and 1 exchanged. */
std::vector<std::uint8_t>
swappedPerm()
{
    std::vector<std::uint8_t> p(32);
    for (unsigned s = 0; s < 32; ++s)
        p[s] = static_cast<std::uint8_t>(s);
    std::swap(p[0], p[1]);
    return p;
}

/** Load @p bytes into a fresh table over smallGeom()'s 8 groups. */
void
restoreTable(const std::vector<unsigned char> &bytes)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    Archive in(bytes);
    t.serdeState(in);
    in.finish();
}

} // namespace

TEST(TranslationTable, MidRunRestoreNeverReadsDroppedState)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable a(l);
    Rng rng(17);
    // Swaps over the first four groups only, some of which undo
    // earlier ones: groups back at the identity are not saved.
    auto step = [&](TranslationTable &t, Rng &r) {
        std::uint64_t grp = r.nextBelow(4);
        GlobalRowId x = grp * 32 + r.nextBelow(32);
        GlobalRowId y = grp * 32 + r.nextBelow(32);
        t.swap(x, y);
        t.swap(x, y);
        if (r.chance(0.5))
            t.swap(x, y);
    };
    for (int i = 0; i < 200; ++i)
        step(a, rng);
    std::vector<unsigned char> mid = savedBytes(a);
    TranslationTable b(l);
    b.swap(200, 201); // restore must overwrite, not merge
    Archive in(mid);
    b.serdeState(in);
    in.finish();
    ASSERT_EQ(savedBytes(b), mid);
    Rng rng_b = rng;
    for (int i = 0; i < 400; ++i) {
        step(a, rng);
        step(b, rng_b);
        if (i % 50 == 0) {
            for (GlobalRowId r = 0; r < g.totalRows(); ++r) {
                ASSERT_EQ(a.physicalOf(r), b.physicalOf(r)) << r;
                ASSERT_EQ(a.logicalOf(r), b.logicalOf(r)) << r;
            }
            ASSERT_EQ(savedBytes(a), savedBytes(b)) << "step " << i;
        }
    }
    EXPECT_EQ(a.swapCount(), b.swapCount());
    EXPECT_EQ(savedBytes(a), savedBytes(b));
}

TEST(TranslationTable, IdentityGroupsAreNotSaved)
{
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    const std::size_t empty = savedBytes(t).size();
    t.swap(40, 41);
    EXPECT_EQ(savedBytes(t).size(), empty + 8 + 32);
    t.swap(40, 41); // back to the identity
    EXPECT_EQ(savedBytes(t).size(), empty);
}

TEST(TranslationTable, FullyPermutedTableSavesNoMoreThanTheDenseForm)
{
    // The dense form saved both byte arrays: the empty section plus
    // 2 * G bytes a group. A permuted group saves its index and its
    // G permutation bytes.
    DramGeometry g = smallGeom();
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    const std::size_t empty = savedBytes(t).size();
    for (std::uint64_t grp = 0; grp < l.totalGroups(); ++grp)
        t.swap(grp * 32, grp * 32 + 31);
    const std::size_t full = savedBytes(t).size();
    EXPECT_EQ(full, empty + l.totalGroups() * (8 + 32));
    EXPECT_LE(full, empty + 2 * g.totalRows());
}

TEST(TranslationTableDeathTest, GroupIndexOutOfRangeOrOrderIsFatal)
{
    restoreTable(craftedTable({{2, swappedPerm()}, {7, swappedPerm()}}));
    EXPECT_DEATH(restoreTable(craftedTable({{8, swappedPerm()}})),
                 "translation-table group 8 is outside the table's 8 "
                 "entries");
    EXPECT_DEATH(
        restoreTable(craftedTable({{3, swappedPerm()}, {3, swappedPerm()}})),
        "translation-table group 3 does not follow translation-table "
        "group 3");
}

TEST(TranslationTableDeathTest, GroupThatIsNotAPermutationIsFatal)
{
    std::vector<std::uint8_t> repeated = swappedPerm();
    repeated[5] = 4;
    EXPECT_DEATH(restoreTable(craftedTable({{1, repeated}})),
                 "translation-table group 1: slot 5 maps to 4, so the "
                 "group is not a permutation of 0..31");
    std::vector<std::uint8_t> outside = swappedPerm();
    outside[31] = 32;
    EXPECT_DEATH(restoreTable(craftedTable({{6, outside}})),
                 "translation-table group 6: slot 31 maps to 32");
}

TEST(TranslationTable, FreshDeviceTableIsTheIdentityWithNoPages)
{
    DramGeometry g; // the default 8 GiB device
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    const GlobalRowId last = g.totalRows() - 1;
    for (GlobalRowId r : {GlobalRowId{0}, GlobalRowId{31}, GlobalRowId{32},
                          last}) {
        EXPECT_EQ(t.physicalOf(r), r);
        EXPECT_EQ(t.logicalOf(r), r);
        EXPECT_EQ(t.isFast(r), l.slotIsFast(l.slotOf(r))) << r;
    }
    EXPECT_TRUE(t.isFast(32));
    EXPECT_FALSE(t.isFast(31));
    EXPECT_EQ(t.logicalInFastSlot(l.totalGroups() - 1, 0),
              last - (l.groupSize() - 1));
    EXPECT_EQ(t.residentPages(), 0u);
}

namespace
{

/** Swap a slow row into a fast slot in group 0 and the last group. */
void
swapFirstAndLastGroup(TranslationTable &t, const DramGeometry &g)
{
    const GlobalRowId last = g.totalRows() - 1;
    t.swap(1, 30);
    t.swap(last, last - 31);
    t.swap(last - 1, last - 30);
}

} // namespace

TEST(TranslationTable, ResetAfterSparseSwapsIsTheIdentityEverywhere)
{
    DramGeometry g;
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    swapFirstAndLastGroup(t, g);
    const GlobalRowId last = g.totalRows() - 1;
    EXPECT_EQ(t.physicalOf(last), last - 31);
    EXPECT_EQ(t.logicalOf(last - 31), last);
    EXPECT_TRUE(t.isFast(last));
    EXPECT_FALSE(t.isFast(last - 31));
    EXPECT_EQ(t.logicalInFastSlot(0, 1), 30u);
    // Two rows far apart: one page of each array at either end.
    EXPECT_EQ(t.residentPages(), 4u);

    t.reset();
    EXPECT_EQ(t.residentPages(), 0u);
    EXPECT_EQ(t.swapCount(), 0u);
    for (GlobalRowId r = 0; r <= last; ++r) {
        ASSERT_EQ(t.physicalOf(r), r);
        ASSERT_EQ(t.logicalOf(r), r);
    }
}

TEST(TranslationTable, SparseSwapsSaveLoadSaveIsByteEqual)
{
    DramGeometry g;
    AsymmetricLayout l(g, {});
    TranslationTable a(l);
    const std::size_t empty = savedBytes(a).size();
    swapFirstAndLastGroup(a, g);
    const std::vector<unsigned char> saved = savedBytes(a);
    // Two groups: their indices and permutation bytes.
    EXPECT_EQ(saved.size(), empty + 2 * (8 + 32));

    TranslationTable b(l);
    b.swap(500, 501); // the load replaces, not merges
    Archive in(saved);
    b.serdeState(in);
    in.finish();
    EXPECT_EQ(savedBytes(b), saved);
    EXPECT_EQ(b.swapCount(), 3u);
    EXPECT_EQ(b.physicalOf(500), 500u);
    EXPECT_EQ(b.physicalOf(g.totalRows() - 2), g.totalRows() - 31);
}
