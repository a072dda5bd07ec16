/**
 * @file
 * Tests for promotion filtering and fast-slot replacement policies.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/promotion_policy.hh"
#include "core/replacement_policy.hh"

using namespace dasdram;

TEST(PromotionFilter, ThresholdOneAlwaysPromotes)
{
    PromotionFilter f({1, 1024});
    for (GlobalRowId r = 0; r < 100; ++r)
        EXPECT_TRUE(f.onSlowAccess(r));
    EXPECT_EQ(f.promotionsAllowed(), 100u);
    EXPECT_EQ(f.filtered(), 0u);
}

TEST(PromotionFilter, ThresholdTwoNeedsTwoHits)
{
    PromotionFilter f({2, 1024});
    EXPECT_FALSE(f.onSlowAccess(5));
    EXPECT_TRUE(f.onSlowAccess(5));
    // Counter released after promotion: starts over.
    EXPECT_FALSE(f.onSlowAccess(5));
}

class FilterThresholdSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FilterThresholdSweep, ExactlyThresholdHitsRequired)
{
    unsigned th = GetParam();
    PromotionFilter f({th, 1024});
    for (unsigned i = 1; i < th; ++i)
        EXPECT_FALSE(f.onSlowAccess(9)) << "hit " << i;
    EXPECT_TRUE(f.onSlowAccess(9));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FilterThresholdSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(PromotionFilter, CounterStealingResetsCount)
{
    // Two rows aliasing to the same counter (counters=1).
    PromotionFilter f({3, 1});
    EXPECT_FALSE(f.onSlowAccess(0));
    EXPECT_FALSE(f.onSlowAccess(0));
    // Row 1 steals the counter; row 0 progress lost.
    EXPECT_FALSE(f.onSlowAccess(1));
    EXPECT_FALSE(f.onSlowAccess(0));
    EXPECT_FALSE(f.onSlowAccess(0));
    EXPECT_TRUE(f.onSlowAccess(0));
}

TEST(PromotionFilter, ClearDropsProgress)
{
    PromotionFilter f({2, 16});
    EXPECT_FALSE(f.onSlowAccess(3));
    f.clear(3);
    EXPECT_FALSE(f.onSlowAccess(3)); // starts from one again
    EXPECT_TRUE(f.onSlowAccess(3));
}

TEST(PromotionFilter, ThresholdOneKeepsNoCounterPool)
{
    // Threshold 1 never counts, so it allocates and saves no pool;
    // clear() is a no-op.
    auto saved = [](PromotionFilter &f) {
        Archive ar;
        f.serdeState(ar);
        return ar.payload().size();
    };
    PromotionFilter one({1, 1024});
    one.clear(7);
    EXPECT_TRUE(one.onSlowAccess(7));
    PromotionFilter two({2, 1024});
    EXPECT_LT(saved(one) * 100, saved(two));

    Archive out;
    one.serdeState(out);
    PromotionFilter back({1, 1024});
    Archive in(out.payload());
    back.serdeState(in);
    in.finish();
    EXPECT_TRUE(back.onSlowAccess(7));
}

TEST(PromotionFilterDeathTest, ZeroThresholdOrCountersIsFatal)
{
    EXPECT_DEATH(PromotionFilter({0, 1024}), "das.promotionThreshold");
    EXPECT_DEATH(PromotionFilter({2, 0}), "das.promotionCounters");
    EXPECT_DEATH(PromotionFilter({1, 0}), "das.promotionCounters");
}

TEST(Replacement, ParseAndName)
{
    EXPECT_EQ(parseFastReplPolicy("lru"), FastReplPolicy::Lru);
    EXPECT_EQ(parseFastReplPolicy("random"), FastReplPolicy::Random);
    EXPECT_EQ(parseFastReplPolicy("sequential"),
              FastReplPolicy::Sequential);
    EXPECT_EQ(parseFastReplPolicy("pseudorandom"),
              FastReplPolicy::PseudoRandom);
    EXPECT_STREQ(toString(FastReplPolicy::Lru), "lru");
}

TEST(Replacement, LruPicksColdestSlot)
{
    FastSlotReplacement r(FastReplPolicy::Lru, 4, 10);
    r.onFastAccess(3, 0);
    r.onFastAccess(3, 1);
    r.onFastAccess(3, 3);
    EXPECT_EQ(r.chooseVictim(3), 2u); // never touched
    r.onFastAccess(3, 2);
    EXPECT_EQ(r.chooseVictim(3), 0u); // now the oldest
}

TEST(Replacement, LruIsPerGroup)
{
    FastSlotReplacement r(FastReplPolicy::Lru, 4, 10);
    r.onFastAccess(0, 0);
    // Group 1 state untouched by group 0 accesses.
    EXPECT_EQ(r.chooseVictim(1), 0u);
}

TEST(Replacement, SequentialRoundRobins)
{
    FastSlotReplacement r(FastReplPolicy::Sequential, 4, 10);
    EXPECT_EQ(r.chooseVictim(2), 0u);
    EXPECT_EQ(r.chooseVictim(2), 1u);
    EXPECT_EQ(r.chooseVictim(2), 2u);
    EXPECT_EQ(r.chooseVictim(2), 3u);
    EXPECT_EQ(r.chooseVictim(2), 0u);
    // Independent cursor per group.
    EXPECT_EQ(r.chooseVictim(5), 0u);
}

TEST(Replacement, NeverTouchedGroupOfADeviceSizedTable)
{
    // 32768 groups: the default device's. Groups 0 and the last are
    // touched; group 20000 lies on a page nothing wrote.
    const std::uint64_t groups = 32768;
    FastSlotReplacement lru(FastReplPolicy::Lru, 4, groups);
    lru.onFastAccess(0, 0);
    lru.onFastAccess(groups - 1, 0);
    lru.onFastAccess(groups - 1, 1);
    EXPECT_EQ(lru.chooseVictim(20000), 0u);
    EXPECT_EQ(lru.chooseVictim(groups - 1), 2u);

    FastSlotReplacement seq(FastReplPolicy::Sequential, 4, groups);
    EXPECT_EQ(seq.chooseVictim(groups - 1), 0u);
    EXPECT_EQ(seq.chooseVictim(20000), 0u);
    EXPECT_EQ(seq.chooseVictim(20000), 1u);
    EXPECT_EQ(seq.chooseVictim(20001), 0u);
}

TEST(Replacement, PseudoRandomUsesGlobalCounter)
{
    FastSlotReplacement r(FastReplPolicy::PseudoRandom, 4, 10);
    EXPECT_EQ(r.chooseVictim(0), 0u);
    EXPECT_EQ(r.chooseVictim(7), 1u); // counter is global
    EXPECT_EQ(r.chooseVictim(0), 2u);
}

TEST(Replacement, RandomStaysInRange)
{
    FastSlotReplacement r(FastReplPolicy::Random, 4, 10);
    std::set<unsigned> seen;
    for (int i = 0; i < 200; ++i) {
        unsigned v = r.chooseVictim(0);
        ASSERT_LT(v, 4u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

namespace
{

std::vector<unsigned char>
savedBytes(FastSlotReplacement &r)
{
    Archive ar;
    r.serdeState(ar);
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

class ReplacementMidRunRestore
    : public ::testing::TestWithParam<FastReplPolicy>
{
};

} // namespace

TEST_P(ReplacementMidRunRestore, VictimsAndSnapshotsMatch)
{
    // A sparse touch pattern over 1000 groups (zero runs longer than
    // one token can hold), save midway, restore into an instance with
    // other state and another seed, then continue identically on both.
    const FastReplPolicy policy = GetParam();
    const std::uint64_t groups = 1000;
    FastSlotReplacement a(policy, 4, groups, 3);
    Rng ops(29);
    auto step = [&](FastSlotReplacement &r, Rng &o) -> int {
        std::uint64_t grp = o.nextBelow(groups / 50) * 50;
        if (o.chance(0.6)) {
            r.onFastAccess(grp, static_cast<unsigned>(o.nextBelow(4)));
            return -1;
        }
        return static_cast<int>(r.chooseVictim(grp));
    };
    for (int i = 0; i < 300; ++i)
        step(a, ops);
    std::vector<unsigned char> mid = savedBytes(a);
    // Restore over other state: loading must reset, not merge.
    FastSlotReplacement b(policy, 4, groups, 99);
    Rng other(31);
    for (int i = 0; i < 300; ++i)
        step(b, other);
    Archive in(mid);
    b.serdeState(in);
    in.finish();
    ASSERT_EQ(savedBytes(b), mid) << toString(policy);
    Rng ops_b = ops;
    for (int i = 0; i < 3000; ++i) {
        ASSERT_EQ(step(a, ops), step(b, ops_b))
            << toString(policy) << " step " << i;
        if (i % 300 == 0) {
            ASSERT_EQ(savedBytes(a), savedBytes(b))
                << toString(policy) << " step " << i;
        }
    }
    EXPECT_EQ(savedBytes(a), savedBytes(b)) << toString(policy);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReplacementMidRunRestore,
    ::testing::Values(FastReplPolicy::Lru, FastReplPolicy::Random,
                      FastReplPolicy::Sequential,
                      FastReplPolicy::PseudoRandom),
    [](const auto &info) { return std::string(toString(info.param)); });

TEST(Replacement, TouchedTablesSaveNoMoreThanTheDenseForm)
{
    // The dense form saved each LRU stamp as 8 bytes and each cursor
    // as 1 byte; with every entry touched, the zero-run code is the
    // same length, and a single touch costs one value and one run.
    const std::uint64_t groups = 600;
    FastSlotReplacement lru(FastReplPolicy::Lru, 4, groups);
    const std::size_t empty = savedBytes(lru).size();
    lru.onFastAccess(groups - 1, 3);
    EXPECT_EQ(savedBytes(lru).size(), empty + 16);
    for (std::uint64_t g = 0; g < groups; ++g) {
        for (unsigned s = 0; s < 4; ++s)
            lru.onFastAccess(g, s);
    }
    EXPECT_EQ(savedBytes(lru).size(), empty + groups * 4 * 8);

    FastSlotReplacement seq(FastReplPolicy::Sequential, 4, groups);
    ASSERT_EQ(savedBytes(seq).size(), empty);
    for (std::uint64_t g = 0; g < groups; ++g)
        seq.chooseVictim(g);
    EXPECT_EQ(savedBytes(seq).size(), empty + groups);
}

TEST(Replacement, CursorsWithoutRoomForRunsRoundTrip)
{
    // 256 slots leave no byte value for a zero run: zeros are saved
    // as values, trailing ones dropped.
    FastSlotReplacement a(FastReplPolicy::Sequential, 256, 40);
    for (std::uint64_t g = 0; g < 40; g += 3) {
        for (std::uint64_t k = 0; k <= g; ++k)
            a.chooseVictim(g);
    }
    std::vector<unsigned char> bytes = savedBytes(a);
    FastSlotReplacement b(FastReplPolicy::Sequential, 256, 40);
    Archive in(bytes);
    b.serdeState(in);
    in.finish();
    EXPECT_EQ(savedBytes(b), bytes);
    for (std::uint64_t g = 0; g < 40; ++g)
        ASSERT_EQ(a.chooseVictim(g), b.chooseVictim(g)) << g;
}

TEST(Replacement, DeviceSizedStampsRoundTripAcrossUnwrittenPages)
{
    // Three stamps on three pages of a 32768-group table, with pages
    // nothing wrote between them: each stamp costs one zero run and
    // one value, as in the dense form's code.
    const std::uint64_t groups = 32768;
    FastSlotReplacement a(FastReplPolicy::Lru, 4, groups);
    const std::size_t empty = savedBytes(a).size();
    a.onFastAccess(0, 1);
    a.onFastAccess(20000, 3);
    a.onFastAccess(groups - 1, 2);
    const std::vector<unsigned char> bytes = savedBytes(a);
    EXPECT_EQ(bytes.size(), empty + 6 * 8);

    FastSlotReplacement b(FastReplPolicy::Lru, 4, groups);
    b.onFastAccess(7, 0); // the load replaces, not merges
    Archive in(bytes);
    b.serdeState(in);
    in.finish();
    EXPECT_EQ(savedBytes(b), bytes);
    for (std::uint64_t g : {std::uint64_t{0}, std::uint64_t{7},
                            std::uint64_t{20000}, groups - 1})
        ASSERT_EQ(a.chooseVictim(g), b.chooseVictim(g)) << g;
}

namespace
{

/** A Sequential "fastRepl" section for 4 slots with @p tokens as its
 *  cursor code. */
std::vector<unsigned char>
craftedCursors(std::uint64_t count, std::vector<std::uint8_t> tokens)
{
    Archive ar;
    ar.section("fastRepl");
    std::uint64_t stamp_counter = 0, global_counter = 0, no_stamps = 0;
    ar.io(stamp_counter);
    ar.io(global_counter);
    Rng(11).serdeState(ar);
    ar.io(no_stamps);
    ar.io(count);
    ar.blob(tokens.data(), tokens.size());
    ar.end();
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

/** Load @p bytes into a fresh Sequential instance over 10 groups. */
void
restoreCursors(const std::vector<unsigned char> &bytes)
{
    FastSlotReplacement r(FastReplPolicy::Sequential, 4, 10);
    Archive in(bytes);
    r.serdeState(in);
    in.finish();
}

} // namespace

TEST(ReplacementDeathTest, ZeroRunPastTheTableIsFatal)
{
    // Byte 3 is cursor 3; byte 3 + k is a run of k zero groups.
    restoreCursors(craftedCursors(2, {3 + 9, 1})); // ends at group 10
    EXPECT_DEATH(restoreCursors(craftedCursors(2, {3 + 10, 1})),
                 "fastRepl sequential cursors: the token at entry 10 "
                 "covers 1 entries, past the table's 10");
    EXPECT_DEATH(restoreCursors(craftedCursors(1, {3 + 11})),
                 "fastRepl sequential cursors: the token at entry 0 "
                 "covers 11 entries, past the table's 10");
}

TEST(ReplacementDeathTest, MoreTokensThanEntriesIsFatal)
{
    EXPECT_DEATH(restoreCursors(craftedCursors(11, std::vector<std::uint8_t>(
                                                       11, 1))),
                 "fastRepl sequential cursors: 11 tokens for 10 entries");
}
