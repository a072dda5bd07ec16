/**
 * @file
 * Unit tests for the MSHR file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cache/mshr.hh"
#include "common/random.hh"

using namespace dasdram;

TEST(Mshr, AllocateAndComplete)
{
    MshrFile m(4);
    EXPECT_FALSE(m.outstanding(0x100));
    m.allocate(0x100);
    EXPECT_TRUE(m.outstanding(0x100));
    int fired = 0;
    m.setDispatcher([&](const Continuation &c, Addr line, Cycle at) {
        EXPECT_EQ(c.kind, Continuation::Kind::CoreLoad);
        EXPECT_EQ(c.slot, 7u);
        EXPECT_EQ(line, 0x100u);
        EXPECT_EQ(at, 77u);
        ++fired;
    });
    m.addWaiter(0x100, Continuation::coreLoad(0, 7));
    m.complete(0x100, 77);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(m.outstanding(0x100));
}

TEST(Mshr, MultipleWaitersAllFire)
{
    MshrFile m(4);
    m.allocate(0x40);
    int fired = 0;
    m.setDispatcher(
        [&](const Continuation &, Addr, Cycle) { ++fired; });
    for (unsigned i = 0; i < 5; ++i)
        m.addWaiter(0x40, Continuation::coreLoad(0, i));
    m.complete(0x40, 1);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(m.coalesced(), 5u);
}

TEST(Mshr, CapacityEnforced)
{
    MshrFile m(2);
    m.allocate(0x0);
    EXPECT_FALSE(m.full());
    m.allocate(0x40);
    EXPECT_TRUE(m.full());
    m.complete(0x0, 1);
    EXPECT_FALSE(m.full());
}

TEST(Mshr, AllocationsCounted)
{
    MshrFile m(8);
    m.allocate(0);
    m.allocate(64);
    m.complete(0, 1);
    m.allocate(128);
    EXPECT_EQ(m.allocations(), 3u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(MshrDeathTest, DoubleAllocatePanics)
{
    MshrFile m(4);
    m.allocate(0x100);
    EXPECT_DEATH(m.allocate(0x100), "already outstanding");
}

TEST(MshrDeathTest, ZeroCapacityIsFatal)
{
    // With no entry every miss would wait for a free one forever.
    EXPECT_DEATH(MshrFile(0, "l1mshr"),
                 "MSHR file 'l1mshr' has no entries \\(mshrsPerCore must "
                 "be at least 1\\)");
}

TEST(MshrDeathTest, CompleteWithoutEntryPanics)
{
    MshrFile m(4);
    EXPECT_DEATH(m.complete(0x100, 0), "without outstanding");
}

namespace
{

/** One dispatched waiter: (token, line, tick). */
using Fired = std::tuple<Continuation::Kind, std::uint32_t, std::uint32_t,
                         Addr, Cycle>;

Fired
fired(const Continuation &c, Addr line, Cycle at)
{
    return {c.kind, c.core, c.slot, line, at};
}

/**
 * The MSHR file as an unordered_map from line to waiter vector, the
 * container MshrFile used before its fixed slots, kept as the
 * reference model. Its snapshot sorts entries by line, so the two
 * payloads must match byte for byte.
 */
class RefMshr
{
  public:
    explicit RefMshr(unsigned capacity) : capacity_(capacity) {}

    bool outstanding(Addr line) const { return entries_.count(line) != 0; }
    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }

    void allocate(Addr line) { entries_.try_emplace(line); }
    void addWaiter(Addr line, Continuation w)
    {
        entries_.at(line).push_back(w);
    }

    void
    complete(Addr line, Cycle tick, std::vector<Fired> &out)
    {
        auto it = entries_.find(line);
        std::vector<Continuation> waiters = std::move(it->second);
        entries_.erase(it);
        for (const Continuation &w : waiters)
            out.push_back(fired(w, line, tick));
    }

    void
    serdeState(Archive &ar)
    {
        ar.section("mshr");
        std::uint64_t n = entries_.size();
        ar.ioCount(n);
        std::vector<Addr> lines;
        for (const auto &kv : entries_)
            lines.push_back(kv.first);
        std::sort(lines.begin(), lines.end());
        for (Addr line : lines) {
            ar.io(line);
            auto &waiters = entries_.at(line);
            std::uint64_t w = waiters.size();
            ar.ioCount(w);
            for (Continuation &c : waiters)
                c.serdeState(ar);
        }
        ar.end();
    }

  private:
    unsigned capacity_;
    std::unordered_map<Addr, std::vector<Continuation>> entries_;
};

template <typename T>
std::vector<unsigned char>
savedBytes(T &m)
{
    Archive ar;
    m.serdeState(ar);
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

} // namespace

TEST(Mshr, SeededOpsMatchReferenceModel)
{
    for (unsigned capacity : {1u, 4u, 32u, 128u}) {
        MshrFile dut(capacity);
        RefMshr ref(capacity);
        std::vector<Fired> dut_fired, ref_fired;
        dut.setDispatcher([&](const Continuation &c, Addr line, Cycle at) {
            dut_fired.push_back(fired(c, line, at));
        });
        Rng ops(capacity);
        // A line pool twice the capacity keeps the file near full, so
        // index probe runs grow, collide and shrink under deletion.
        const std::uint64_t pool = 2 * capacity + 1;
        for (int i = 0; i < 40000; ++i) {
            Addr line = ops.nextBelow(pool) * 64;
            ASSERT_EQ(dut.outstanding(line), ref.outstanding(line)) << i;
            ASSERT_EQ(dut.full(), ref.full()) << i;
            ASSERT_EQ(dut.size(), ref.size()) << i;
            if (!ref.outstanding(line)) {
                if (!ref.full()) {
                    dut.allocate(line);
                    ref.allocate(line);
                }
            } else if (ops.chance(0.6)) {
                Continuation w =
                    ops.chance(0.5)
                        ? Continuation::coreLoad(
                              static_cast<std::uint32_t>(ops.nextBelow(4)),
                              static_cast<std::uint32_t>(ops.nextBelow(192)))
                        : Continuation{};
                dut.addWaiter(line, w);
                ref.addWaiter(line, w);
            } else {
                dut.complete(line, static_cast<Cycle>(i));
                ref.complete(line, static_cast<Cycle>(i), ref_fired);
                ASSERT_EQ(dut_fired, ref_fired) << "complete " << i;
            }
            if (i == 20000) {
                ASSERT_EQ(savedBytes(dut), savedBytes(ref));
            }
        }
        EXPECT_EQ(savedBytes(dut), savedBytes(ref)) << capacity;
    }
}

TEST(Mshr, WaiterMayReallocateDuringDispatch)
{
    MshrFile m(1);
    std::vector<Addr> order;
    m.setDispatcher([&](const Continuation &c, Addr line, Cycle) {
        order.push_back(line);
        // The completed entry is already gone: its slot is free.
        if (c.slot == 0) {
            EXPECT_FALSE(m.outstanding(line));
            m.allocate(0x80);
            m.addWaiter(0x80, Continuation::coreLoad(0, 9));
        }
    });
    m.allocate(0x40);
    m.addWaiter(0x40, Continuation::coreLoad(0, 0));
    m.addWaiter(0x40, Continuation::coreLoad(0, 1));
    m.complete(0x40, 5);
    EXPECT_EQ(order, (std::vector<Addr>{0x40, 0x40}));
    EXPECT_TRUE(m.outstanding(0x80));
    EXPECT_EQ(m.waiterCount(), 1u);
    m.complete(0x80, 6);
    EXPECT_EQ(order.back(), 0x80u);
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, SaveLoadSaveRoundTripsWaiters)
{
    MshrFile a(8);
    for (Addr line : {0x400u, 0x40u, 0x1000u}) {
        a.allocate(line);
        for (std::uint32_t w = 0; w < 3; ++w)
            a.addWaiter(line, Continuation::coreLoad(1, w));
    }
    a.addWaiter(0x40, Continuation{});
    std::vector<unsigned char> first = savedBytes(a);
    MshrFile b(8);
    Archive in(first);
    b.serdeState(in);
    in.finish();
    EXPECT_EQ(savedBytes(b), first);
    EXPECT_EQ(b.size(), 3u);
    EXPECT_EQ(b.waiterCount(), 10u);

    std::vector<Fired> fa, fb;
    a.setDispatcher([&](const Continuation &c, Addr l, Cycle t) {
        fa.push_back(fired(c, l, t));
    });
    b.setDispatcher([&](const Continuation &c, Addr l, Cycle t) {
        fb.push_back(fired(c, l, t));
    });
    for (Addr line : {0x40u, 0x1000u, 0x400u}) {
        a.complete(line, 3);
        b.complete(line, 3);
    }
    EXPECT_EQ(fa, fb);
    EXPECT_EQ(fa.size(), 10u);
}

namespace
{

/** A crafted "mshr" section holding @p lines, one waiter each. */
std::vector<unsigned char>
craftedMshr(const std::vector<Addr> &lines)
{
    Archive ar;
    ar.section("mshr");
    std::uint64_t n = lines.size();
    ar.ioCount(n);
    for (Addr line : lines) {
        Addr l = line;
        ar.io(l);
        std::uint64_t w = 1;
        ar.ioCount(w);
        Continuation c = Continuation::coreLoad(0, 1);
        c.serdeState(ar);
    }
    ar.end();
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

} // namespace

TEST(MshrDeathTest, RestoreOverCapacityIsFatal)
{
    MshrFile m(2);
    std::vector<unsigned char> bytes = craftedMshr({0x0, 0x40, 0x80});
    Archive in(bytes);
    EXPECT_DEATH(m.serdeState(in),
                 "MSHR file 'mshr' holds 3 entries, over its capacity of 2");
}

TEST(MshrDeathTest, RestoreRepeatedLineIsFatal)
{
    MshrFile m(4);
    std::vector<unsigned char> bytes = craftedMshr({0x40, 0x40});
    Archive in(bytes);
    EXPECT_DEATH(m.serdeState(in), "MSHR file 'mshr' repeats line 40");
}
