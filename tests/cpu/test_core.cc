/**
 * @file
 * Tests for the ROB-window core model: IPC behaviour under ideal and
 * stalling memory, window limits and trace completion.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cpu/core.hh"

using namespace dasdram;

namespace
{

/** Memory that answers every load after a fixed tick latency. */
struct FixedLatencyMemory
{
    Cycle latency = 0;
    Cycle now = 0;
    Core *core = nullptr; ///< set after the core is constructed
    std::vector<std::pair<Cycle, unsigned>> pending{}; ///< (ready, slot)

    Core::MemAccessFn
    fn()
    {
        return [this](Addr, bool, unsigned slot) {
            if (slot != Core::kNoSlot)
                pending.emplace_back(now + latency, slot);
        };
    }

    void
    tick(Cycle t)
    {
        now = t;
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].first <= t) {
                core->completeLoad(pending[i].second,
                                   pending[i].first);
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }
    }
};

std::vector<TraceEntry>
uniformTrace(std::size_t n, std::uint32_t gap, std::uint32_t stride = 64)
{
    std::vector<TraceEntry> t;
    for (std::size_t i = 0; i < n; ++i)
        t.push_back({gap, static_cast<Addr>(i) * stride, false});
    return t;
}

} // namespace

TEST(Core, IdealMemoryReachesIssueWidthIpc)
{
    // All non-memory work: IPC should approach the 4-wide limit.
    VectorTraceSource trace(uniformTrace(1000, 99));
    FixedLatencyMemory mem;
    Core core(0, {}, trace, mem.fn());
    mem.core = &core;
    for (Cycle t = 0; !core.finished() && t < 10'000'000; t += kCpuTick) {
        mem.tick(t);
        core.tick(t);
    }
    EXPECT_TRUE(core.finished());
    EXPECT_GT(core.ipc(), 3.5);
    EXPECT_EQ(core.retired(), 1000u * 100);
}

TEST(Core, SlowMemoryReducesIpc)
{
    VectorTraceSource fast_trace(uniformTrace(500, 3));
    VectorTraceSource slow_trace(uniformTrace(500, 3));
    FixedLatencyMemory fast_mem{.latency = cpuCyclesToTicks(4)};
    FixedLatencyMemory slow_mem{.latency = cpuCyclesToTicks(400)};
    Core fast_core(0, {}, fast_trace, fast_mem.fn());
    Core slow_core(1, {}, slow_trace, slow_mem.fn());
    fast_mem.core = &fast_core;
    slow_mem.core = &slow_core;
    for (Cycle t = 0; t < 4'000'000; t += kCpuTick) {
        fast_mem.tick(t);
        slow_mem.tick(t);
        if (!fast_core.finished())
            fast_core.tick(t);
        if (!slow_core.finished())
            slow_core.tick(t);
    }
    ASSERT_TRUE(fast_core.finished());
    ASSERT_TRUE(slow_core.finished());
    EXPECT_GT(fast_core.ipc(), 2.0 * slow_core.ipc());
}

TEST(Core, WindowAllowsMemoryLevelParallelism)
{
    // With a 192-entry window and gap 3, many loads overlap: the core
    // must finish far faster than serialized loads would.
    const Cycle lat = cpuCyclesToTicks(100);
    VectorTraceSource trace(uniformTrace(400, 3));
    FixedLatencyMemory mem{.latency = lat};
    Core core(0, {}, trace, mem.fn());
    mem.core = &core;
    Cycle t = 0;
    for (; !core.finished() && t < 40'000'000; t += kCpuTick) {
        mem.tick(t);
        core.tick(t);
    }
    ASSERT_TRUE(core.finished());
    // Serialized: 400 × 100 cycles = 40000 cycles. Overlapped must be
    // at least 5× better.
    EXPECT_LT(core.cycles(), 8000u);
}

TEST(Core, StoresDoNotBlockRetirement)
{
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 200; ++i)
        entries.push_back({3, static_cast<Addr>(i) * 64, true});
    VectorTraceSource trace(entries);
    // Memory never answers: stores must still retire.
    Core core(0, {}, trace, [](Addr, bool, unsigned) {});
    for (Cycle t = 0; !core.finished() && t < 1'000'000; t += kCpuTick)
        core.tick(t);
    EXPECT_TRUE(core.finished());
    EXPECT_EQ(core.retired(), 200u * 4);
}

TEST(Core, UnansweredLoadStallsForever)
{
    VectorTraceSource trace(uniformTrace(10, 0));
    Core core(0, {}, trace, [](Addr, bool, unsigned) {});
    for (Cycle t = 0; t < 100000; t += kCpuTick)
        core.tick(t);
    EXPECT_FALSE(core.finished());
    EXPECT_EQ(core.retired(), 0u); // head load never completes
}

TEST(Core, ResetStatsClearsCountersOnly)
{
    VectorTraceSource trace(uniformTrace(1000, 10));
    FixedLatencyMemory mem;
    Core core(0, {}, trace, mem.fn());
    mem.core = &core;
    for (Cycle t = 0; t < 100 * kCpuTick; t += kCpuTick) {
        mem.tick(t);
        core.tick(t);
    }
    EXPECT_GT(core.retired(), 0u);
    core.stats().resetAll();
    EXPECT_EQ(core.retired(), 0u);
    EXPECT_EQ(core.cycles(), 0u);
    // Still able to continue executing.
    for (Cycle t = 100 * kCpuTick; t < 200 * kCpuTick; t += kCpuTick) {
        mem.tick(t);
        core.tick(t);
    }
    EXPECT_GT(core.retired(), 0u);
}

TEST(VectorTraceSource, LoopsWhenRequested)
{
    VectorTraceSource t({{1, 64, false}}, /*loop=*/true);
    TraceEntry e;
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(t.next(e));
}

TEST(VectorTraceSource, ResetRestarts)
{
    VectorTraceSource t({{1, 64, false}, {2, 128, true}});
    TraceEntry e;
    ASSERT_TRUE(t.next(e));
    ASSERT_TRUE(t.next(e));
    ASSERT_FALSE(t.next(e));
    t.reset();
    ASSERT_TRUE(t.next(e));
    EXPECT_EQ(e.addr, 64u);
}
