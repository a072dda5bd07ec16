/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * address decode, translation table/cache operations, cache lookups,
 * trace generation, raw DRAM command throughput and the set-up of a
 * whole System. These guard the
 * simulator's own performance (it must sustain millions of memory
 * operations per second to make the figure sweeps practical).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "cache/cache.hh"
#include "core/translation_cache.hh"
#include "core/translation_table.hh"
#include "dram/address_mapping.hh"
#include "dram/controller.hh"
#include "sim/system.hh"
#include "workload/synth_trace.hh"
#include "workload/workload_spec.hh"

using namespace dasdram;

static void
BM_AddressDecode(benchmark::State &state)
{
    DramGeometry g;
    AddressMapper m(g);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.decode(a));
        a += 64 * 1021;
    }
}
BENCHMARK(BM_AddressDecode);

static void
BM_TranslationTableLookup(benchmark::State &state)
{
    DramGeometry g;
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    GlobalRowId r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.physicalOf(r));
        r = (r + 12345) % g.totalRows();
    }
}
BENCHMARK(BM_TranslationTableLookup);

static void
BM_TranslationTableSwap(benchmark::State &state)
{
    DramGeometry g;
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    std::uint64_t i = 0;
    for (auto _ : state) {
        std::uint64_t grp = i % l.totalGroups();
        t.swap(grp * 32 + (i % 32), grp * 32 + ((i * 7) % 32));
        ++i;
    }
}
BENCHMARK(BM_TranslationTableSwap);

static void
BM_SystemConstruct(benchmark::State &state)
{
    // What every run pays before its first cycle: a mcf DAS System
    // with its traces, built as perfbench's setup_s builds it, then
    // destroyed.
    const WorkloadSpec w = WorkloadSpec::single("mcf");
    SimConfig cfg;
    cfg.design = DesignKind::Das;
    cfg.numCores = w.numCores();
    cfg.obs.workloadName = w.name;
    for (auto _ : state) {
        auto traces = buildTraces(w, cfg.seed, cfg.geom.rowBytes,
                                  cfg.geom.lineBytes);
        std::vector<TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        auto sys = std::make_unique<System>(cfg, ptrs);
        benchmark::DoNotOptimize(sys.get());
    }
}
BENCHMARK(BM_SystemConstruct);

static void
BM_TranslationCacheLookup(benchmark::State &state)
{
    TranslationCache tc(static_cast<std::uint64_t>(state.range(0)), 8);
    for (GlobalRowId r = 0; r < 10000; ++r)
        tc.insert(r);
    GlobalRowId r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tc.lookup(r % 20000));
        r += 37;
    }
}
BENCHMARK(BM_TranslationCacheLookup)
    ->Arg(32 * 1024)
    ->Arg(128 * 1024)
    ->Arg(256 * 1024);

static void
BM_TranslationCacheInsert(benchmark::State &state)
{
    // The default 128 KB tag cache fed four times its capacity in
    // rows, so nearly every insert misses and replaces an LRU entry.
    const std::uint64_t entries = 128 * 1024;
    TranslationCache tc(entries, 8);
    GlobalRowId r = 0;
    for (auto _ : state) {
        tc.insert(r);
        r = (r + 1) % (4 * entries);
    }
    benchmark::DoNotOptimize(tc.probe(0));
}
BENCHMARK(BM_TranslationCacheInsert);

static void
BM_CacheAccess(benchmark::State &state)
{
    Cache c({4 * MiB, 8, 64}, "llc");
    for (Addr a = 0; a < 4 * MiB; a += 64)
        c.insert(a, false);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a, false));
        a = (a + 64 * 999) % (8 * MiB);
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_CacheFill(benchmark::State &state)
{
    // LRU insert with eviction: a full LLC streams twice its capacity,
    // so every insert misses and evicts its set's oldest line.
    Cache c({4 * MiB, 8, 64}, "llc");
    for (Addr a = 0; a < 4 * MiB; a += 64)
        c.insert(a, false);
    Addr a = 4 * MiB;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.insert(a, false));
        a = (a + 64) % (8 * MiB);
    }
}
BENCHMARK(BM_CacheFill);

static void
BM_SyntheticTraceGeneration(benchmark::State &state)
{
    SyntheticTrace t(specProfile("mcf"), 42);
    TraceEntry e;
    for (auto _ : state) {
        t.next(e);
        benchmark::DoNotOptimize(e.addr);
    }
}
BENCHMARK(BM_SyntheticTraceGeneration);

static void
BM_ControllerRowHitThroughput(benchmark::State &state)
{
    DramGeometry g;
    DramTiming t = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    ControllerConfig cfg;
    cfg.refreshEnabled = false;
    auto ctrl = std::make_unique<ChannelController>(0, g, t, cls, cfg);
    Cycle now = 0;
    std::uint64_t col = 0;
    for (auto _ : state) {
        if (ctrl->canAccept(false)) {
            auto req = std::make_unique<MemRequest>(col * 64, false, 0);
            req->loc = DramLoc{0, 0, 0, 7, col % 128};
            ctrl->enqueue(std::move(req), now);
            ++col;
        }
        ctrl->tick(now++);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ctrl->readCount()));
}
BENCHMARK(BM_ControllerRowHitThroughput);

BENCHMARK_MAIN();
