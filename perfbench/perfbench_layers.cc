/**
 * @file
 * Outside probes for the traced benchmark pass: each one times calls
 * into one layer's public functions, fed with the workload's own trace
 * streams, and reports host time per call. The memory-side probes
 * build a real System and call caches(), manager() and dram() directly,
 * so they exercise the production wiring (protocol checker, histograms)
 * without copying it. Prints one JSON object on stdout.
 *
 * The memory stream is the workload's trace filtered through the cache
 * hierarchy: every miss becomes a read, every LLC eviction a write. It
 * is replayed into the DAS manager and the DRAM system at one access
 * per kGapCycles CPU cycles, with the clock advanced one CPU cycle at a
 * time as the tick engine does.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "perfbench_common.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

using namespace dasdram;
using perfbench::Built;
using perfbench::build;

namespace
{

using Clock = std::chrono::steady_clock;

/** CPU cycles between two accesses replayed into the memory side. */
constexpr Cycle kGapCycles = 16;
/** Load latency of the stub memory behind the core probe. */
constexpr Cycle kStubLatencyCycles = 100;
/** Instructions run before the snapshot probe saves its state. */
constexpr InstCount kSnapshotInstructions = 200'000;
/** Trace records fed to the workload, cache and memory-side probes,
 *  shared out over the workload's profiles and cores. */
constexpr std::uint64_t kRecords = 600'000;
/** Cycles of the core probe, shared out over the profiles. */
constexpr std::uint64_t kCpuCycles = 1'000'000;
/** The probes time the DAS side, so they run the DAS design. */
constexpr DesignKind kDesign = DesignKind::Das;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/**
 * Timestamp for single calls of a few nanoseconds: the fenced TSC where
 * there is one (reading the OS clock costs more than the calls timed
 * and lets them overlap the read), else steady_clock nanoseconds.
 */
std::uint64_t
stamp()
{
#if defined(__x86_64__)
    _mm_lfence();
    std::uint64_t t = __rdtsc();
    _mm_lfence();
    return t;
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
#endif
}

/** Nanoseconds per stamp() unit, calibrated against steady_clock. */
double
stampNs()
{
    auto t0 = Clock::now();
    std::uint64_t s0 = stamp();
    while (nsSince(t0) < 2e7) {
    }
    return nsSince(t0) / static_cast<double>(stamp() - s0);
}

/** Cost of two back-to-back stamps (mean of the middle half of the
 *  samples, in stamp units), subtracted from every timed call. */
double
stampOverhead()
{
    std::vector<double> v;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t s0 = stamp();
        v.push_back(static_cast<double>(stamp() - s0));
    }
    std::sort(v.begin(), v.end());
    double sum = 0.0;
    for (std::size_t i = 1000; i < 3000; ++i)
        sum += v[i];
    return sum / 2000.0;
}

const double kStampNs = stampNs();
const double kOverheadNs = stampOverhead() * kStampNs;

template <typename F>
double
timeCall(F &&f)
{
    std::uint64_t s0 = stamp();
    f();
    return static_cast<double>(stamp() - s0) * kStampNs - kOverheadNs;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

/** Accumulated time and call count of one timed function. */
struct Timer
{
    double ns = 0.0;
    std::uint64_t calls = 0;

    template <typename F>
    void
    add(F &&f)
    {
        ns += timeCall(std::forward<F>(f));
        ++calls;
    }

    double
    perCall() const
    {
        return calls ? ns / static_cast<double>(calls) : 0.0;
    }
};

/** One simulation the workload runs: its spec and exact config. */
struct Part
{
    WorkloadSpec spec;
    SimConfig cfg;
};

std::vector<std::unique_ptr<TraceSource>>
streams(const Part &p)
{
    return buildTraces(p.spec, p.cfg.seed, p.cfg.geom.rowBytes,
                       p.cfg.geom.lineBytes);
}

struct MemOp
{
    Addr line = 0;
    bool isWrite = false;
    int core = 0;
};

struct Results
{
    Timer next, tick, fill, dasAccess, dasTick, tcLookup, tableSwap;
    Timer submit, dramTick, nextWake;
    std::vector<double> access;
    std::uint64_t memCycles = 0;
    std::vector<double> construct;
    double profileS = 0.0, saveS = 0.0, loadS = 0.0, snapBytes = 0.0;
    std::uint64_t sink = 0; ///< keeps generated values observable
};

void
driveWorkload(const Part &p, std::uint64_t records, Results &r)
{
    auto tr = streams(p);
    TraceEntry e;
    for (auto &src : tr) {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < records; ++i) {
            src->next(e);
            r.sink += e.addr;
        }
        r.next.ns += nsSince(t0);
        r.next.calls += records;
    }
}

void
driveCpu(const Part &p, std::uint64_t cycles, Results &r)
{
    auto tr = streams(p);
    for (unsigned c = 0; c < tr.size(); ++c) {
        Cycle now = 0;
        std::deque<std::pair<Cycle, unsigned>> due;
        Core core(static_cast<int>(c), p.cfg.core, *tr[c],
                  [&](Addr, bool, unsigned slot) {
                      if (slot != Core::kNoSlot)
                          due.emplace_back(
                              now + kStubLatencyCycles * kCpuTick, slot);
                  });
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < cycles; ++i) {
            now += kCpuTick;
            while (!due.empty() && due.front().first <= now) {
                core.completeLoad(due.front().second, due.front().first);
                due.pop_front();
            }
            core.tick(now);
        }
        r.tick.ns += nsSince(t0);
        r.tick.calls += cycles;
        r.sink += core.retired();
    }
}

/** Cache lookups and fills; returns the memory stream below the LLC. */
std::vector<MemOp>
driveCache(const Part &p, std::uint64_t records, Results &r)
{
    Built b = build(p.spec, p.cfg);
    CacheHierarchy &caches = b.sys->caches();
    auto tr = streams(p);
    std::vector<MemOp> ops;
    int cur = 0;
    CacheHierarchy::WritebackSink wb = [&](Addr line) {
        ops.push_back({line, true, cur});
    };
    TraceEntry e;
    for (std::uint64_t i = 0; i < records; ++i) {
        for (unsigned c = 0; c < tr.size(); ++c) {
            cur = static_cast<int>(c);
            tr[c]->next(e);
            Addr addr = e.addr + p.cfg.coreBase(c);
            CacheAccessResult res;
            r.access.push_back(timeCall(
                [&] { res = caches.access(c, addr, e.isWrite, wb); }));
            if (res.level != HitLevel::Miss)
                continue;
            ops.push_back({res.lineAddr, false, cur});
            r.fill.add([&] { caches.fill(c, res.lineAddr, e.isWrite, wb); });
        }
    }
    return ops;
}

GlobalRowId
logicalRow(const DramSystem &dram, Addr line)
{
    DramLoc loc = dram.decode(line);
    return makeGlobalRowId(dram.geometry(), loc.channel, loc.rank,
                           loc.bank, loc.row);
}

/** DAS manager and DRAM clock, driven as System's tick loop does. */
void
driveDas(const Part &p, const std::vector<MemOp> &ops, Results &r)
{
    Built b = build(p.spec, p.cfg);
    DasManager &das = b.sys->manager();
    DramSystem &dram = b.sys->dram();
    Cycle now = 0;
    Cycle wake = 0;
    for (const MemOp &op : ops) {
        Cycle until = now + kGapCycles * kCpuTick;
        for (Cycle t = now + kCpuTick; t <= until; t += kCpuTick) {
            r.dasTick.add([&] { das.tick(t); });
            r.dramTick.add([&] { dram.tick(t); });
            r.nextWake.add([&] { wake = dram.nextWakeTick(t); });
        }
        now = until;
        r.dasAccess.add([&] {
            das.access(op.line, op.isWrite, op.core, Continuation{}, now);
        });
    }
    r.memCycles += now / kMemTick;
    r.sink += wake;
}

/** Translation cache and table on the stream's logical rows. */
void
driveTranslation(const Part &p, const std::vector<MemOp> &ops, Results &r)
{
    Built b = build(p.spec, p.cfg);
    std::vector<GlobalRowId> rows;
    for (const MemOp &op : ops)
        rows.push_back(logicalRow(b.sys->dram(), op.line));

    TranslationCache tc(p.cfg.das.translationCacheBytes,
                        p.cfg.das.translationCacheAssoc);
    auto t0 = Clock::now();
    for (GlobalRowId row : rows)
        if (!tc.lookup(row))
            tc.insert(row);
    r.tcLookup.ns += nsSince(t0);
    r.tcLookup.calls += rows.size();

    TranslationTable &table = b.sys->manager().table();
    const GlobalRowId g = p.cfg.layout.groupSize;
    t0 = Clock::now();
    for (GlobalRowId row : rows)
        table.swap(row, row - row % g + (row + 1) % g);
    r.tableSwap.ns += nsSince(t0);
    r.tableSwap.calls += rows.size();
    r.sink += table.swapCount() + tc.hits();
}

/** Direct DramSystem::submit of the stream (no translation). */
void
driveSubmit(const Part &p, const std::vector<MemOp> &ops, Results &r)
{
    Built b = build(p.spec, p.cfg);
    DramSystem &dram = b.sys->dram();
    Cycle now = 0;
    std::uint64_t id = 1ULL << 40;
    for (const MemOp &op : ops) {
        DramLoc loc = dram.decode(op.line);
        while (!dram.canAccept(loc, op.isWrite)) {
            now += kCpuTick;
            dram.tick(now);
        }
        auto req = std::make_unique<MemRequest>(op.line, op.isWrite, op.core);
        req->id = id++;
        req->loc = loc;
        req->logicalRow = logicalRow(dram, op.line);
        req->arrivalTick = now;
        req->readyTick = now;
        r.submit.add([&] { dram.submit(std::move(req), now); });
        now += kGapCycles * kCpuTick;
        dram.tick(now);
    }
}

void
driveSim(const Part &p, const std::string &work, Results &r)
{
    for (int i = 0; i < 5; ++i) {
        auto t0 = Clock::now();
        Built b = build(p.spec, p.cfg);
        r.construct.push_back(nsSince(t0) * 1e-9);
    }

    SimConfig cfg = p.cfg;
    cfg.instructionsPerCore =
        std::min(cfg.instructionsPerCore, kSnapshotInstructions);
    const std::string path = work + "/layers.ckpt";
    Built src = build(p.spec, cfg);
    src.sys->run();
    r.saveS += timeCall([&] { src.sys->saveSnapshot(path); }) * 1e-9;
    Built dst = build(p.spec, cfg);
    r.loadS += timeCall([&] { dst.sys->loadSnapshot(path); }) * 1e-9;
    r.snapBytes += static_cast<double>(std::filesystem::file_size(path));
    std::filesystem::remove(path);
}

void
driveProfile(const Part &p, Results &r)
{
    Built b = build(p.spec, p.cfg);
    auto t0 = Clock::now();
    perfbench::staticProfile(b);
    r.profileS += nsSince(t0) * 1e-9;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("perfbench_layers",
                  "time each simulator layer's public calls from outside");
    cli.option("--spec", "SPEC", "workload spec of a single run (e.g. mcf, M1)")
        .flag("--sweep", "drive every profile of the Figure 7 grid")
        .optionUInt("--instructions", "N", "instructions per core")
        .optionUInt("--seed", "N", "workload seed")
        .option("--work-dir", "DIR", "existing directory for temporary files");
    cli.parse(argc, argv);

    const std::string work = cli.str("--work-dir");
    if (work.empty() || !std::filesystem::is_directory(work))
        fatal("--work-dir must name an existing directory");
    if (cli.given("--sweep") == cli.given("--spec"))
        fatal("give exactly one of --spec and --sweep");
    if (!cli.given("--instructions") || !cli.given("--seed"))
        fatal("--instructions and --seed are required");

    SimConfig base;
    base.design = kDesign;
    base.instructionsPerCore = cli.uns("--instructions", 0);
    base.seed = cli.uns("--seed", 0);

    std::vector<Part> parts;
    if (cli.given("--sweep")) {
        for (const std::string &bench : specBenchmarks()) {
            Part p{WorkloadSpec::single(bench), base};
            p.cfg.seed = SweepRunner::pointSeed(base.seed, bench,
                                                base.design);
            parts.push_back(p);
        }
    } else {
        parts.push_back({WorkloadSpec::parse(cli.str("--spec")), base});
    }
    for (Part &p : parts) {
        p.cfg.numCores = p.spec.numCores();
        p.cfg.obs.workloadName = p.spec.name;
    }

    Results r;
    for (const Part &p : parts) {
        std::uint64_t n = std::max<std::uint64_t>(
            1, kRecords / parts.size() / p.spec.numCores());
        driveWorkload(p, n, r);
        driveCpu(p, std::max<std::uint64_t>(1, kCpuCycles / parts.size()), r);
        std::vector<MemOp> ops = driveCache(p, n, r);
        driveDas(p, ops, r);
        driveTranslation(p, ops, r);
        driveSubmit(p, ops, r);
        driveSim(p, work, r);
        driveProfile(p, r);
    }

    const double n_parts = static_cast<double>(parts.size());
    JsonWriter j;
    j.beginObject()
        .field("workload.next_ns", r.next.perCall())
        .field("cpu.tick_ns", r.tick.perCall())
        .field("cache.access_ns_p50", percentile(r.access, 0.50))
        .field("cache.access_ns_p99", percentile(r.access, 0.99))
        .field("cache.fill_ns", r.fill.perCall())
        .field("core.das_access_ns", r.dasAccess.perCall())
        .field("core.das_tick_ns", r.dasTick.perCall())
        .field("core.tc_lookup_ns", r.tcLookup.perCall())
        .field("core.table_swap_ns", r.tableSwap.perCall())
        .field("core.profile_s", r.profileS)
        .field("dram.submit_ns", r.submit.perCall())
        .field("dram.tick_ns",
               r.memCycles ? r.dramTick.ns / static_cast<double>(r.memCycles)
                           : 0.0)
        .field("dram.next_wake_ns", r.nextWake.perCall())
        .field("sim.construct_s", percentile(r.construct, 0.5))
        .field("sim.snapshot_save_s", r.saveS / n_parts)
        .field("sim.snapshot_load_s", r.loadS / n_parts)
        .field("sim.snapshot_mib", r.snapBytes / n_parts / (1024.0 * 1024.0))
        .field("sink", r.sink)
        .endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}
