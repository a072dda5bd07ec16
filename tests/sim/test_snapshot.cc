/**
 * @file
 * Snapshot/restore integration tests: failure modes of the versioned
 * checkpoint envelope (truncation, wrong magic, older or newer
 * version, a corrupt payload, config-fingerprint mismatch, lengths
 * and counts near 2^64 behind a valid checksum), restore-time
 * validation of component state (ROB cursors, footprint rows, the
 * miss-queue order) and the bit-identity guarantee — a run restored
 * from a mid-run checkpoint must reproduce the straight run's stats
 * exactly, including mid-epoch EpochSeries alignment and a four-core
 * mix with fills and miss events in flight — and the size of a
 * warm-up snapshot, which holds live state only.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/binfmt.hh"
#include "common/serde.hh"
#include "cpu/core.hh"
#include "metrics_equal.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/workload_spec.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

using namespace dasdram;

namespace
{

SimConfig
snapConfig(DesignKind design = DesignKind::Das)
{
    SimConfig cfg;
    cfg.design = design;
    cfg.instructionsPerCore = 120'000;
    cfg.warmupFraction = 0.2;
    return cfg;
}

BenchmarkProfile
snapProfile()
{
    BenchmarkProfile p = specProfile("omnetpp");
    p.footprintMiB = 64;
    p.workingSetPages = 400;
    p.phaseInstructions = 40'000;
    return p;
}

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** The complete stats-JSONL dump of a finished system, as a string. */
std::string
statsDump(const System &sys)
{
    std::ostringstream os;
    sys.writeStatsJsonl(os);
    return os.str();
}

std::vector<char>
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Write @p ar's payload as a checkpoint whose envelope and config
 *  fingerprint are valid, so only the serde layer can refuse it. */
void
writeCraftedCheckpoint(const std::string &path, Archive &ar)
{
    std::string err = binfmt::writeEnvelopeFile(
        path, System::kSnapshotMagic, System::kSnapshotVersion,
        ar.payload());
    ASSERT_TRUE(err.empty()) << err;
}

/** Run straight through, writing a checkpoint at @p tick on the way. */
std::string
runWithCheckpoint(const SimConfig &cfg, Cycle tick,
                  const std::string &path)
{
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    sys.scheduleCheckpoint(tick, path);
    sys.run();
    return statsDump(sys);
}

/** Restore @p path into a fresh system and run it to completion. */
std::string
runRestored(const SimConfig &cfg, const std::string &path)
{
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    sys.loadSnapshot(path);
    sys.run();
    return statsDump(sys);
}

/** A "core" section for a @p rob-slot window with the given cursors. */
std::vector<unsigned char>
craftedCore(unsigned rob, unsigned head, unsigned tail, unsigned count)
{
    Archive ar;
    ar.section("core");
    ar.expectCount(rob, "ROB slots");
    for (unsigned i = 0; i < rob; ++i) {
        bool is_mem = false, is_load = false, done = true;
        Cycle done_at = 0;
        ar.io(is_mem);
        ar.io(is_load);
        ar.io(done);
        ar.io(done_at);
    }
    ar.io(head);
    ar.io(tail);
    ar.io(count);
    TraceEntry pending{};
    std::uint32_t gap_left = 0;
    bool have_pending = false, trace_done = false;
    ar.io(pending.gap);
    ar.io(pending.addr);
    ar.io(pending.isWrite);
    ar.io(gap_left);
    ar.io(have_pending);
    ar.io(trace_done);
    ar.end();
    auto p = ar.payload();
    return {p.begin(), p.end()};
}

/** Load @p bytes into a fresh 8-slot core. */
void
restoreCore(const std::vector<unsigned char> &bytes)
{
    VectorTraceSource trace({});
    Core core(3, CoreConfig{4, 8}, trace, [](Addr, bool, unsigned) {});
    Archive in(bytes);
    core.serdeState(in);
}

} // namespace

TEST(SnapshotDeathTest, TruncatedFileIsFatal)
{
    std::string path = tmpPath("snap_trunc.ckpt");
    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    sys.saveSnapshot(path);

    // Chop the file mid-payload: the envelope's length framing must
    // catch it before the serde layer sees a single byte.
    std::vector<char> bytes = readBytes(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes.resize(bytes.size() / 2);
    writeBytes(path, bytes);

    SyntheticTrace t2(snapProfile(), 1);
    System fresh(cfg, {&t2});
    EXPECT_DEATH(fresh.loadSnapshot(path), "truncated checkpoint");
}

TEST(SnapshotDeathTest, CorruptPayloadIsFatal)
{
    std::string path = tmpPath("snap_corrupt.ckpt");
    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    sys.saveSnapshot(path);

    // One flipped bit in the middle of the payload: length and magic
    // still frame the file, only the checksum can tell.
    std::vector<char> bytes = readBytes(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x10;
    writeBytes(path, bytes);

    SyntheticTrace t2(snapProfile(), 1);
    System fresh(cfg, {&t2});
    EXPECT_DEATH(fresh.loadSnapshot(path),
                 "corrupt checkpoint: checksum mismatch");
    std::remove(path.c_str());
}

TEST(SnapshotDeathTest, HugeStringLengthIsFatal)
{
    // The first thing after the fingerprint is the "system" section's
    // name: claim a length near 2^64 for it.
    std::string path = tmpPath("snap_huge_string.ckpt");
    SimConfig cfg = snapConfig();
    Archive ar;
    std::uint64_t fp = configFingerprint(cfg);
    ar.io(fp);
    std::uint64_t name_len = 0xFFFFFFFFFFFFFFF8ull;
    ar.io(name_len);
    writeCraftedCheckpoint(path, ar);

    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path),
                 "snapshot stream truncated mid-string");
    std::remove(path.c_str());
}

TEST(SnapshotDeathTest, HugeVectorCountIsFatal)
{
    // A well-formed start of System::serdeState whose pending-event
    // count is near 2^64.
    std::string path = tmpPath("snap_huge_count.ckpt");
    SimConfig cfg = snapConfig();
    Archive ar;
    std::uint64_t fp = configFingerprint(cfg);
    ar.io(fp);
    ar.section("system");
    std::uint64_t now = 0, event_seq = 0, warm_stamp = 0;
    bool warm = false;
    ar.io(now);
    ar.io(event_seq);
    ar.io(warm);
    ar.io(warm_stamp);
    std::uint64_t n_events = 0xFFFFFFFFFFFFFFF8ull;
    ar.io(n_events);
    ar.end();
    writeCraftedCheckpoint(path, ar);

    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path),
                 "snapshot stream truncated mid-container");
    std::remove(path.c_str());
}

TEST(SnapshotDeathTest, WrongMagicIsFatal)
{
    std::string path = tmpPath("snap_magic.ckpt");
    // A well-formed envelope of the wrong kind (a stats file, say)
    // must be rejected by magic, not parsed as state.
    std::string err = binfmt::writeEnvelopeFile(
        path, 0x12345678u, 1, std::vector<unsigned char>{1, 2, 3});
    ASSERT_TRUE(err.empty()) << err;

    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path), "bad magic");
}

TEST(SnapshotDeathTest, FutureVersionIsFatal)
{
    std::string path = tmpPath("snap_future.ckpt");
    std::string err = binfmt::writeEnvelopeFile(
        path, System::kSnapshotMagic,
        static_cast<std::uint16_t>(System::kSnapshotVersion + 1),
        std::vector<unsigned char>{1, 2, 3});
    ASSERT_TRUE(err.empty()) << err;

    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path), "newer than this build");
}

TEST(SnapshotDeathTest, OlderVersionIsFatal)
{
    // Version 9 still saved 64-bit cache and tag-cache stamps.
    std::string path = tmpPath("snap_older.ckpt");
    std::string err = binfmt::writeEnvelopeFile(
        path, System::kSnapshotMagic, std::uint16_t{9},
        std::vector<unsigned char>{1, 2, 3});
    ASSERT_TRUE(err.empty()) << err;

    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path),
                 "version 9 comes from an older build; re-create it");
}

TEST(SnapshotDeathTest, ConfigFingerprintMismatchIsFatal)
{
    std::string path = tmpPath("snap_fp.ckpt");
    SimConfig das_cfg = snapConfig(DesignKind::Das);
    SyntheticTrace t1(snapProfile(), 1);
    System das_sys(das_cfg, {&t1});
    das_sys.saveSnapshot(path);

    // A state-shaping difference (the design) must refuse to restore;
    // output differences deliberately do not.
    SimConfig std_cfg = snapConfig(DesignKind::Standard);
    SyntheticTrace t2(snapProfile(), 1);
    System std_sys(std_cfg, {&t2});
    EXPECT_DEATH(std_sys.loadSnapshot(path),
                 "config fingerprint mismatch");
}

TEST(SnapshotDeathTest, RobCursorsOutsideTheWindowAreFatal)
{
    restoreCore(craftedCore(8, 7, 0, 8)); // the largest legal state
    EXPECT_DEATH(restoreCore(craftedCore(8, 8, 0, 0)),
                 "core3 ROB cursors head 8 tail 0 count 0 do not fit "
                 "its 8 slots");
    EXPECT_DEATH(restoreCore(craftedCore(8, 0, 9, 0)),
                 "core3 ROB cursors head 0 tail 9");
    EXPECT_DEATH(restoreCore(craftedCore(8, 0, 0, 9)),
                 "core3 ROB cursors head 0 tail 0 count 9");
}

TEST(SnapshotDeathTest, FootprintRowOutsideGeometryIsFatal)
{
    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    DasManager &das = sys.manager();
    das.access(0x1000, false, 0, Continuation{}, 0);
    ASSERT_EQ(das.footprintRows(), 1u);

    // The footprint closes the section: its one row is the last field.
    Archive ar;
    das.serdeState(ar);
    std::vector<unsigned char> bytes(ar.payload().begin(),
                                     ar.payload().end());
    const std::uint64_t total = cfg.geom.totalRows();
    std::memcpy(bytes.data() + bytes.size() - 8, &total, 8);
    Archive in(bytes);
    EXPECT_DEATH(das.serdeState(in),
                 "DAS manager footprint row 1048576 is outside the "
                 "geometry's 1048576 rows");
}

namespace
{

/** Address of the first line of global row @p row. */
Addr
rowAddr(System &sys, GlobalRowId row)
{
    return sys.dram().mapper().encode(
        decodeGlobalRowId(sys.dram().geometry(), row));
}

/** The DAS manager's section after touching rows 5 and the last. */
std::vector<unsigned char>
sectionTouchingRowFiveAndTheLast(System &sys)
{
    DasManager &das = sys.manager();
    das.access(rowAddr(sys, sys.dram().geometry().totalRows() - 1), false,
               0, Continuation{}, 0);
    das.access(rowAddr(sys, 5), false, 0, Continuation{}, 0);
    Archive ar;
    das.serdeState(ar);
    return {ar.payload().begin(), ar.payload().end()};
}

} // namespace

TEST(Snapshot, FootprintRoundTripIncludesTheLastRow)
{
    SimConfig cfg = snapConfig(DesignKind::Standard);
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    const std::vector<unsigned char> bytes = sectionTouchingRowFiveAndTheLast(sys);
    // The footprint closes the section: row 5, then the last row.
    const std::uint64_t last = cfg.geom.totalRows() - 1;
    std::uint64_t saved[2];
    std::memcpy(saved, bytes.data() + bytes.size() - 16, 16);
    EXPECT_EQ(saved[0], 5u);
    EXPECT_EQ(saved[1], last);

    SyntheticTrace trace2(snapProfile(), 1);
    System other(cfg, {&trace2});
    other.manager().access(rowAddr(other, 9), false, 0, Continuation{}, 0);
    Archive in(bytes);
    other.manager().serdeState(in); // replaces row 9, not merged
    in.finish();
    EXPECT_EQ(other.manager().footprintRows(), 2u);
    Archive again;
    other.manager().serdeState(again);
    EXPECT_EQ(std::vector<unsigned char>(again.payload().begin(),
                                         again.payload().end()),
              bytes);
}

TEST(SnapshotDeathTest, FootprintRowsOutOfOrderAreFatal)
{
    SimConfig cfg = snapConfig(DesignKind::Standard);
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    const std::vector<unsigned char> bytes = sectionTouchingRowFiveAndTheLast(sys);
    const std::uint64_t last = cfg.geom.totalRows() - 1;

    // Descending: the last row first, then row 5.
    std::vector<unsigned char> swapped = bytes;
    std::memcpy(swapped.data() + swapped.size() - 16, &last, 8);
    const std::uint64_t five = 5;
    std::memcpy(swapped.data() + swapped.size() - 8, &five, 8);
    Archive in(swapped);
    EXPECT_DEATH(sys.manager().serdeState(in),
                 "DAS manager footprint row 5 does not follow footprint "
                 "row " + std::to_string(last) +
                     ": rows are saved in ascending order");

    // A repeat would restore one row where the count says two.
    std::vector<unsigned char> repeated = bytes;
    std::memcpy(repeated.data() + repeated.size() - 8, &five, 8);
    Archive in2(repeated);
    EXPECT_DEATH(sys.manager().serdeState(in2),
                 "DAS manager footprint row 5 does not follow footprint "
                 "row 5");
}

TEST(SnapshotDeathTest, UnorderedMissQueueIsFatal)
{
    // A well-formed start of System::serdeState whose two pending
    // miss events are out of (tick, seq) order — a version-4 heap
    // array is generally not ascending.
    std::string path = tmpPath("snap_miss_order.ckpt");
    SimConfig cfg = snapConfig();
    Archive ar;
    std::uint64_t fp = configFingerprint(cfg);
    ar.io(fp);
    ar.section("system");
    std::uint64_t now = 0, event_seq = 2, warm_stamp = 0;
    bool warm = false;
    ar.io(now);
    ar.io(event_seq);
    ar.io(warm);
    ar.io(warm_stamp);
    std::uint64_t n_events = 2;
    ar.io(n_events);
    for (std::uint64_t seq : {1u, 0u}) {
        Cycle at = 100;
        unsigned core = 0, slot = 0;
        Addr line = 0x40 * (seq + 1);
        bool is_write = false;
        Cycle issue = 0;
        ar.io(at);
        ar.io(seq);
        ar.io(core);
        ar.io(slot);
        ar.io(line);
        ar.io(is_write);
        ar.io(issue);
    }
    ar.end();
    writeCraftedCheckpoint(path, ar);

    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path),
                 "miss event 1 \\(tick 100, seq 0\\) does not follow "
                 "event 0 \\(tick 100, seq 1\\)");
    std::remove(path.c_str());
}

TEST(Snapshot, RestoredRunIsBitIdentical)
{
    std::string path = tmpPath("snap_mid.ckpt");
    SimConfig cfg = snapConfig();
    std::string straight = runWithCheckpoint(cfg, 200'000, path);

    // The checkpoint must hold a migration in flight, so the restored
    // run completes it to the sink installed at construction, with no
    // rebind step. The restored state is the saved state.
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    sys.loadSnapshot(path);
    std::size_t migrating = 0;
    for (unsigned c = 0; c < sys.dram().numChannels(); ++c)
        migrating += sys.dram().channel(c).pendingMigrations();
    EXPECT_GT(migrating, 0u) << "checkpoint tick has no migration in "
                                "flight; move it";
    sys.run();
    EXPECT_EQ(straight, statsDump(sys));
    std::remove(path.c_str());
}

TEST(Snapshot, MidEpochCheckpointKeepsEpochAlignment)
{
    std::string path = tmpPath("snap_epoch.ckpt");
    SimConfig cfg = snapConfig();
    cfg.obs.epochMemCycles = 2'000;
    // One epoch is 2000 mem cycles = 30000 ticks; tick 200000 lands
    // two thirds through epoch 6, so the restored run must finish the
    // partially filled epoch exactly where the straight run does.
    std::string straight = runWithCheckpoint(cfg, 200'000, path);
    std::string restored = runRestored(cfg, path);
    ASSERT_NE(straight.find("\"type\":\"epoch\""), std::string::npos);
    EXPECT_EQ(straight, restored);
    std::remove(path.c_str());
}

TEST(Snapshot, WarmupCheckpointSkipsWarmup)
{
    std::string path = tmpPath("snap_warm.ckpt");
    SimConfig cfg = snapConfig();
    SyntheticTrace t1(snapProfile(), 1);
    System s1(cfg, {&t1});
    s1.checkpointAtWarmup(path);
    s1.run();
    std::string straight = statsDump(s1);
    std::string restored = runRestored(cfg, path);
    EXPECT_EQ(straight, restored);
    std::remove(path.c_str());
}

TEST(Snapshot, MidRunMixRestoreIsBitIdentical)
{
    // The four-core M1 mix: shared LLC and MSHRs, several cores' fills
    // in flight at once. The checkpoint tick must catch MSHR entries
    // with waiters and a non-empty miss queue, so both round-trip.
    std::string path = tmpPath("snap_mix.ckpt");
    WorkloadSpec w = WorkloadSpec::parse("spec:M1");
    SimConfig cfg = snapConfig();
    cfg.numCores = w.numCores();
    cfg.instructionsPerCore = 60'000;
    const Cycle tick = 240'000;

    auto build = [&](std::vector<std::unique_ptr<TraceSource>> &traces) {
        traces = buildTraces(w, cfg.seed, cfg.geom.rowBytes,
                             cfg.geom.lineBytes);
        std::vector<TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        return std::make_unique<System>(cfg, ptrs);
    };

    std::vector<std::unique_ptr<TraceSource>> t1;
    std::unique_ptr<System> straight = build(t1);
    straight->scheduleCheckpoint(tick, path);
    RunMetrics straight_m = straight->run();

    std::vector<std::unique_ptr<TraceSource>> t2;
    std::unique_ptr<System> restored = build(t2);
    restored->loadSnapshot(path);
    EXPECT_GT(restored->mshrs().waiterCount(), 0u)
        << "no MSHR waiters at the checkpoint tick; move it";
    EXPECT_GT(restored->pendingMissEvents(), 0u)
        << "empty miss queue at the checkpoint tick; move it";
    RunMetrics restored_m = restored->run();

    expectMetricsExactlyEqual(straight_m, restored_m);
    EXPECT_EQ(statsDump(*straight), statsDump(*restored));
    std::remove(path.c_str());
}

TEST(Snapshot, WarmupSnapshotHoldsOnlyLiveState)
{
    // mcf at the fig7-sweep benchmark's 400 K instructions: the dense
    // snapshot sections (caches, tag cache, translation table, fast-
    // slot recency) were 8.7 MB for DAS and 4.5 MB for standard DRAM,
    // almost all of it empty ways, identity groups and zero stamps.
    const std::string dir = tmpPath("snap_live_warm");
    std::filesystem::remove_all(dir);
    for (DesignKind design : {DesignKind::Das, DesignKind::Standard}) {
        SimConfig cfg;
        cfg.design = design;
        cfg.instructionsPerCore = 400'000;
        runSimulation(WorkloadSpec::single("mcf"), cfg, "", dir);
    }
    std::size_t files = 0;
    for (const auto &f : std::filesystem::directory_iterator(dir)) {
        ++files;
        EXPECT_LT(f.file_size(), 1024u * 1024u) << f.path();
    }
    EXPECT_EQ(files, 2u);
    std::filesystem::remove_all(dir);
}
