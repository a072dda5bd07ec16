/**
 * @file
 * Snapshot/restore integration tests: failure modes of the versioned
 * checkpoint envelope (truncation, wrong magic, older or newer
 * version, config-fingerprint mismatch) and the bit-identity
 * guarantee — a run restored from a mid-run checkpoint must reproduce
 * the straight run's stats exactly, including mid-epoch EpochSeries
 * alignment.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/binfmt.hh"
#include "sim/system.hh"
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
    std::ifstream is(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    is.close();
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() / 2));
    os.close();

    SyntheticTrace t2(snapProfile(), 1);
    System fresh(cfg, {&t2});
    EXPECT_DEATH(fresh.loadSnapshot(path), "truncated checkpoint");
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
    std::string path = tmpPath("snap_older.ckpt");
    std::string err = binfmt::writeEnvelopeFile(
        path, System::kSnapshotMagic,
        static_cast<std::uint16_t>(System::kSnapshotVersion - 1),
        std::vector<unsigned char>{1, 2, 3});
    ASSERT_TRUE(err.empty()) << err;

    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path), "older build; re-create it");
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
