/**
 * @file
 * Tests for the synthetic trace generator: determinism, address bounds,
 * calibration properties (memory ratio, write fraction, locality),
 * and restore-time validation of the saved generator state.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

using namespace dasdram;

TEST(SynthTrace, DeterministicForSameSeed)
{
    const BenchmarkProfile &p = specProfile("mcf");
    SyntheticTrace a(p, 99), b(p, 99);
    TraceEntry ea, eb;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(ea));
        ASSERT_TRUE(b.next(eb));
        ASSERT_EQ(ea.addr, eb.addr);
        ASSERT_EQ(ea.gap, eb.gap);
        ASSERT_EQ(ea.isWrite, eb.isWrite);
    }
}

TEST(SynthTrace, ResetReproducesStream)
{
    const BenchmarkProfile &p = specProfile("omnetpp");
    SyntheticTrace t(p, 5);
    std::vector<Addr> first;
    TraceEntry e;
    for (int i = 0; i < 1000; ++i) {
        t.next(e);
        first.push_back(e.addr);
    }
    t.reset();
    for (int i = 0; i < 1000; ++i) {
        t.next(e);
        ASSERT_EQ(e.addr, first[i]) << "at " << i;
    }
}

TEST(SynthTrace, DifferentSeedsDiffer)
{
    const BenchmarkProfile &p = specProfile("mcf");
    SyntheticTrace a(p, 1), b(p, 2);
    TraceEntry ea, eb;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a.next(ea);
        b.next(eb);
        same += (ea.addr == eb.addr) ? 1 : 0;
    }
    EXPECT_LT(same, 100);
}

class TraceProfileSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceProfileSweep, AddressesWithinFootprint)
{
    const BenchmarkProfile &p = specProfile(GetParam());
    SyntheticTrace t(p, 3);
    Addr limit = static_cast<Addr>(p.footprintMiB * MiB);
    TraceEntry e;
    for (int i = 0; i < 20000; ++i) {
        t.next(e);
        ASSERT_LT(e.addr, limit);
    }
}

TEST_P(TraceProfileSweep, MemRatioMatchesProfile)
{
    const BenchmarkProfile &p = specProfile(GetParam());
    SyntheticTrace t(p, 3);
    TraceEntry e;
    std::uint64_t mem = 0, inst = 0;
    for (int i = 0; i < 50000; ++i) {
        t.next(e);
        ++mem;
        inst += e.gap + 1;
    }
    double ratio = static_cast<double>(mem) / static_cast<double>(inst);
    EXPECT_NEAR(ratio, p.memRatio, 0.05 * p.memRatio + 0.01);
}

TEST_P(TraceProfileSweep, WriteFractionMatchesProfile)
{
    const BenchmarkProfile &p = specProfile(GetParam());
    SyntheticTrace t(p, 3);
    TraceEntry e;
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        t.next(e);
        writes += e.isWrite ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, p.writeFraction, 0.02);
}

TEST_P(TraceProfileSweep, ShortTermReuseVisible)
{
    // With reuseProb ~0.9+, a large share of accesses repeat one of the
    // recent lines.
    const BenchmarkProfile &p = specProfile(GetParam());
    SyntheticTrace t(p, 3);
    TraceEntry e;
    std::vector<Addr> recent;
    int reuse_hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        t.next(e);
        Addr line = e.addr / 64;
        for (Addr r : recent)
            if (r == line) {
                ++reuse_hits;
                break;
            }
        recent.push_back(line);
        if (recent.size() > 16)
            recent.erase(recent.begin());
    }
    EXPECT_GT(static_cast<double>(reuse_hits) / n, p.reuseProb * 0.7);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TraceProfileSweep,
                         ::testing::ValuesIn(specBenchmarks()));

TEST(SynthTrace, WorkingSetConcentration)
{
    // Accesses concentrate on a resident working set far smaller than
    // the footprint — the property dynamic migration exploits.
    const BenchmarkProfile &p = specProfile("mcf");
    SyntheticTrace t(p, 7);
    TraceEntry e;
    std::unordered_map<std::uint64_t, int> page_counts;
    const int n = 300000;
    for (int i = 0; i < n; ++i) {
        t.next(e);
        ++page_counts[e.addr / 8192];
    }
    double footprint_pages = p.footprintMiB * MiB / 8192.0;
    EXPECT_LT(static_cast<double>(page_counts.size()),
              0.3 * footprint_pages);
    EXPECT_GT(static_cast<double>(n) /
                  static_cast<double>(page_counts.size()),
              5.0); // mean accesses per touched page
}

TEST(SynthTrace, PhaseAdvancesWithInstructions)
{
    BenchmarkProfile p = specProfile("milc");
    p.phaseInstructions = 10000;
    SyntheticTrace t(p, 11);
    TraceEntry e;
    while (t.generatedInstructions() < 100000)
        t.next(e);
    EXPECT_GE(t.phaseCount(), 5u);
}

TEST(SynthTrace, MixValidationIsFatal)
{
    BenchmarkProfile p = specProfile("mcf");
    p.pStream = 0.9; // breaks the sum
    EXPECT_DEATH(SyntheticTrace(p, 1), "must sum to 1");
}

TEST(SpecProfiles, TableTwoContents)
{
    EXPECT_EQ(specBenchmarks().size(), 10u);
    EXPECT_EQ(specMixes().size(), 8u);
    for (const auto &mix : specMixes()) {
        EXPECT_EQ(mix.size(), 4u);
        for (const auto &b : mix)
            EXPECT_NO_FATAL_FAILURE(specProfile(b));
    }
    // Spot-check Table 2's M8 = lbm, libquantum, mcf, soplex.
    const auto &m8 = specMixes()[7];
    EXPECT_EQ(m8[0], "lbm");
    EXPECT_EQ(m8[1], "libquantum");
    EXPECT_EQ(m8[2], "mcf");
    EXPECT_EQ(m8[3], "soplex");
    EXPECT_EQ(mixName(7), "M8");
}

TEST(SpecProfiles, UnknownNameIsFatal)
{
    EXPECT_DEATH(specProfile("nonexistent"), "unknown");
}

TEST(SpecProfiles, DensityBudgetRespectsFastLevel)
{
    // Simultaneously-hot rows per migration group (ring + hot set) must
    // stay near or below the 4 fast slots of a 32-row group at ratio
    // 1/8 — the calibration invariant behind Figure 7.
    for (const std::string &name : specBenchmarks()) {
        const BenchmarkProfile &p = specProfile(name);
        double active = std::min(
            p.footprintMiB * MiB / 8192.0,
            p.activeRegionFactor *
                static_cast<double>(p.workingSetPages));
        double density =
            32.0 *
            (static_cast<double>(p.workingSetPages) +
             p.hotFraction * active) /
            active;
        EXPECT_LE(density, 4.6) << name;
    }
}

namespace
{

/** The fields of a "synthTrace" section, in saved order. */
struct SynthFields
{
    std::vector<std::uint64_t> streamPos;
    unsigned nextStream = 0;
    std::vector<std::uint64_t> sliceSalt;
    std::vector<std::uint64_t> workSet;
    std::size_t workHead = 0;
    std::array<Addr, 8> recent{};
    unsigned recentCount = 0;
    std::uint64_t runLeft = 0;
    std::uint64_t runLine = 0;
    InstCount instCount = 0;
    InstCount nextPhaseAt = 0;
    std::uint64_t phase = 0;
    double gapMean = 0.0;
    std::array<std::uint64_t, 4> rng{};

    void
    serde(Archive &ar)
    {
        ar.section("synthTrace");
        ar.io(streamPos);
        ar.io(nextStream);
        ar.io(sliceSalt);
        ar.io(workSet);
        ar.io(workHead);
        for (Addr &a : recent)
            ar.io(a);
        ar.io(recentCount);
        ar.io(runLeft);
        ar.io(runLine);
        ar.io(instCount);
        ar.io(nextPhaseAt);
        ar.io(phase);
        ar.io(gapMean);
        for (std::uint64_t &s : rng)
            ar.io(s);
        ar.end();
    }
};

/** The saved fields of an mcf trace 2000 entries in. */
SynthFields
savedMcfFields()
{
    SyntheticTrace t(specProfile("mcf"), 3);
    TraceEntry e;
    for (int i = 0; i < 2000; ++i)
        t.next(e);
    Archive out;
    t.serdeState(out);
    SynthFields f;
    Archive in(out.payload());
    f.serde(in);
    in.finish();
    return f;
}

/** Lines in mcf's footprint, the bound of every saved line. */
std::uint64_t
mcfLines()
{
    return SyntheticTrace(specProfile("mcf"), 3).footprintPages() *
           (8192 / 64);
}

/** Restore @p f into a fresh mcf trace and draw from it. */
void
restoreAndDraw(SynthFields f)
{
    Archive out;
    f.serde(out);
    SyntheticTrace t(specProfile("mcf"), 3);
    Archive in(out.payload());
    t.serdeState(in);
    in.finish();
    TraceEntry e;
    for (int i = 0; i < 2000; ++i)
        t.next(e);
}

} // namespace

TEST(SynthTrace, SavedFieldsRestoreAndResume)
{
    SynthFields f = savedMcfFields();
    ASSERT_EQ(f.sliceSalt.size(), 64u);
    restoreAndDraw(f);
    f.nextStream = static_cast<unsigned>(f.streamPos.size() - 1);
    f.workHead = f.workSet.size() - 1;
    f.runLine = mcfLines() - 1;
    restoreAndDraw(f); // the largest legal cursors
}

TEST(SynthTraceDeathTest, StreamPosSizeIsChecked)
{
    // An empty stream table used to load and then divide by zero.
    SynthFields f = savedMcfFields();
    const std::size_t n = f.streamPos.size();
    f.streamPos.clear();
    EXPECT_DEATH(restoreAndDraw(f),
                 "shape mismatch for synthTrace streamPos: file has 0, "
                 "this configuration builds " +
                     std::to_string(n));
}

TEST(SynthTraceDeathTest, SliceSaltSizeIsChecked)
{
    SynthFields f = savedMcfFields();
    f.sliceSalt.pop_back();
    EXPECT_DEATH(restoreAndDraw(f),
                 "shape mismatch for synthTrace sliceSalt: file has 63, "
                 "this configuration builds 64");
}

TEST(SynthTraceDeathTest, WorkSetSizeIsChecked)
{
    SynthFields f = savedMcfFields();
    const std::size_t n = f.workSet.size();
    f.workSet.push_back(0);
    EXPECT_DEATH(restoreAndDraw(f),
                 "shape mismatch for synthTrace workSet: file has " +
                     std::to_string(n + 1));
}

TEST(SynthTraceDeathTest, NextStreamPastTheStreamsIsFatal)
{
    SynthFields f = savedMcfFields();
    f.nextStream = static_cast<unsigned>(f.streamPos.size());
    EXPECT_DEATH(restoreAndDraw(f),
                 "synthTrace 'mcf' nextStream " +
                     std::to_string(f.nextStream) + " is not below " +
                     std::to_string(f.nextStream));
}

TEST(SynthTraceDeathTest, WorkHeadPastTheWorkSetIsFatal)
{
    SynthFields f = savedMcfFields();
    f.workHead = f.workSet.size();
    EXPECT_DEATH(restoreAndDraw(f),
                 "synthTrace 'mcf' workHead " + std::to_string(f.workHead) +
                     " is not below " + std::to_string(f.workHead));
}

TEST(SynthTraceDeathTest, RunLinePastTheFootprintIsFatal)
{
    SynthFields f = savedMcfFields();
    f.runLine = mcfLines();
    EXPECT_DEATH(restoreAndDraw(f), "synthTrace 'mcf' runLine " +
                                        std::to_string(mcfLines()) +
                                        " is not below " +
                                        std::to_string(mcfLines()));
}

TEST(SynthTraceDeathTest, StreamPositionPastTheFootprintIsFatal)
{
    SynthFields f = savedMcfFields();
    f.streamPos.back() = mcfLines();
    EXPECT_DEATH(restoreAndDraw(f), "synthTrace 'mcf' streamPos line " +
                                        std::to_string(mcfLines()) +
                                        " is not below");
}

TEST(SynthTraceDeathTest, WorkSetPageOutsideTheActiveRegionIsFatal)
{
    SynthFields f = savedMcfFields();
    f.workSet[1] = std::uint64_t{1} << 40;
    EXPECT_DEATH(restoreAndDraw(f),
                 "synthTrace 'mcf' workSet page 1099511627776 is not below");
}

TEST(SynthTraceDeathTest, RecentLinePastTheFootprintIsFatal)
{
    SynthFields f = savedMcfFields();
    f.recent[5] = mcfLines();
    EXPECT_DEATH(restoreAndDraw(f), "synthTrace 'mcf' recent line " +
                                        std::to_string(mcfLines()) +
                                        " is not below");
}
