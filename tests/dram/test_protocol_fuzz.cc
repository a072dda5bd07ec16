/**
 * @file
 * Fixed-seed protocol fuzz tests. Three things are under test here:
 * the controller (a clean grid run must produce zero violations), the
 * checker (injected timing bugs in the controller's DramTiming must be
 * caught), and the harness itself (same seed, same run). Every failure
 * message carries the case name and seed so it replays with
 * `dasdram_fuzz --seed <base> --filter <name>`.
 */

#include <gtest/gtest.h>

#include "core/designs.hh"
#include "sim/fuzz.hh"

using namespace dasdram;

namespace
{

constexpr std::uint64_t kBaseSeed = 42;
constexpr unsigned kRequests = 1000;

/** Find one case of the grid by name (fatal if the grid renames it). */
FuzzCase
gridCase(const std::string &name, unsigned requests = kRequests)
{
    for (FuzzCase &c : defaultFuzzCases(kBaseSeed, requests)) {
        if (c.name == name)
            return c;
    }
    ADD_FAILURE() << "fuzz grid has no case named " << name;
    return FuzzCase{};
}

DramTiming
referenceTiming(const FuzzCase &c)
{
    return ddr3_1600Timing(designSpec(c.design).charmColumnOpt);
}

} // namespace

TEST(ProtocolFuzz, GridCleanUnderReferenceTiming)
{
    for (const FuzzCase &c : defaultFuzzCases(kBaseSeed, kRequests)) {
        FuzzReport rep = runProtocolFuzz(c);
        EXPECT_TRUE(rep.ok())
            << c.name << " seed=" << c.seed << " violations="
            << rep.violations << " drained=" << rep.drained
            << (rep.firstViolation.empty()
                    ? ""
                    : "\n  first: " + rep.firstViolation);
        EXPECT_GT(rep.commands, 0u) << c.name << " issued no commands";
    }
}

TEST(ProtocolFuzz, DeterministicReplay)
{
    FuzzCase c = gridCase("das/base");
    FuzzReport a = runProtocolFuzz(c);
    FuzzReport b = runProtocolFuzz(c);
    EXPECT_EQ(a.commands, b.commands) << "seed=" << c.seed;
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.migrationsDone, b.migrationsDone);
    EXPECT_EQ(a.violations, b.violations);
}

TEST(ProtocolFuzz, InjectedTrcdBugDetected)
{
    FuzzCase c = gridCase("das/base");
    DramTiming dut = referenceTiming(c);
    dut.slow.tRCD -= 1;
    dut.fast.tRCD -= 1;
    FuzzReport rep = runProtocolFuzz(c, dut, referenceTiming(c));
    EXPECT_GT(rep.violations, 0u)
        << "tRCD shortened by one cycle went undetected (seed="
        << c.seed << ")";
    EXPECT_NE(rep.firstViolation.find("tRCD"), std::string::npos)
        << rep.firstViolation;
}

TEST(ProtocolFuzz, InjectedTccdBugDetected)
{
    FuzzCase c = gridCase("standard/base");
    DramTiming dut = referenceTiming(c);
    dut.tCCD -= 1;
    FuzzReport rep = runProtocolFuzz(c, dut, referenceTiming(c));
    EXPECT_GT(rep.violations, 0u)
        << "tCCD shortened by one cycle went undetected (seed="
        << c.seed << ")";
}

TEST(ProtocolFuzz, InjectedTfawBugDetected)
{
    FuzzCase c = gridCase("standard/base", 3000);
    DramTiming dut = referenceTiming(c);
    dut.tFAW /= 2;
    FuzzReport rep = runProtocolFuzz(c, dut, referenceTiming(c));
    EXPECT_GT(rep.violations, 0u)
        << "halved tFAW went undetected (seed=" << c.seed << ")";
    EXPECT_NE(rep.firstViolation.find("tFAW"), std::string::npos)
        << rep.firstViolation;
}

TEST(ProtocolFuzz, InjectedSwapLatencyBugDetected)
{
    FuzzCase c = gridCase("das/base");
    DramTiming dut = referenceTiming(c);
    dut.swapCycles -= 10;
    FuzzReport rep = runProtocolFuzz(c, dut, referenceTiming(c));
    EXPECT_GT(rep.violations, 0u)
        << "shortened migration window went undetected (seed="
        << c.seed << ")";
}
