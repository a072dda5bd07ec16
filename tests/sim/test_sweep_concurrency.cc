/**
 * @file
 * Concurrency test for SweepRunner: many points share each workload's
 * memoised standard-DRAM baseline, and a sweep run on six worker
 * threads must agree exactly with the same sweep run serially.
 *
 * Run it under ThreadSanitizer to verify the memo's locking:
 *   cmake -B build-tsan -DDAS_SANITIZE=thread
 *   cmake --build build-tsan --target concurrency_tests
 *   ctest --test-dir build-tsan -L stress
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics_equal.hh"
#include "sim/sweep.hh"

using namespace dasdram;

namespace
{

/** Two workloads x five points each, all asking for their baseline. */
std::vector<ExperimentResult>
runSweep(unsigned jobs)
{
    SimConfig cfg;
    cfg.instructionsPerCore = 60'000;
    SweepRunner sweep(cfg, jobs);
    for (const char *name : {"mcf", "omnetpp"}) {
        WorkloadSpec w = WorkloadSpec::single(name);
        sweep.add(w, DesignKind::Standard);
        sweep.add(w, DesignKind::Das);
        sweep.add(w, DesignKind::Fs);
        for (unsigned th : {2u, 4u}) {
            sweep.add(
                w, DesignKind::Das,
                [th](SimConfig &c) { c.das.promotion.threshold = th; },
                "th=" + std::to_string(th));
        }
    }
    return sweep.run();
}

} // namespace

TEST(SweepConcurrency, ParallelRunsMatchSerialRuns)
{
    std::vector<ExperimentResult> parallel = runSweep(6);
    std::vector<ExperimentResult> serial = runSweep(1);

    ASSERT_EQ(parallel.size(), 10u);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectMetricsExactlyEqual(parallel[i].metrics, serial[i].metrics);
        EXPECT_EQ(parallel[i].perfImprovement, serial[i].perfImprovement);
        EXPECT_EQ(toJsonLine(parallel[i]), toJsonLine(serial[i]));
    }
}
