/**
 * @file
 * Integration tests for request-lifecycle tracing: tracing must be
 * observation-only (identical metrics and command streams with
 * sampling on or off), and the critical-path breakdown must reconcile
 * exactly with the aggregate latency histograms.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "mem/request_trace.hh"
#include "sim/system.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

using namespace dasdram;

namespace
{

SimConfig
tracedConfig(double rate, InstCount instructions = 120'000)
{
    SimConfig cfg;
    cfg.design = DesignKind::Das;
    cfg.instructionsPerCore = instructions;
    cfg.warmupFraction = 0.2;
    cfg.obs.workloadName = "tiny";
    cfg.obs.traceRequests = rate;
    return cfg;
}

BenchmarkProfile
tinyProfile()
{
    BenchmarkProfile p = specProfile("omnetpp");
    p.footprintMiB = 64;
    p.workingSetPages = 400;
    p.phaseInstructions = 40'000;
    return p;
}

/** One full run: span JSONL, command trace and metrics. */
struct RunResult
{
    std::string spans;
    std::string commands;
    std::string stats;
    RunMetrics metrics;
};

/** The spans come through obs.spansOut, written to a temporary file
 *  named after the running test (one sampled run per test). */
RunResult
runOnce(SimConfig cfg)
{
    if (cfg.obs.traceRequests > 0.0) {
        cfg.obs.spansOut =
            ::testing::TempDir() + "request_tracing_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    }
    RunResult r;
    {
        std::ostringstream cmd_os, stats_os;
        SyntheticTrace trace(tinyProfile(), 1);
        System sys(cfg, {&trace});
        sys.attachCommandTrace(cmd_os);
        r.metrics = sys.run();
        sys.writeStatsJsonl(stats_os);
        r.commands = cmd_os.str();
        r.stats = stats_os.str();
    }
    if (!cfg.obs.spansOut.empty()) {
        std::ifstream is(cfg.obs.spansOut);
        std::ostringstream spans_os;
        spans_os << is.rdbuf();
        r.spans = spans_os.str();
    }
    return r;
}

double
num(const JsonValue &v, const char *key, double fallback = 0.0)
{
    const JsonValue *f = v.find(key);
    return f && f->isNumber() ? f->number : fallback;
}

std::string
str(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f && f->isString() ? f->string : std::string();
}

/** Parse a JSONL string into one JsonValue per line. */
std::vector<JsonValue>
parseLines(const std::string &text)
{
    std::vector<JsonValue> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        JsonValue v;
        std::string err;
        EXPECT_TRUE(parseJson(line, v, &err)) << line << ": " << err;
        out.push_back(std::move(v));
    }
    return out;
}

} // namespace

TEST(RequestTracing, TracingIsObservationOnly)
{
    RunResult off = runOnce(tracedConfig(/*rate=*/0.0));
    RunResult on = runOnce(tracedConfig(/*rate=*/1.0));

    // The command stream and every end-of-run metric must not notice
    // the tracer: identical requests, identical cycles.
    EXPECT_TRUE(off.spans.empty());
    EXPECT_FALSE(on.spans.empty());
    EXPECT_EQ(off.commands, on.commands);
    EXPECT_EQ(off.metrics.ipc, on.metrics.ipc);
    EXPECT_EQ(off.metrics.cpuCycles, on.metrics.cpuCycles);
    EXPECT_EQ(off.metrics.instructions, on.metrics.instructions);
    EXPECT_EQ(off.metrics.llcMisses, on.metrics.llcMisses);
    EXPECT_EQ(off.metrics.promotions, on.metrics.promotions);
    EXPECT_EQ(off.metrics.memAccesses, on.metrics.memAccesses);
}

TEST(RequestTracing, BreakdownReconcilesWithLatencyHistograms)
{
    // Rate 1.0 + no warm-up reset: every controller read is spanned,
    // so the aggregator's row-class groups must reconcile with the
    // cross-channel rollup histogram exactly (the span total IS the
    // histogram sample), within one cycle per request of slack.
    SimConfig cfg = tracedConfig(/*rate=*/1.0);
    cfg.warmupFraction = 0.0;
    RunResult r = runOnce(cfg);

    std::map<std::string, JsonValue> recs;
    for (JsonValue &v : parseLines(r.stats)) {
        if (str(v, "type") == "hist" || str(v, "type") == "dist")
            recs.emplace(str(v, "name"), std::move(v));
    }

    const char *const classes[] = {"system.reqtrace.classRowHit.total",
                                   "system.reqtrace.classFast.total",
                                   "system.reqtrace.classSlow.total"};
    double span_count = 0.0, span_sum = 0.0;
    for (const char *name : classes) {
        ASSERT_TRUE(recs.count(name)) << name;
        span_count += num(recs.at(name), "count");
        span_sum += num(recs.at(name), "sum");
    }

    ASSERT_TRUE(recs.count("rollup.readLatency"));
    const JsonValue &all = recs.at("rollup.readLatency");
    double hist_count = num(all, "count");
    double hist_sum = num(all, "mean") * hist_count;
    EXPECT_GT(hist_count, 0.0);
    EXPECT_EQ(span_count, hist_count);
    EXPECT_NEAR(span_sum, hist_sum, hist_count /* 1 cycle/request */);

    // Per-span exactness: the five blame components telescope to the
    // total on every single exported span.
    std::uint64_t spans_checked = 0;
    for (const JsonValue &v : parseLines(r.spans)) {
        if (str(v, "type") != "span")
            continue;
        ++spans_checked;
        EXPECT_EQ(num(v, "waitQueue") + num(v, "waitBlock") +
                      num(v, "waitRefresh") + num(v, "rowLat") +
                      num(v, "service"),
                  num(v, "total"));
        EXPECT_GE(num(v, "waitQueue"), 0.0);
        EXPECT_GE(num(v, "rowLat"), 0.0);
        EXPECT_GE(num(v, "service"), 0.0);
    }
    EXPECT_GT(spans_checked, 0u);
}

TEST(RequestTracing, SpansOutWithoutSamplingIsFatal)
{
    SimConfig cfg = tracedConfig(/*rate=*/0.0, /*instructions=*/1000);
    cfg.obs.spansOut = "never_written.jsonl";
    SyntheticTrace trace(tinyProfile(), 1);
    EXPECT_DEATH(
        { System sys(cfg, {&trace}); }, "traceRequests");
}
