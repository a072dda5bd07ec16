/**
 * @file
 * Integration tests for the observability layer: a full System run
 * must produce a parseable schema-versioned stats-JSONL dump with
 * latency percentiles per row class, a well-formed Chrome trace_event
 * JSON timeline with bank tracks, migration spans and promotion
 * instants, and an epoch time-series aligned to the warm-up reset —
 * all deterministic across runs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

using namespace dasdram;

namespace
{

SimConfig
tinyConfig(DesignKind design, InstCount instructions = 150'000)
{
    SimConfig cfg;
    cfg.design = design;
    cfg.instructionsPerCore = instructions;
    cfg.warmupFraction = 0.2;
    cfg.obs.workloadName = "tiny";
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

/** The whole of the file at @p path. */
std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Parse a JSONL string into records keyed by "type|name". */
std::map<std::string, JsonValue>
parseStats(const std::string &text, JsonValue *meta_out = nullptr,
           std::vector<JsonValue> *epochs_out = nullptr)
{
    std::map<std::string, JsonValue> recs;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        JsonValue v;
        std::string err;
        EXPECT_TRUE(parseJson(line, v, &err)) << line << ": " << err;
        const JsonValue *type = v.find("type");
        EXPECT_TRUE(type && type->isString()) << line;
        if (!type || !type->isString())
            continue;
        if (type->string == "meta") {
            if (meta_out)
                *meta_out = std::move(v);
        } else if (type->string == "epoch") {
            if (epochs_out)
                epochs_out->push_back(std::move(v));
        } else {
            const JsonValue *name = v.find("name");
            EXPECT_TRUE(name && name->isString()) << line;
            if (name && name->isString()) {
                recs.emplace(type->string + "|" + name->string,
                             std::move(v));
            }
        }
    }
    return recs;
}

double
num(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    EXPECT_TRUE(f && f->isNumber()) << key;
    return f && f->isNumber() ? f->number : 0.0;
}

} // namespace

TEST(Observability, StatsJsonlHasPercentilesPerRowClass)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    cfg.obs.epochMemCycles = 20'000;
    SyntheticTrace trace(tinyProfile(), 1);
    System sys(cfg, {&trace});
    sys.run();

    std::ostringstream os;
    sys.writeStatsJsonl(os);
    JsonValue meta;
    std::vector<JsonValue> epochs;
    auto recs = parseStats(os.str(), &meta, &epochs);

    // Meta identity.
    EXPECT_EQ(meta.find("schema")->string, "dasdram-stats");
    EXPECT_EQ(meta.find("workload")->string, "tiny");
    EXPECT_EQ(meta.find("design")->string, toString(DesignKind::Das));

    // The acceptance-criteria metric: p50/p99 read latency per row
    // class, from the cross-channel rollup histograms.
    ASSERT_TRUE(recs.count("hist|rollup.readLatency"));
    const JsonValue &all = recs["hist|rollup.readLatency"];
    EXPECT_GT(num(all, "count"), 0.0);
    EXPECT_GT(num(all, "p50"), 0.0);
    EXPECT_LE(num(all, "p50"), num(all, "p99"));
    EXPECT_LE(num(all, "p99"), num(all, "p999"));
    EXPECT_LE(num(all, "min"), num(all, "p50"));
    EXPECT_LE(num(all, "p999"), num(all, "max"));

    // DAS serves from both classes, so both class histograms have mass
    // and fast reads are faster than slow reads at the median.
    ASSERT_TRUE(recs.count("hist|rollup.readLatencyFast"));
    ASSERT_TRUE(recs.count("hist|rollup.readLatencySlow"));
    const JsonValue &fast = recs["hist|rollup.readLatencyFast"];
    const JsonValue &slow = recs["hist|rollup.readLatencySlow"];
    EXPECT_GT(num(fast, "count"), 0.0);
    EXPECT_GT(num(slow, "count"), 0.0);
    EXPECT_LT(num(fast, "p50"), num(slow, "p50"));

    // Per-channel instrumentation shows up under the dram subtree.
    ASSERT_TRUE(
        recs.count("hist|system.dram.channel0.readQueueDelay"));
    ASSERT_TRUE(recs.count("hist|system.mshr.occupancy"));
    ASSERT_TRUE(
        recs.count("counter|system.dram.channel0.bank0.rowHits"));

    // Epochs: present, indexed from 0, aligned after the warm-up
    // restart (strictly increasing starts).
    ASSERT_GT(epochs.size(), 1u);
    EXPECT_EQ(num(epochs[0], "index"), 0.0);
    for (std::size_t i = 1; i < epochs.size(); ++i) {
        EXPECT_EQ(num(epochs[i], "index"), static_cast<double>(i));
        EXPECT_GT(num(epochs[i], "start"), num(epochs[i - 1], "start"));
    }
}

TEST(Observability, StatsJsonlDeterministicAcrossRuns)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    cfg.obs.epochMemCycles = 20'000;
    SyntheticTrace t1(tinyProfile(), 1), t2(tinyProfile(), 1);
    System s1(cfg, {&t1}), s2(cfg, {&t2});
    s1.run();
    s2.run();
    std::ostringstream a, b;
    s1.writeStatsJsonl(a);
    s2.writeStatsJsonl(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Observability, ChromeTraceIsWellFormedWithSpansAndInstants)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    cfg.obs.traceOut = ::testing::TempDir() + "obs_chrome_spans.json";
    RunMetrics m;
    {
        SyntheticTrace trace(tinyProfile(), 1);
        System sys(cfg, {&trace});
        m = sys.run();
    }
    ASSERT_GT(m.promotions, 0u); // the workload must exercise DAS

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(readFile(cfg.obs.traceOut), v, &err)) << err;
    EXPECT_EQ(v.find("displayTimeUnit")->string, "ns");
    const JsonValue *events = v.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    ASSERT_FALSE(events->array.empty());

    std::size_t metadata = 0, spans = 0, instants = 0;
    std::size_t row_spans = 0, migrations = 0, bursts = 0;
    bool saw_promote = false;
    double last_ts = 0.0;
    for (const JsonValue &e : events->array) {
        ASSERT_TRUE(e.isObject());
        const JsonValue *ph = e.find("ph");
        const JsonValue *name = e.find("name");
        ASSERT_TRUE(ph && ph->isString());
        ASSERT_TRUE(name && name->isString());
        if (ph->string == "M") {
            ++metadata;
            continue;
        }
        const JsonValue *ts = e.find("ts");
        ASSERT_TRUE(ts && ts->isNumber()) << name->string;
        EXPECT_GE(ts->number, 0.0);
        last_ts = std::max(last_ts, ts->number);
        if (ph->string == "X") {
            ++spans;
            EXPECT_GT(e.find("dur")->number, 0.0) << name->string;
            if (name->string.rfind("row ", 0) == 0)
                ++row_spans;
            if (name->string == "swap")
                ++migrations;
            if (name->string == "RD" || name->string == "WR")
                ++bursts;
        } else if (ph->string == "i") {
            ++instants;
            if (name->string == "promote") {
                saw_promote = true;
                const JsonValue *args = e.find("args");
                ASSERT_TRUE(args && args->isObject());
                EXPECT_TRUE(args->find("row"));
                EXPECT_TRUE(args->find("cause"));
            }
        }
    }
    // Track names for processes/threads, plus real activity of every
    // kind the writer emits.
    EXPECT_GT(metadata, 0u);
    EXPECT_GT(row_spans, 0u);
    EXPECT_GT(bursts, 0u);
    EXPECT_GT(migrations, 0u);
    EXPECT_TRUE(saw_promote);
    EXPECT_GT(instants, 0u);
    EXPECT_GT(spans, 0u);
    EXPECT_GT(last_ts, 0.0);
}

TEST(Observability, ChromeTraceAndCommandTraceCoexist)
{
    // Both sinks plus the protocol checker share the command stream
    // through the fanout; the run must stay clean and both outputs
    // must materialise.
    SimConfig cfg = tinyConfig(DesignKind::Das, 60'000);
    cfg.obs.traceOut = ::testing::TempDir() + "obs_chrome_coexist.json";
    std::ostringstream text_os;
    {
        SyntheticTrace trace(tinyProfile(), 1);
        System sys(cfg, {&trace});
        sys.attachCommandTrace(text_os);
        sys.run();
    }

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(readFile(cfg.obs.traceOut), v, &err)) << err;
    EXPECT_FALSE(v.find("traceEvents")->array.empty());
    EXPECT_NE(text_os.str().find("ACT"), std::string::npos);
}
