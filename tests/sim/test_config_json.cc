/**
 * @file
 * Tests for the SimConfig JSON round-trip (sim_config.hh): every field
 * survives serialise→parse, partial documents keep base defaults,
 * enums parse from their config spellings, and unknown keys fail
 * loudly instead of being silently dropped — for --config files and
 * --set key=value assignments alike (sim/config_cli.hh).
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/config_cli.hh"
#include "sim/sim_config.hh"

using namespace dasdram;

TEST(ConfigJson, DefaultConfigRoundTripsExactly)
{
    SimConfig cfg;
    std::string json = configToJson(cfg);
    SimConfig back = configFromJson(json);
    EXPECT_EQ(configToJson(back), json);
}

TEST(ConfigJson, ModifiedFieldsSurviveTheRoundTrip)
{
    SimConfig cfg;
    cfg.workload = "mix:spec:mcf,spec:lbm";
    cfg.design = DesignKind::Charm;
    cfg.seed = 1234;
    cfg.instructionsPerCore = 777'000;
    cfg.warmupFraction = 0.35;
    cfg.caches.l2.sizeBytes = 512 * 1024;
    cfg.geom.rowsPerBank = 16384;
    cfg.ctrl.readQueueDepth = 48;
    cfg.layout.fastRatioDenom = 4;
    cfg.das.promotion.threshold = 9;
    cfg.obs.histograms = false;
    cfg.obs.label = "roundtrip";

    SimConfig back = configFromJson(configToJson(cfg));
    EXPECT_EQ(back.workload, cfg.workload);
    EXPECT_EQ(back.design, DesignKind::Charm);
    EXPECT_EQ(back.seed, 1234u);
    EXPECT_EQ(back.instructionsPerCore, 777'000u);
    EXPECT_DOUBLE_EQ(back.warmupFraction, 0.35);
    EXPECT_EQ(back.caches.l2.sizeBytes, 512u * 1024u);
    EXPECT_EQ(back.geom.rowsPerBank, 16384u);
    EXPECT_EQ(back.ctrl.readQueueDepth, 48u);
    EXPECT_EQ(back.layout.fastRatioDenom, 4u);
    EXPECT_EQ(back.das.promotion.threshold, 9u);
    EXPECT_FALSE(back.obs.histograms);
    EXPECT_EQ(back.obs.label, "roundtrip");
    EXPECT_EQ(configToJson(back), configToJson(cfg));
}

TEST(ConfigJson, EveryDesignSpellingParses)
{
    for (DesignKind d :
         {DesignKind::Standard, DesignKind::Sas, DesignKind::Charm,
          DesignKind::Das, DesignKind::DasFm, DesignKind::Fs}) {
        SimConfig cfg;
        cfg.design = d;
        EXPECT_EQ(configFromJson(configToJson(cfg)).design, d);
    }
}

TEST(ConfigJson, PartialDocumentKeepsBaseDefaults)
{
    SimConfig base;
    base.instructionsPerCore = 123'456;
    SimConfig out = configFromJson(R"({"seed": 7})", base);
    EXPECT_EQ(out.seed, 7u);
    EXPECT_EQ(out.instructionsPerCore, 123'456u);
    EXPECT_EQ(out.design, base.design);

    SimConfig nested =
        configFromJson(R"({"core": {"issueWidth": 2}})", base);
    EXPECT_EQ(nested.core.issueWidth, 2u);
    EXPECT_EQ(nested.core.robSize, base.core.robSize);
}

TEST(ConfigJson, UnknownKeysAreFatal)
{
    EXPECT_DEATH(configFromJson(R"({"sedd": 7})"), "sedd");
    EXPECT_DEATH(configFromJson(R"({"caches": {"l9SizeBytes": 1}})"),
                 "l9SizeBytes");
    EXPECT_DEATH(configFromJson(R"({"engine": "event"})"), "engine");
}

TEST(ConfigJson, MalformedJsonIsFatal)
{
    EXPECT_DEATH(configFromJson("{nope"), "");
    EXPECT_DEATH(configFromJson(R"({"design": "warp-drive"})"),
                 "warp-drive");
}

TEST(ConfigJson, SetAssignmentMatchesConfigFile)
{
    SimConfig set;
    applyConfigAssignment(set, "das.promotionThreshold=4");
    const SimConfig file =
        configFromJson(R"({"das":{"promotionThreshold":4}})");
    EXPECT_EQ(set.das.promotion.threshold, 4u);
    EXPECT_EQ(configToJson(set), configToJson(file));
}

TEST(ConfigJson, SetAssignmentTakesNonJsonValuesAsStrings)
{
    SimConfig cfg;
    applyConfigAssignment(cfg, "das.replacement=random");
    applyConfigAssignment(cfg, "workload=lbm");
    applyConfigAssignment(cfg, "warmupFraction=0.5");
    applyConfigAssignment(cfg, "das.exclusiveCache=false");
    EXPECT_EQ(cfg.das.replacement, parseFastReplPolicy("random"));
    EXPECT_EQ(cfg.workload, "lbm");
    EXPECT_EQ(cfg.warmupFraction, 0.5);
    EXPECT_FALSE(cfg.das.exclusiveCache);
}

TEST(ConfigJson, SetAssignmentUnknownKeyIsFatal)
{
    SimConfig cfg;
    EXPECT_DEATH(applyConfigAssignment(cfg, "das.thresold=4"), "thresold");
    EXPECT_DEATH(applyConfigAssignment(cfg, "das.promotionThreshold=x"),
                 "promotionThreshold");
}

TEST(ConfigJson, MalformedSetAssignmentIsFatal)
{
    SimConfig cfg;
    EXPECT_DEATH(applyConfigAssignment(cfg, "das.promotionThreshold"),
                 "need key=value");
    EXPECT_DEATH(applyConfigAssignment(cfg, "das..x=1"),
                 "empty key segment");
    EXPECT_DEATH(applyConfigAssignment(cfg, "=1"), "empty key segment");
}
