#include "sim_config.hh"

#include <cmath>
#include <cstdlib>
#include <set>

#include "common/binfmt.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "core/replacement_policy.hh"

namespace dasdram
{

SimEngine
parseEngine(const std::string &name)
{
    if (name != "tick")
        fatal("unknown engine '{}': the event engine was removed; the "
              "only main loop is 'tick'",
              name);
    return SimEngine::Tick;
}

double
applySimScale(SimConfig &cfg)
{
    const char *env = std::getenv("DAS_SIM_SCALE");
    if (!env)
        return 1.0;
    char *end = nullptr;
    double factor = std::strtod(env, &end);
    if (end == env || *end != '\0' || !(factor > 0.0) ||
        !std::isfinite(factor))
        fatal("DAS_SIM_SCALE='{}' is not a positive number", env);
    cfg.instructionsPerCore = static_cast<InstCount>(
        static_cast<double>(cfg.instructionsPerCore) * factor);
    if (cfg.instructionsPerCore < 100'000)
        cfg.instructionsPerCore = 100'000;
    return factor;
}

namespace
{

/** Canonical (parseDesign-compatible) token for a design. */
const char *
designKey(DesignKind kind)
{
    switch (kind) {
      case DesignKind::Standard: return "standard";
      case DesignKind::Sas: return "sas";
      case DesignKind::Charm: return "charm";
      case DesignKind::Das: return "das";
      case DesignKind::DasFm: return "das-fm";
      case DesignKind::Fs: return "fs";
    }
    return "?";
}

/**
 * Field-wise reader over one JSON object: every getter is optional
 * (absent keys keep the caller's default) but typed (a wrong kind is
 * fatal), and finish() rejects keys no getter consumed — a typo'd key
 * never silently runs the default configuration.
 */
class ObjReader
{
  public:
    ObjReader(const JsonValue &v, std::string path)
        : v_(v), path_(std::move(path))
    {
        if (!v_.isObject())
            fatal("config: '{}' must be a JSON object", path_);
    }

    const JsonValue *
    get(const char *key, JsonValue::Kind kind, const char *kind_name)
    {
        consumed_.insert(key);
        const JsonValue *m = v_.find(key);
        if (!m)
            return nullptr;
        if (m->kind != kind)
            fatal("config: '{}.{}' must be a {}", path_, key, kind_name);
        return m;
    }

    void
    num(const char *key, double &out)
    {
        if (const JsonValue *m =
                get(key, JsonValue::Kind::Number, "number"))
            out = m->number;
    }

    template <typename T>
    void
    uns(const char *key, T &out)
    {
        if (const JsonValue *m =
                get(key, JsonValue::Kind::Number, "number")) {
            if (m->number < 0)
                fatal("config: '{}.{}' must be non-negative", path_, key);
            out = static_cast<T>(m->number);
        }
    }

    void
    boolean(const char *key, bool &out)
    {
        if (const JsonValue *m = get(key, JsonValue::Kind::Bool, "bool"))
            out = m->boolean;
    }

    void
    str(const char *key, std::string &out)
    {
        if (const JsonValue *m =
                get(key, JsonValue::Kind::String, "string"))
            out = m->string;
    }

    /** Nested object, or nullptr when absent. */
    const JsonValue *
    section(const char *key)
    {
        return get(key, JsonValue::Kind::Object, "object");
    }

    void
    finish() const
    {
        for (const auto &[key, value] : v_.object) {
            if (!consumed_.count(key))
                fatal("config: unknown key '{}.{}'", path_, key);
        }
    }

  private:
    const JsonValue &v_;
    std::string path_;
    std::set<std::string> consumed_;
};

} // namespace

std::string
configToJson(const SimConfig &cfg)
{
    JsonWriter w;
    w.beginObject();
    w.field("workload", cfg.workload);
    w.field("design", designKey(cfg.design));
    w.field("seed", cfg.seed);
    w.field("instructionsPerCore", cfg.instructionsPerCore);
    w.field("warmupFraction", cfg.warmupFraction);
    w.field("profileWindowMultiplier", cfg.profileWindowMultiplier);
    w.field("coreStrideBytes", cfg.coreStride);
    w.field("mshrsPerCore", cfg.mshrsPerCore);

    w.key("core").beginObject();
    w.field("issueWidth", cfg.core.issueWidth);
    w.field("robSize", cfg.core.robSize);
    w.endObject();

    w.key("caches").beginObject();
    w.field("l1SizeBytes", cfg.caches.l1.sizeBytes);
    w.field("l1Assoc", cfg.caches.l1.assoc);
    w.field("l2SizeBytes", cfg.caches.l2.sizeBytes);
    w.field("l2Assoc", cfg.caches.l2.assoc);
    w.field("llcSizeBytes", cfg.caches.llc.sizeBytes);
    w.field("llcAssoc", cfg.caches.llc.assoc);
    w.field("l1LatencyCpu", cfg.caches.l1LatencyCpu);
    w.field("l2LatencyCpu", cfg.caches.l2LatencyCpu);
    w.field("llcLatencyCpu", cfg.caches.llcLatencyCpu);
    w.endObject();

    w.key("geometry").beginObject();
    w.field("channels", cfg.geom.channels);
    w.field("ranksPerChannel", cfg.geom.ranksPerChannel);
    w.field("banksPerRank", cfg.geom.banksPerRank);
    w.field("rowsPerBank", cfg.geom.rowsPerBank);
    w.field("rowBytes", cfg.geom.rowBytes);
    w.field("lineBytes", cfg.geom.lineBytes);
    w.endObject();

    w.key("controller").beginObject();
    w.field("readQueueDepth", cfg.ctrl.readQueueDepth);
    w.field("writeQueueDepth", cfg.ctrl.writeQueueDepth);
    w.field("writeHighWatermark", cfg.ctrl.writeHighWatermark);
    w.field("writeLowWatermark", cfg.ctrl.writeLowWatermark);
    w.field("refreshEnabled", cfg.ctrl.refreshEnabled);
    w.field("migrationMaxDefer", cfg.ctrl.migrationMaxDefer);
    w.endObject();

    w.key("layout").beginObject();
    w.field("fastRatioDenom", cfg.layout.fastRatioDenom);
    w.field("groupSize", cfg.layout.groupSize);
    w.endObject();

    w.key("das").beginObject();
    w.field("translationCacheBytes", cfg.das.translationCacheBytes);
    w.field("translationCacheAssoc", cfg.das.translationCacheAssoc);
    w.field("promotionThreshold", cfg.das.promotion.threshold);
    w.field("promotionCounters", cfg.das.promotion.counters);
    w.field("replacement", toString(cfg.das.replacement));
    w.endObject();

    w.key("observability").beginObject();
    w.field("epochMemCycles", cfg.obs.epochMemCycles);
    w.field("statsOut", cfg.obs.statsOut);
    w.field("statsDir", cfg.obs.statsDir);
    w.field("traceOut", cfg.obs.traceOut);
    w.field("traceRequests", cfg.obs.traceRequests);
    w.field("spansOut", cfg.obs.spansOut);
    w.field("label", cfg.obs.label);
    w.endObject();

    w.endObject();
    return w.str();
}

SimConfig
configFromJson(const std::string &text, SimConfig base)
{
    JsonValue root;
    std::string err;
    if (!parseJson(text, root, &err))
        fatal("config: malformed JSON: {}", err);

    SimConfig cfg = std::move(base);
    ObjReader r(root, "config");
    r.str("workload", cfg.workload);
    std::string token;
    r.str("design", token);
    if (!token.empty())
        cfg.design = parseDesign(token);
    r.uns("seed", cfg.seed);
    r.uns("instructionsPerCore", cfg.instructionsPerCore);
    r.num("warmupFraction", cfg.warmupFraction);
    r.num("profileWindowMultiplier", cfg.profileWindowMultiplier);
    r.uns("coreStrideBytes", cfg.coreStride);
    r.uns("mshrsPerCore", cfg.mshrsPerCore);

    if (const JsonValue *v = r.section("core")) {
        ObjReader s(*v, "config.core");
        s.uns("issueWidth", cfg.core.issueWidth);
        s.uns("robSize", cfg.core.robSize);
        s.finish();
    }
    if (const JsonValue *v = r.section("caches")) {
        ObjReader s(*v, "config.caches");
        s.uns("l1SizeBytes", cfg.caches.l1.sizeBytes);
        s.uns("l1Assoc", cfg.caches.l1.assoc);
        s.uns("l2SizeBytes", cfg.caches.l2.sizeBytes);
        s.uns("l2Assoc", cfg.caches.l2.assoc);
        s.uns("llcSizeBytes", cfg.caches.llc.sizeBytes);
        s.uns("llcAssoc", cfg.caches.llc.assoc);
        s.uns("l1LatencyCpu", cfg.caches.l1LatencyCpu);
        s.uns("l2LatencyCpu", cfg.caches.l2LatencyCpu);
        s.uns("llcLatencyCpu", cfg.caches.llcLatencyCpu);
        s.finish();
    }
    if (const JsonValue *v = r.section("geometry")) {
        ObjReader s(*v, "config.geometry");
        s.uns("channels", cfg.geom.channels);
        s.uns("ranksPerChannel", cfg.geom.ranksPerChannel);
        s.uns("banksPerRank", cfg.geom.banksPerRank);
        s.uns("rowsPerBank", cfg.geom.rowsPerBank);
        s.uns("rowBytes", cfg.geom.rowBytes);
        s.uns("lineBytes", cfg.geom.lineBytes);
        s.finish();
    }
    if (const JsonValue *v = r.section("controller")) {
        ObjReader s(*v, "config.controller");
        s.uns("readQueueDepth", cfg.ctrl.readQueueDepth);
        s.uns("writeQueueDepth", cfg.ctrl.writeQueueDepth);
        s.uns("writeHighWatermark", cfg.ctrl.writeHighWatermark);
        s.uns("writeLowWatermark", cfg.ctrl.writeLowWatermark);
        s.boolean("refreshEnabled", cfg.ctrl.refreshEnabled);
        s.uns("migrationMaxDefer", cfg.ctrl.migrationMaxDefer);
        s.finish();
    }
    if (const JsonValue *v = r.section("layout")) {
        ObjReader s(*v, "config.layout");
        s.uns("fastRatioDenom", cfg.layout.fastRatioDenom);
        s.uns("groupSize", cfg.layout.groupSize);
        s.finish();
    }
    if (const JsonValue *v = r.section("das")) {
        ObjReader s(*v, "config.das");
        s.uns("translationCacheBytes", cfg.das.translationCacheBytes);
        s.uns("translationCacheAssoc", cfg.das.translationCacheAssoc);
        s.uns("promotionThreshold", cfg.das.promotion.threshold);
        s.uns("promotionCounters", cfg.das.promotion.counters);
        token.clear();
        s.str("replacement", token);
        if (!token.empty())
            cfg.das.replacement = parseFastReplPolicy(token);
        s.finish();
    }
    if (const JsonValue *v = r.section("observability")) {
        ObjReader s(*v, "config.observability");
        s.uns("epochMemCycles", cfg.obs.epochMemCycles);
        s.str("statsOut", cfg.obs.statsOut);
        s.str("statsDir", cfg.obs.statsDir);
        s.str("traceOut", cfg.obs.traceOut);
        s.num("traceRequests", cfg.obs.traceRequests);
        s.str("spansOut", cfg.obs.spansOut);
        s.str("label", cfg.obs.label);
        s.finish();
    }
    r.finish();
    return cfg;
}

std::uint64_t
configFingerprint(const SimConfig &cfg)
{
    // Canonicalise through the JSON serialisation so the fingerprint
    // follows the config schema automatically; neutralise the fields
    // documented as excluded before hashing.
    SimConfig c = cfg;
    c.obs.statsOut.clear();
    c.obs.statsDir.clear();
    c.obs.traceOut.clear();
    c.obs.spansOut.clear();
    c.obs.workloadName.clear();
    c.obs.label.clear();
    const std::string json = configToJson(c);
    std::uint64_t h = binfmt::fnv1a64(json.data(), json.size());
    // numCores is usually derived from the workload spec and not part
    // of the JSON schema; systems built with explicit traces set it
    // directly, so chain it in.
    const std::uint64_t cores = cfg.numCores;
    return binfmt::fnv1a64(&cores, sizeof(cores), h);
}

} // namespace dasdram
