/**
 * @file
 * Top-level simulation configuration, defaulting to the paper's
 * Table 1 system: 3 GHz 4-wide cores with 192-entry ROBs; 64 KB L1 /
 * 256 KB L2 private, 4 MB shared LLC; FR-FCFS open-page controllers
 * with 32-entry queues; two 4 GB DDR3-1600 DIMMs over 2 channels ×
 * 2 ranks; DAS layout 1/8 fast with 32-row migration groups and a
 * 128 KB translation cache.
 */

#ifndef DASDRAM_SIM_SIM_CONFIG_HH
#define DASDRAM_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/hierarchy.hh"
#include "core/das_manager.hh"
#include "core/designs.hh"
#include "core/subarray_layout.hh"
#include "cpu/core.hh"
#include "dram/controller.hh"
#include "dram/geometry.hh"
#include "sim/engine.hh"

namespace dasdram
{

/**
 * Observability knobs: the epoch time-series, request sampling and
 * the export files. Everything is per-System (sweep-safe); empty
 * paths and epochMemCycles == 0 disable the corresponding feature at
 * zero cost on the sample path. Latency histograms and the protocol
 * checker have no switch: every run samples and checks.
 */
struct ObservabilityConfig
{
    /** Epoch length of the stats time-series in memory-controller
     *  cycles (1.25 ns each); 0 disables the series. */
    Cycle epochMemCycles = 0;

    /** Stats-JSONL output path (see common/stats_jsonl.hh); written at
     *  end of run. Empty = off. */
    std::string statsOut;

    /**
     * Sweep mode: when non-empty, SweepRunner derives a unique
     * per-point statsOut under this (existing) directory —
     * point<idx>_<workload>_<design>[_<label>].jsonl, plus
     * baseline_<workload>.jsonl for memoised standard baselines.
     * Ignored by a System run directly.
     */
    std::string statsDir;

    /** Chrome trace_event JSON output path (dram/trace_json.hh);
     *  streamed during the run. Empty = off. */
    std::string traceOut;

    /**
     * Request-lifecycle tracing sample rate in [0, 1]: the fraction
     * of memory requests that carry a span record through the
     * controller (mem/request_trace.hh). 0 (default) disables the
     * tracer entirely — no sampler, no per-request pointer checks
     * beyond a null test. Sampling is deterministic in (seed, rate).
     */
    double traceRequests = 0.0;

    /** Span-JSONL output path (schema dasdram-spans); streamed during
     *  the run. Empty = off. Requires traceRequests > 0 to emit. */
    std::string spansOut;

    /** Run identity stamped into the stats meta record. */
    std::string workloadName;
    std::string label;
};

/** Everything needed to build one System. */
struct SimConfig
{
    /**
     * Workload spec string (workload/workload_spec.hh grammar).
     * The tools parse it into the WorkloadSpec they run, and
     * prepareRun (sim/experiment.hh) derives numCores from that
     * spec's part count. System never reads it: it runs the traces
     * it is given.
     */
    std::string workload = "mcf";

    unsigned numCores = 1;
    CoreConfig core{};
    HierarchyConfig caches{};
    DramGeometry geom{};
    ControllerConfig ctrl{};
    LayoutConfig layout{};
    DasConfig das{};
    DesignKind design = DesignKind::Das;

    /** Read by nothing; kept only because the frozen benchmark
     *  (perfbench/) assigns it. */
    SimEngine engine = SimEngine::Tick;

    /** Per-core instruction target (warm-up included). */
    InstCount instructionsPerCore = 10'000'000;

    /** Leading fraction of instructions excluded from statistics. */
    double warmupFraction = 0.2;

    /**
     * Profiling window of the static baselines as a multiple of the
     * measured run: lifetime profiling spans more program phases than
     * any one measured episode (Section 7.1's static-vs-dynamic gap).
     */
    double profileWindowMultiplier = 8.0;

    /** Base of core @p i's address region. */
    Addr coreStride = 1 * GiB;

    /** Deterministic seed for workload generation etc. */
    std::uint64_t seed = 42;

    /** MSHR entries (outstanding line fills) per core. */
    unsigned mshrsPerCore = 32;

    /** Epoch series, request sampling and export files. */
    ObservabilityConfig obs{};

    Addr
    coreBase(unsigned core_id) const
    {
        return static_cast<Addr>(core_id) * coreStride;
    }

    InstCount
    warmupInstructions() const
    {
        return static_cast<InstCount>(
            warmupFraction * static_cast<double>(instructionsPerCore));
    }
};

/**
 * Apply the environment scale factor DAS_SIM_SCALE (a positive double)
 * to @p cfg's instruction target; used by tests and benches to trade
 * fidelity for speed. Returns the factor applied (1 when unset); a
 * malformed, zero or negative value is fatal.
 */
double applySimScale(SimConfig &cfg);

/** Serialise @p cfg to compact JSON (configFromJson reads it back). */
std::string configToJson(const SimConfig &cfg);

/**
 * Parse a configuration from JSON text produced by configToJson (or
 * hand-written with the same keys). Keys are optional — missing ones
 * keep the default in @p base — but unknown keys are fatal, so typos
 * never silently run the default. Returns the merged configuration.
 */
SimConfig configFromJson(const std::string &text, SimConfig base = {});

/**
 * Deterministic fingerprint of every configuration field that shapes
 * simulated state. Excluded: the export destinations (statsOut,
 * statsDir, traceOut, spansOut) and the run-identity strings
 * (workloadName, label) — none affects state, so a checkpoint can be
 * restored under a different output set. Everything else
 * participates, including observability knobs that change the
 * serialised shape (epochMemCycles, traceRequests).
 * Stamped into checkpoints and enforced at load.
 */
std::uint64_t configFingerprint(const SimConfig &cfg);

} // namespace dasdram

#endif // DASDRAM_SIM_SIM_CONFIG_HH
