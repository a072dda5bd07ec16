/**
 * @file
 * Deterministic protocol-fuzz harness: drives randomized synthetic
 * request/migration traffic through a DramSystem with the online
 * ProtocolChecker attached, across all designs and controller-config
 * corners. Every case derives its RNG stream from
 * SweepRunner::pointSeed(base seed, case name, design), so any failure
 * replays from one line:
 *
 *   dasdram_fuzz --seed <base> --requests <n> --filter <case name>
 */

#ifndef DASDRAM_SIM_FUZZ_HH
#define DASDRAM_SIM_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/designs.hh"
#include "core/subarray_layout.hh"
#include "dram/cmd_trace.hh"
#include "dram/controller.hh"
#include "dram/geometry.hh"
#include "dram/timing.hh"

namespace dasdram
{

/** One fuzz scenario: a design, a controller corner and traffic knobs. */
struct FuzzCase
{
    std::string name;                     ///< "<design>/<corner>"
    DesignKind design = DesignKind::Das;
    ControllerConfig ctrl{};
    DramGeometry geom{};
    LayoutConfig layout{};
    MappingScheme mapping = MappingScheme::RoRaBaChCo;

    unsigned requests = 2000;   ///< demand requests to complete
    double writeFraction = 0.3;

    /**
     * Optional workload spec (workload/workload_spec.hh grammar).
     * When non-empty, request addresses and read/write kinds come from
     * the workload's trace stream (round-robin over its parts, mapped
     * into this case's geometry) instead of the synthetic row picker —
     * fuzzing the protocol under realistic access patterns, including
     * external `file:` traces. The RNG still paces bursts and
     * migrations.
     */
    std::string workload;
    /** Per-memory-cycle chance to enqueue a migration/swap job. */
    double migrationChance = 0.0;
    /** Rows per bank the traffic concentrates on (plus a slice at the
     *  top of the bank to hit address-space edges). */
    unsigned rowSpread = 96;
    std::uint64_t seed = 1;     ///< effective per-case seed

    /**
     * When > 0: at this memory cycle the run serializes the DRAM
     * system and the protocol checker through the snapshot codec,
     * destroys them, rebuilds fresh instances (with the harness's
     * completion sink installed on the new DRAM system) and restores
     * — then continues. A checkpoint round trip must be invisible:
     * the report and the complete command trace must match a straight
     * run byte for byte, which is exactly what the differential
     * mode's checkpoint crossing enforces.
     */
    Cycle checkpointAtCycle = 0;

    /**
     * Request-span sampling rate in [0, 1] (mem/request_trace.hh).
     * When > 0 every created request draws a deterministic sampling
     * decision and sampled ones carry a span through the controller;
     * the run reports the emitted span count. Tracing is
     * observation-only, so reports and command traces must be
     * bit-identical for every rate — the differential oracle crosses
     * sampling on/off to enforce exactly that.
     */
    double traceRequests = 0.0;
};

/** Outcome of one fuzz case. */
struct FuzzReport
{
    std::string name;
    std::uint64_t seed = 0;
    std::uint64_t commands = 0;
    std::uint64_t violations = 0;
    std::string firstViolation; ///< "" when clean
    unsigned submitted = 0;
    unsigned completed = 0;
    std::uint64_t migrationsStarted = 0;
    std::uint64_t migrationsDone = 0;
    /** Completed spans observed (traceRequests > 0 only). Excluded
     *  from the differential report diff — the sampled-vs-unsampled
     *  crossing intentionally differs here and only here. */
    std::uint64_t spansEmitted = 0;
    bool drained = false; ///< all traffic completed within the budget

    bool ok() const { return violations == 0 && drained; }
};

/**
 * Run @p c with the reference DDR3-1600 timing on both the controller
 * under test and the checker (the clean configuration: any violation
 * is a controller bug).
 */
FuzzReport runProtocolFuzz(const FuzzCase &c);

/**
 * Run @p c with a split timing: the controller runs @p dut while the
 * checker validates against @p reference. Passing a @p dut with a
 * shortened parameter is how tests prove the harness detects injected
 * timing bugs. @p extra_sink (optional) additionally observes every
 * command (e.g. a CommandTrace).
 */
FuzzReport runProtocolFuzz(const FuzzCase &c, const DramTiming &dut,
                           const DramTiming &reference,
                           CommandSink *extra_sink = nullptr);

/** Outcome of crossing one fuzz case against its straight run. */
struct FuzzDifferential
{
    FuzzReport reference; ///< straight run, sampling off
    bool identical = false;
    /** First difference, "" when identical: a mismatched report field
     *  or the first diverging command-trace line. */
    std::string detail;

    bool ok() const { return identical && reference.ok(); }
};

/**
 * Differential oracle: run @p c straight with span sampling off as the
 * reference, then cross span sampling off/on — at c.traceRequests, or
 * at rate 1 when that is 0 — and, when c.checkpointAtCycle > 0, a
 * mid-run snapshot round trip off/on. Every (rate, checkpoint)
 * combination from {0, rate} × {straight, checkpointed} is compared
 * against the reference (same seed, same timing on controller and
 * checker): the reports and the complete command traces line by line,
 * proving request tracing and checkpoint/restore are both
 * observation-equivalent. Sampled runs must additionally agree on the
 * emitted span count. Any divergence — a command issued at a
 * different cycle, a different completion count, a protocol violation
 * in either run — is reported in `detail`, naming the first diverging
 * combination.
 */
FuzzDifferential runFuzzDifferential(const FuzzCase &c);

/**
 * The standard fuzz grid: designs (standard/sas/charm/das/das-fm/fs) ×
 * controller corners (default, FCFS, closed-page, tiny queues, refresh
 * off, zero migration deferral), with per-case seeds derived from
 * @p base_seed via SweepRunner::pointSeed.
 */
std::vector<FuzzCase> defaultFuzzCases(std::uint64_t base_seed,
                                       unsigned requests);

} // namespace dasdram

#endif // DASDRAM_SIM_FUZZ_HH
