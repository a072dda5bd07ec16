/**
 * @file
 * Setting up and running one simulation point: builds the workload's
 * traces (single benchmarks, Table 2 mixes or trace files) and the
 * System, runs the profiling pre-pass the static designs need, and
 * runs the point. prepareRun() is the one place a point is set up;
 * runSimulation() (used by SweepRunner, sim/sweep.hh) and
 * dasdram_run's direct run both go through it. Improvement metrics
 * relative to the standard-DRAM baseline are computed here too.
 */

#ifndef DASDRAM_SIM_EXPERIMENT_HH
#define DASDRAM_SIM_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workload/trace_file.hh"
#include "workload/workload_spec.hh"

namespace dasdram
{

/** One (workload, design) data point. */
struct ExperimentResult
{
    std::string workload;
    DesignKind design = DesignKind::Standard;
    std::string label;      ///< sweep tag, e.g. "th=4" (may be empty)
    std::uint64_t seed = 0; ///< SweepRunner::pointSeed of the point
    RunMetrics metrics;

    /**
     * Weighted-speedup improvement over standard DRAM:
     * mean_i(IPC_i/IPC_i^std) - 1. For one core this is the plain IPC
     * improvement of Figures 7a/8a/9.
     */
    double perfImprovement = 0.0;

    /** DRAM dynamic energy per access in nJ (Section 7.7). */
    double energyPerAccessNj = 0.0;
};

/**
 * A simulation point ready to run. The System reads the traces (or the
 * recorders wrapping them), so it is declared last and destroyed first.
 */
struct PreparedRun
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    /** One per core when recording, else empty. close() after run(). */
    std::vector<std::unique_ptr<TraceRecorder>> recorders;
    std::unique_ptr<System> system;
};

/**
 * Set up @p workload on the exact configuration @p cfg (design field
 * honoured, numCores and obs.workloadName taken from the workload):
 * deterministic per-core traces from cfg.seed, and the System.
 *
 * With a non-empty @p record_prefix every core's delivered trace is
 * captured to `<prefix>.core<i>.dastrace` (binary format) for later
 * `file:` replay; the static-design profiling pre-pass is excluded
 * from the capture, so replaying reproduces the measured run exactly.
 *
 * With a non-empty @p restore_path the System resumes from that
 * snapshot (System::loadSnapshot), which already holds the static
 * profile; otherwise designs that need one get the profiling pre-pass
 * over the same instruction window. Callers do not combine recording
 * with restoring: recorder file positions are not part of a snapshot.
 */
PreparedRun prepareRun(const WorkloadSpec &workload, const SimConfig &cfg,
                       const std::string &record_prefix = "",
                       const std::string &restore_path = "");

/**
 * Set up (prepareRun) and run @p workload on @p cfg. This is a pure
 * function of its arguments — the foundation of the sweep engine's
 * determinism guarantee — and is safe to call from many threads at
 * once (each call owns its System).
 *
 * With a non-empty @p warm_dir the run participates in warm-start
 * checkpoint sharing: the directory holds one warmed snapshot per
 * config fingerprint (`warm_<fingerprint>.ckpt`, see
 * configFingerprint()). If the snapshot for this run's fingerprint
 * exists the run restores from it — skipping trace warm-up and the
 * profiling pre-pass, whose results are part of the snapshot — and
 * simulates only the measured window; otherwise the run executes
 * normally and publishes its post-warm-up state for later runs.
 * Either way the metrics are bit-identical to a cold run. Not
 * combinable with @p record_prefix.
 */
RunMetrics runSimulation(const WorkloadSpec &workload,
                         const SimConfig &cfg,
                         const std::string &record_prefix = "",
                         const std::string &warm_dir = "");

/** mean_i(IPC_i / baselineIPC_i) - 1 (zero-IPC baselines count as 1). */
double weightedSpeedupImprovement(const RunMetrics &metrics,
                                  const RunMetrics &baseline);

/** Geometric mean of (1 + improvement) minus 1 over @p improvements. */
double gmeanImprovement(const std::vector<double> &improvements);

/**
 * Leftover of the removed single-point driver: the benchmark driver
 * (perfbench/perfbench_run.cc) still calls
 * ExperimentRunner::gmeanImprovement. New code calls the free
 * function above.
 */
struct ExperimentRunner
{
    static double
    gmeanImprovement(const std::vector<double> &improvements)
    {
        return dasdram::gmeanImprovement(improvements);
    }
};

} // namespace dasdram

#endif // DASDRAM_SIM_EXPERIMENT_HH
