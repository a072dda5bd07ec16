/**
 * @file
 * SweepRunner: the parallel experiment-grid engine.
 *
 * A sweep is a declarative list of (workload × design × config
 * override) points. run() fans the points across a fixed-size
 * std::thread worker pool and returns results in submission order, so
 * the output of a sweep — tables printed from it, JSON lines exported
 * from it — is byte-identical whatever the thread count.
 *
 * Determinism contract (the part tests/sim/test_sweep_determinism.cc
 * guards):
 *  - every point runs in its own System with an effective seed
 *    derived purely from (base seed, workload name, design) via
 *    pointSeed() — never from scheduling, thread identity or shared
 *    RNG state;
 *  - the standard-DRAM baseline of each workload is computed at most
 *    once from the *pristine* base configuration (point overrides are
 *    not applied to it) behind a mutex-guarded memo, so it is the
 *    same whichever point happens to request it first;
 *  - results are collected into a pre-sized vector indexed by
 *    submission order.
 *
 * Per-point overrides therefore must not change standard-DRAM
 * behaviour (they are meant for DAS-side knobs: promotion threshold,
 * translation-cache capacity, fast ratio, replacement policy...).
 * Anything that changes the baseline — instruction budget, warm-up,
 * geometry, cache sizes — belongs in the base configuration of a
 * separate sweep.
 */

#ifndef DASDRAM_SIM_SWEEP_HH
#define DASDRAM_SIM_SWEEP_HH

#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace dasdram
{

/** Mutates a point's SimConfig before the run (may be empty). */
using ConfigOverride = std::function<void(SimConfig &)>;

/** One grid point of a sweep. */
struct SweepPoint
{
    WorkloadSpec workload;
    DesignKind design = DesignKind::Das;
    ConfigOverride override; ///< DAS-side knobs only (see file header)
    std::string label;       ///< free-form tag exported with the result

    /**
     * When false, the standard-DRAM baseline is neither computed nor
     * consulted for this point and perfImprovement stays 0 — for
     * callers that only want the raw metrics of one run.
     */
    bool needBaseline = true;
};

/**
 * Parallel driver for a grid of independent experiment points.
 * Construct, add() points, run() once. A SweepRunner is single-use:
 * run() may only be called once.
 */
class SweepRunner
{
  public:
    /**
     * @param base configuration shared by every point (including the
     *        base seed the per-point seeds derive from).
     * @param jobs worker threads; 0 means resolveJobs(0): the DAS_JOBS
     *        environment variable if set, else the hardware thread
     *        count.
     */
    explicit SweepRunner(SimConfig base, unsigned jobs = 0);

    /** Append a point; returns its submission index. */
    std::size_t add(SweepPoint point);
    std::size_t add(const WorkloadSpec &workload, DesignKind design,
                    ConfigOverride override = {}, std::string label = {});

    /**
     * Run all points and return their results in submission order.
     * Byte-identical output for any jobs value.
     */
    std::vector<ExperimentResult> run();

    const SimConfig &baseConfig() const { return base_; }
    unsigned jobs() const { return jobs_; }
    std::size_t size() const { return points_.size(); }

    /**
     * Enable warm-start checkpoint sharing for every point (baselines
     * included): each run forks from the warmed snapshot of its config
     * fingerprint under @p dir when one exists, and publishes its own
     * otherwise — so re-running a sweep against the same directory
     * skips all warm-up re-simulation while producing bit-identical
     * results (see runSimulation()). Call before run().
     */
    void setWarmStartDir(std::string dir) { warmDir_ = std::move(dir); }

    /**
     * Effective worker count for a requested value: @p requested if
     * non-zero, else the DAS_JOBS environment variable (a positive
     * integer; anything else is fatal), else
     * std::thread::hardware_concurrency(), floored at 1.
     */
    static unsigned resolveJobs(unsigned requested);

    /**
     * The per-point seed: a splitmix64-style mix of the base seed, an
     * FNV-1a hash of the workload name, and the design. Identical
     * inputs give identical seeds on every platform; any input change
     * decorrelates the stream. Points of the same (workload, design)
     * with different overrides share a seed on purpose, so parameter
     * sweeps are paired comparisons.
     */
    static std::uint64_t pointSeed(std::uint64_t base_seed,
                                   const std::string &workload,
                                   DesignKind design);

  private:
    ExperimentResult runPoint(const SweepPoint &point,
                              std::size_t index);
    RunMetrics baselineFor(const WorkloadSpec &workload);

    SimConfig base_;
    unsigned jobs_;
    std::string warmDir_; ///< warm-start checkpoint dir (empty: off)
    std::vector<SweepPoint> points_;
    bool ran_ = false;

    std::mutex mutex_; ///< guards baselines_
    std::map<std::string, std::shared_future<RunMetrics>> baselines_;
    EnergyParams energyParams_{};
};

/**
 * Serialise one result as a compact single-line JSON object (no
 * trailing newline). Deterministic: the same result always produces
 * the same bytes. See DESIGN.md for the schema.
 */
std::string toJsonLine(const ExperimentResult &result);

/** Write results as JSON lines (one object per line). */
void writeJsonLines(std::ostream &os,
                    const std::vector<ExperimentResult> &results);

} // namespace dasdram

#endif // DASDRAM_SIM_SWEEP_HH
