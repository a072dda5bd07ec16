#include "experiment.hh"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include <sys/stat.h>

#include "common/log.hh"
#include "common/strfmt.hh"
#include "core/static_profile.hh"
#include "dram/address_mapping.hh"

namespace dasdram
{

namespace
{

/** `warm_<16 hex digits>.ckpt` under @p dir for fingerprint @p fp. */
std::string
warmCheckpointPath(const std::string &dir, std::uint64_t fp)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp));
    return dir + "/warm_" + hex + ".ckpt";
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path, std::ios::binary).good();
}

/** @p cfg as run for @p workload: core count and run identity. */
SimConfig
pointConfig(const WorkloadSpec &workload, SimConfig cfg)
{
    cfg.numCores = workload.numCores();
    cfg.obs.workloadName = workload.name;
    return cfg;
}

} // namespace

PreparedRun
prepareRun(const WorkloadSpec &workload, const SimConfig &cfg_in,
           const std::string &record_prefix,
           const std::string &restore_path)
{
    const SimConfig cfg = pointConfig(workload, cfg_in);

    // Deterministic per-(workload, core) traces.
    PreparedRun run;
    run.traces = buildTraces(workload, cfg.seed, cfg.geom.rowBytes,
                             cfg.geom.lineBytes);
    std::vector<TraceSource *> trace_ptrs;
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        TraceSource *src = run.traces[i].get();
        if (!record_prefix.empty()) {
            run.recorders.push_back(std::make_unique<TraceRecorder>(
                *src,
                formatStr("{}.core{}.dastrace", record_prefix, i)));
            src = run.recorders.back().get();
        }
        trace_ptrs.push_back(src);
    }

    run.system = std::make_unique<System>(cfg, trace_ptrs);
    System &sys = *run.system;

    if (!restore_path.empty()) {
        // The snapshot already holds the static profile.
        sys.loadSnapshot(restore_path);
    } else if (designSpec(cfg.design).needsProfiling) {
        // Profiling pass over the same instruction window (Section 7:
        // workloads are profiled first for the static baselines).
        AddressMapper mapper(cfg.geom);
        StaticProfiler profiler(mapper, sys.layout());
        auto profile_window = static_cast<InstCount>(
            cfg.profileWindowMultiplier *
            static_cast<double>(cfg.instructionsPerCore));
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            profiler.profile(*trace_ptrs[i], profile_window,
                             cfg.coreBase(i));
            trace_ptrs[i]->reset();
        }
        profiler.assign(sys.manager().table());
    }
    return run;
}

RunMetrics
runSimulation(const WorkloadSpec &workload, const SimConfig &cfg,
              const std::string &record_prefix,
              const std::string &warm_dir)
{
    // Warm-start: fork from the shared warmed snapshot of this config
    // fingerprint if one exists, else publish ours once warm-up
    // completes. The temp-file + rename dance keeps concurrent points
    // with the same fingerprint safe: renames are atomic and every
    // writer produces identical bytes (the snapshot is deterministic).
    std::string warm_path;
    bool restoring = false;
    if (!warm_dir.empty()) {
        if (!record_prefix.empty())
            fatal("trace recording cannot be combined with warm-start "
                  "checkpoints (recorder file positions are not part "
                  "of a snapshot)");
        if (::mkdir(warm_dir.c_str(), 0777) != 0 && errno != EEXIST)
            fatal("cannot create warm-start directory '{}'", warm_dir);
        warm_path = warmCheckpointPath(
            warm_dir, configFingerprint(pointConfig(workload, cfg)));
        restoring = fileExists(warm_path);
    }

    PreparedRun run = prepareRun(workload, cfg, record_prefix,
                                 restoring ? warm_path : "");
    std::string warm_tmp;
    if (!warm_path.empty() && !restoring) {
        static std::atomic<unsigned> tmp_seq{0};
        warm_tmp = formatStr("{}.tmp{}", warm_path, tmp_seq.fetch_add(1));
        run.system->checkpointAtWarmup(warm_tmp);
    }

    RunMetrics metrics = run.system->run();
    if (!warm_tmp.empty() &&
        std::rename(warm_tmp.c_str(), warm_path.c_str()) != 0)
        fatal("cannot publish warm-start checkpoint '{}'", warm_path);
    for (auto &rec : run.recorders)
        rec->close();
    return metrics;
}

double
weightedSpeedupImprovement(const RunMetrics &metrics,
                           const RunMetrics &baseline)
{
    if (metrics.ipc.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < metrics.ipc.size(); ++i) {
        double b = i < baseline.ipc.size() ? baseline.ipc[i] : 0.0;
        sum += b > 0.0 ? metrics.ipc[i] / b : 1.0;
    }
    return sum / static_cast<double>(metrics.ipc.size()) - 1.0;
}

double
gmeanImprovement(const std::vector<double> &improvements)
{
    if (improvements.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : improvements)
        log_sum += std::log(std::max(1e-9, 1.0 + x));
    return std::exp(log_sum / static_cast<double>(improvements.size())) -
           1.0;
}

} // namespace dasdram
