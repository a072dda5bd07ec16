/**
 * @file
 * Set-up shared by the benchmark programs: a System with the traces it
 * reads, and the static-profile pre-pass of the designs that need one,
 * both as runSimulation does them (minus its warm-start bookkeeping).
 */

#pragma once

#include <memory>
#include <vector>

#include "core/static_profile.hh"
#include "dram/address_mapping.hh"
#include "sim/experiment.hh"

namespace perfbench
{

using namespace dasdram;

struct Built
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::unique_ptr<System> sys;
};

inline Built
build(const WorkloadSpec &w, SimConfig cfg)
{
    cfg.numCores = w.numCores();
    cfg.obs.workloadName = w.name;
    Built b;
    b.traces = buildTraces(w, cfg.seed, cfg.geom.rowBytes,
                           cfg.geom.lineBytes);
    std::vector<TraceSource *> ptrs;
    for (auto &t : b.traces)
        ptrs.push_back(t.get());
    b.sys = std::make_unique<System>(cfg, ptrs);
    return b;
}

/** Profile every core's trace over the profile window, rewind the
 *  traces and assign the hot rows to fast subarrays. */
inline void
staticProfile(Built &b)
{
    const SimConfig &cfg = b.sys->config();
    AddressMapper mapper(cfg.geom);
    StaticProfiler profiler(mapper, b.sys->layout());
    auto window = static_cast<InstCount>(
        cfg.profileWindowMultiplier *
        static_cast<double>(cfg.instructionsPerCore));
    for (unsigned c = 0; c < b.traces.size(); ++c) {
        profiler.profile(*b.traces[c], window, cfg.coreBase(c));
        b.traces[c]->reset();
    }
    profiler.assign(b.sys->manager().table());
}

} // namespace perfbench
