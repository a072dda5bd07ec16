/**
 * @file
 * Leftover of the removed engine selection. The simulator has one
 * main loop, System::run, which advances one CPU cycle per iteration;
 * SimEngine and parseEngine remain only because the benchmark driver
 * (perfbench/perfbench_run.cc) still assigns SimConfig::engine.
 */

#ifndef DASDRAM_SIM_ENGINE_HH
#define DASDRAM_SIM_ENGINE_HH

#include <string>

namespace dasdram
{

/** The one main loop: one CPU cycle per iteration. */
enum class SimEngine
{
    Tick,
};

/** Parse "tick"; fatal() on anything else (the event engine is gone). */
SimEngine parseEngine(const std::string &name);

} // namespace dasdram

#endif // DASDRAM_SIM_ENGINE_HH
