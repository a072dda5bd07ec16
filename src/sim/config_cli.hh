/**
 * @file
 * The uniform --config/--dump-config command-line protocol shared by
 * every dasdram tool.
 *
 * Protocol (identical in all five tools):
 *   --config FILE    load FILE as a JSON configuration over the tool's
 *                    defaults. Unknown keys are fatal, so typos and
 *                    files from newer builds fail loudly instead of
 *                    being silently ignored. Flags still override the
 *                    loaded values.
 *   --dump-config    print the complete effective configuration as
 *                    JSON and exit 0 — the output round-trips through
 *                    --config on any tool.
 *
 * Usage pattern:
 *   addConfigOptions(cli);
 *   cli.parse(argc, argv);
 *   SimConfig cfg;           // tool defaults
 *   loadConfigFile(cli, cfg);
 *   ... apply flag overrides to cfg ...
 *   if (dumpConfigIfRequested(cli, cfg))
 *       return 0;
 */

#ifndef DASDRAM_SIM_CONFIG_CLI_HH
#define DASDRAM_SIM_CONFIG_CLI_HH

#include <string>

#include "common/cli.hh"
#include "sim/sim_config.hh"

namespace dasdram
{

/** Register --config and --dump-config on @p cli. */
void addConfigOptions(CliParser &cli);

/**
 * Load the --config file (if given) over @p cfg via configFromJson —
 * unknown keys fatal, missing file fatal. No-op without --config.
 */
void loadConfigFile(const CliParser &cli, SimConfig &cfg);

/**
 * Apply one "key=value" override (dasdram_run --set) through
 * configFromJson, so it obeys the same rules as --config: the key is a
 * dotted --dump-config path ("das.promotionThreshold=4" becomes
 * {"das":{"promotionThreshold":4}}), unknown keys are fatal, and a
 * value that does not parse as JSON is taken as a string
 * ("das.replacement=random"). A missing '=' or an empty key segment
 * is fatal too.
 */
void applyConfigAssignment(SimConfig &cfg, const std::string &assignment);

/**
 * With --dump-config: print configToJson(@p cfg) to stdout and return
 * true (the caller should exit 0). Returns false otherwise.
 */
bool dumpConfigIfRequested(const CliParser &cli, const SimConfig &cfg);

} // namespace dasdram

#endif // DASDRAM_SIM_CONFIG_CLI_HH
