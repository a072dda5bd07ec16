#include "config_cli.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"

namespace dasdram
{

void
addConfigOptions(CliParser &cli)
{
    cli.option("--config", "FILE",
               "load a JSON configuration as the new defaults (flags "
               "still override; unknown keys are fatal)")
        .flag("--dump-config",
              "print the effective configuration as JSON and exit");
}

void
loadConfigFile(const CliParser &cli, SimConfig &cfg)
{
    if (!cli.given("--config"))
        return;
    const std::string path = cli.str("--config");
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '{}'", path);
    std::ostringstream ss;
    ss << is.rdbuf();
    cfg = configFromJson(ss.str(), cfg);
}

void
applyConfigAssignment(SimConfig &cfg, const std::string &assignment)
{
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos)
        fatal("malformed --set argument '{}' (need key=value)",
              assignment);
    const std::string path = assignment.substr(0, eq);
    std::string value = assignment.substr(eq + 1);
    JsonValue parsed;
    if (!parseJson(value, parsed))
        value = JsonWriter::quoted(value);

    // "a.b=v" -> {"a":{"b":v}}
    std::string patch;
    std::size_t depth = 0;
    for (std::size_t start = 0;; ++depth) {
        const std::size_t dot = path.find('.', start);
        const std::string key = path.substr(start, dot - start);
        if (key.empty())
            fatal("malformed --set argument '{}' (empty key segment)",
                  assignment);
        patch += "{" + JsonWriter::quoted(key) + ":";
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    patch += value + std::string(depth + 1, '}');
    cfg = configFromJson(patch, cfg);
}

bool
dumpConfigIfRequested(const CliParser &cli, const SimConfig &cfg)
{
    if (!cli.given("--dump-config"))
        return false;
    std::printf("%s\n", configToJson(cfg).c_str());
    return true;
}

} // namespace dasdram
