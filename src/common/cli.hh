/**
 * @file
 * Shared command-line parsing for every front-end binary (tools/ and
 * bench/). One declarative parser replaces the hand-rolled argv loops
 * that used to be duplicated per binary, and fixes their shared bugs
 * in one place: every value-taking option accepts both `--flag value`
 * and `--flag=value`, numeric values are validated strictly (a
 * malformed number is a usage error, never silently 0), and `--help`
 * prints a usage text generated from the declarations.
 *
 * Two parse entry points:
 *  - parse()    — fatal() on any usage error (exit 1), prints usage
 *                 and exits 0 on --help; what interactive tools want.
 *  - tryParse() — returns false with a reason; for binaries with a
 *                 documented usage-error exit status (dasdram_compare
 *                 exits 2).
 */

#ifndef DASDRAM_COMMON_CLI_HH
#define DASDRAM_COMMON_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dasdram
{

class CliParser
{
  public:
    /** @param summary one-line description shown at the top of --help. */
    CliParser(std::string program, std::string summary);

    /// @name Option declaration (before parse; name includes "--")
    /// @{

    /** Boolean flag, e.g. flag("--quiet", "..."). Optional short
     *  @p alias, e.g. "-q". */
    CliParser &flag(const std::string &name, const std::string &help,
                    const std::string &alias = "");

    /** String-valued option (last occurrence wins; see strs() for
     *  repeatable use). */
    CliParser &option(const std::string &name,
                      const std::string &value_name,
                      const std::string &help,
                      const std::string &alias = "");

    /** Unsigned option; the value must parse fully as decimal or 0x
     *  hex (validated at parse time). */
    CliParser &optionUInt(const std::string &name,
                          const std::string &value_name,
                          const std::string &help,
                          const std::string &alias = "");

    /** Floating-point option (strictly validated at parse time). */
    CliParser &optionDouble(const std::string &name,
                            const std::string &value_name,
                            const std::string &help,
                            const std::string &alias = "");

    /** Accept min..max positional (non-dash) arguments. Without this
     *  declaration positionals are usage errors. kNoLimit = no max. */
    static constexpr std::size_t kNoLimit = ~std::size_t(0);
    CliParser &positionals(const std::string &value_name,
                           const std::string &help, std::size_t min,
                           std::size_t max = kNoLimit);

    /// @}
    /// @name Parsing
    /// @{

    /** Fatal on usage errors; on --help prints usage and exits 0. */
    void parse(int argc, char **argv);

    /**
     * Non-fatal variant: false with a reason in @p err on usage
     * errors. --help sets helpRequested() and returns true without
     * printing — the caller decides the exit path.
     */
    bool tryParse(int argc, char **argv, std::string &err);

    bool helpRequested() const { return help_; }

    /** The generated usage text. */
    std::string usage() const;

    /// @}
    /// @name Results (after parse)
    /// @{

    /** True when the option or flag appeared at least once. */
    bool given(const std::string &name) const;

    /** Last value of a string option, or @p def when absent. */
    std::string str(const std::string &name,
                    const std::string &def = "") const;

    /** Every occurrence of a (repeatable) option, in order. */
    const std::vector<std::string> &strs(const std::string &name) const;

    /** Last value of an unsigned option, or @p def when absent. */
    std::uint64_t uns(const std::string &name, std::uint64_t def) const;

    /** Last value of a double option, or @p def when absent. */
    double dbl(const std::string &name, double def) const;

    const std::vector<std::string> &positionalValues() const
    {
        return positionals_;
    }

    /// @}

  private:
    enum class Kind
    {
        Flag,
        String,
        UInt,
        Double,
    };

    struct Opt
    {
        std::string name;
        std::string alias;
        std::string valueName;
        std::string help;
        Kind kind = Kind::Flag;
        bool seen = false;
        std::vector<std::string> values;
    };

    CliParser &add(Opt opt);
    Opt *find(const std::string &name);
    const Opt &require(const std::string &name, Kind kind) const;

    std::string program_;
    std::string summary_;
    std::vector<Opt> opts_;
    std::string posName_;
    std::string posHelp_;
    std::size_t posMin_ = 0;
    std::size_t posMax_ = 0;
    bool posDeclared_ = false;
    std::vector<std::string> positionals_;
    bool help_ = false;
};

} // namespace dasdram

#endif // DASDRAM_COMMON_CLI_HH
