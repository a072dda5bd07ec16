#include "cli.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"
#include "common/strfmt.hh"

namespace dasdram
{

namespace
{

bool
parseU64Strict(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || end != s.c_str() + s.size() || s[0] == '-')
        return false;
    out = v;
    return true;
}

bool
parseDoubleStrict(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

} // namespace

CliParser::CliParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

CliParser &
CliParser::add(Opt opt)
{
    if (find(opt.name))
        panic("duplicate CLI option '{}'", opt.name);
    opts_.push_back(std::move(opt));
    return *this;
}

CliParser &
CliParser::flag(const std::string &name, const std::string &help,
                const std::string &alias)
{
    return add(Opt{name, alias, "", help, Kind::Flag, false, {}});
}

CliParser &
CliParser::option(const std::string &name, const std::string &value_name,
                  const std::string &help, const std::string &alias)
{
    return add(
        Opt{name, alias, value_name, help, Kind::String, false, {}});
}

CliParser &
CliParser::optionUInt(const std::string &name,
                      const std::string &value_name,
                      const std::string &help, const std::string &alias)
{
    return add(
        Opt{name, alias, value_name, help, Kind::UInt, false, {}});
}

CliParser &
CliParser::optionDouble(const std::string &name,
                        const std::string &value_name,
                        const std::string &help, const std::string &alias)
{
    return add(
        Opt{name, alias, value_name, help, Kind::Double, false, {}});
}

CliParser &
CliParser::positionals(const std::string &value_name,
                       const std::string &help, std::size_t min,
                       std::size_t max)
{
    posName_ = value_name;
    posHelp_ = help;
    posMin_ = min;
    posMax_ = max;
    posDeclared_ = true;
    return *this;
}

CliParser::Opt *
CliParser::find(const std::string &name)
{
    for (Opt &o : opts_) {
        if (o.name == name || (!o.alias.empty() && o.alias == name))
            return &o;
    }
    return nullptr;
}

bool
CliParser::tryParse(int argc, char **argv, std::string &err)
{
    help_ = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            help_ = true;
            return true;
        }
        if (arg.empty() || arg[0] != '-' || arg == "-") {
            positionals_.push_back(arg);
            continue;
        }

        // Accept --flag=value as well as --flag value. Split at the
        // first '=' only, so --set=key=value keeps its key=value part.
        std::string inline_value;
        bool has_inline = false;
        if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
            if (std::size_t eq = arg.find('=');
                eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.erase(eq);
                has_inline = true;
            }
        }

        Opt *opt = find(arg);
        if (!opt) {
            err = formatStr("unknown argument '{}' (try --help)", arg);
            return false;
        }

        if (opt->kind == Kind::Flag) {
            if (has_inline) {
                err = formatStr("'{}' takes no value", arg);
                return false;
            }
            opt->seen = true;
            continue;
        }

        std::string value;
        if (has_inline) {
            value = inline_value;
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            err = formatStr("missing value for {}", opt->name);
            return false;
        }
        if (opt->kind == Kind::UInt) {
            std::uint64_t v;
            if (!parseU64Strict(value, v)) {
                err = formatStr("{} needs an unsigned number, got '{}'",
                                opt->name, value);
                return false;
            }
        } else if (opt->kind == Kind::Double) {
            double v;
            if (!parseDoubleStrict(value, v)) {
                err = formatStr("{} needs a number, got '{}'",
                                opt->name, value);
                return false;
            }
        }
        opt->seen = true;
        opt->values.push_back(std::move(value));
    }

    if (!posDeclared_ && !positionals_.empty()) {
        err = formatStr("unexpected argument '{}'", positionals_[0]);
        return false;
    }
    if (positionals_.size() < posMin_ ||
        (posMax_ != kNoLimit && positionals_.size() > posMax_)) {
        err = posMin_ == posMax_
                  ? formatStr("expected {} {} argument(s), got {}",
                              posMin_, posName_, positionals_.size())
                  : formatStr("expected {} to {} {} argument(s), got {}",
                              posMin_,
                              posMax_ == kNoLimit
                                  ? std::string("unlimited")
                                  : std::to_string(posMax_),
                              posName_, positionals_.size());
        return false;
    }
    return true;
}

void
CliParser::parse(int argc, char **argv)
{
    std::string err;
    if (!tryParse(argc, argv, err))
        fatal("{}\n{}", err, usage());
    if (help_) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
}

std::string
CliParser::usage() const
{
    std::string out = "usage: " + program_ + " [options]";
    if (posDeclared_) {
        out += " <" + posName_ + ">";
        if (posMax_ != 1)
            out += "...";
    }
    out += "\n  " + summary_ + "\n";
    if (posDeclared_ && !posHelp_.empty())
        out += "  <" + posName_ + ">: " + posHelp_ + "\n";
    out += "options:\n";

    std::vector<std::string> lhs;
    std::size_t width = 0;
    for (const Opt &o : opts_) {
        std::string l = "  " + o.name;
        if (!o.alias.empty())
            l += ", " + o.alias;
        if (!o.valueName.empty())
            l += " <" + o.valueName + ">";
        width = std::max(width, l.size());
        lhs.push_back(std::move(l));
    }
    for (std::size_t i = 0; i < opts_.size(); ++i) {
        out += lhs[i];
        out.append(width + 2 - lhs[i].size(), ' ');
        out += opts_[i].help + "\n";
    }
    out += "  --help, -h";
    out.append(width > 12 ? width - 10 : 2, ' ');
    out += "show this help\n";
    return out;
}

bool
CliParser::given(const std::string &name) const
{
    return require(name, Kind::Flag).seen;
}

const CliParser::Opt &
CliParser::require(const std::string &name, Kind kind) const
{
    for (const Opt &o : opts_) {
        if (o.name == name) {
            // given() passes Kind::Flag as a wildcard: presence is
            // meaningful for every option kind.
            if (kind != Kind::Flag && o.kind != kind)
                panic("CLI option '{}' read with the wrong type", name);
            return o;
        }
    }
    panic("CLI option '{}' was never declared", name);
}

std::string
CliParser::str(const std::string &name, const std::string &def) const
{
    const Opt &o = require(name, Kind::String);
    return o.values.empty() ? def : o.values.back();
}

const std::vector<std::string> &
CliParser::strs(const std::string &name) const
{
    return require(name, Kind::String).values;
}

std::uint64_t
CliParser::uns(const std::string &name, std::uint64_t def) const
{
    const Opt &o = require(name, Kind::UInt);
    if (o.values.empty())
        return def;
    std::uint64_t v = 0;
    parseU64Strict(o.values.back(), v); // validated during parse
    return v;
}

double
CliParser::dbl(const std::string &name, double def) const
{
    const Opt &o = require(name, Kind::Double);
    if (o.values.empty())
        return def;
    double v = 0;
    parseDoubleStrict(o.values.back(), v); // validated during parse
    return v;
}

} // namespace dasdram
