/**
 * @file
 * Tests for the shared CliParser: both value spellings, aliases,
 * strict numeric validation (the class of bug that made
 * dasdram_compare accept `--tolerance abc` as 0), repeatable options,
 * positional-count enforcement and the tryParse/parse split.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli.hh"

using namespace dasdram;

namespace
{

/** Run tryParse over @p args (argv[0] is added). */
bool
tryArgs(CliParser &cli, std::vector<std::string> args, std::string &err)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return cli.tryParse(static_cast<int>(argv.size()), argv.data(), err);
}

CliParser
makeParser()
{
    CliParser cli("prog", "test parser");
    cli.flag("--quiet", "say less", "-q")
        .option("--name", "STR", "a string")
        .option("--metric", "NAME", "repeatable")
        .optionUInt("--count", "N", "a number")
        .optionDouble("--ratio", "X", "a double");
    return cli;
}

} // namespace

TEST(Cli, FlagsAndAliases)
{
    CliParser cli = makeParser();
    std::string err;
    ASSERT_TRUE(tryArgs(cli, {"-q"}, err)) << err;
    EXPECT_TRUE(cli.given("--quiet"));
    EXPECT_FALSE(cli.given("--name"));
}

TEST(Cli, BothValueSpellings)
{
    {
        CliParser cli = makeParser();
        std::string err;
        ASSERT_TRUE(tryArgs(cli, {"--name", "alpha"}, err)) << err;
        EXPECT_EQ(cli.str("--name"), "alpha");
    }
    {
        CliParser cli = makeParser();
        std::string err;
        ASSERT_TRUE(tryArgs(cli, {"--name=beta"}, err)) << err;
        EXPECT_EQ(cli.str("--name"), "beta");
    }
}

TEST(Cli, LastOccurrenceWinsAndStrsKeepsAll)
{
    CliParser cli = makeParser();
    std::string err;
    ASSERT_TRUE(
        tryArgs(cli, {"--metric", "a", "--metric=b", "--metric", "c"},
                err))
        << err;
    EXPECT_EQ(cli.str("--metric"), "c");
    ASSERT_EQ(cli.strs("--metric").size(), 3u);
    EXPECT_EQ(cli.strs("--metric")[1], "b");
}

TEST(Cli, StrictUnsignedValidation)
{
    CliParser cli = makeParser();
    std::string err;
    ASSERT_TRUE(tryArgs(cli, {"--count", "0x10"}, err)) << err;
    EXPECT_EQ(cli.uns("--count", 0), 16u);

    for (const char *bad : {"12x", "abc", "", "-3", "1.5"}) {
        CliParser c = makeParser();
        EXPECT_FALSE(tryArgs(c, {"--count", bad}, err)) << bad;
        EXPECT_NE(err.find("--count"), std::string::npos) << err;
    }
}

TEST(Cli, StrictDoubleValidation)
{
    CliParser cli = makeParser();
    std::string err;
    ASSERT_TRUE(tryArgs(cli, {"--ratio", "1e-6"}, err)) << err;
    EXPECT_DOUBLE_EQ(cli.dbl("--ratio", 0.0), 1e-6);

    for (const char *bad : {"abc", "1.5x", ""}) {
        CliParser c = makeParser();
        EXPECT_FALSE(tryArgs(c, {"--ratio", bad}, err)) << bad;
    }
}

TEST(Cli, UnknownOptionAndMissingValueAreErrors)
{
    CliParser cli = makeParser();
    std::string err;
    EXPECT_FALSE(tryArgs(cli, {"--bogus"}, err));
    EXPECT_NE(err.find("--bogus"), std::string::npos);

    CliParser cli2 = makeParser();
    EXPECT_FALSE(tryArgs(cli2, {"--name"}, err));
    EXPECT_NE(err.find("--name"), std::string::npos);

    // There is no --no- prefix: it is an unknown option like any other.
    CliParser cli3 = makeParser();
    EXPECT_FALSE(tryArgs(cli3, {"--no-check"}, err));
    EXPECT_NE(err.find("unknown argument '--no-check'"), std::string::npos)
        << err;
}

TEST(Cli, PositionalCountsEnforced)
{
    {
        // No positionals declared: any bare argument is an error.
        CliParser cli = makeParser();
        std::string err;
        EXPECT_FALSE(tryArgs(cli, {"stray"}, err));
    }
    {
        CliParser cli("prog", "t");
        cli.positionals("file", "input files", 2, 2);
        std::string err;
        EXPECT_FALSE(tryArgs(cli, {"a"}, err));
        CliParser cli2("prog", "t");
        cli2.positionals("file", "input files", 2, 2);
        EXPECT_FALSE(tryArgs(cli2, {"a", "b", "c"}, err));
        CliParser cli3("prog", "t");
        cli3.positionals("file", "input files", 2, 2);
        ASSERT_TRUE(tryArgs(cli3, {"a", "b"}, err)) << err;
        ASSERT_EQ(cli3.positionalValues().size(), 2u);
        EXPECT_EQ(cli3.positionalValues()[0], "a");
    }
}

TEST(Cli, HelpSetsFlagWithoutFailing)
{
    CliParser cli = makeParser();
    std::string err;
    ASSERT_TRUE(tryArgs(cli, {"--help"}, err)) << err;
    EXPECT_TRUE(cli.helpRequested());

    std::string usage = cli.usage();
    for (const char *needle :
         {"--quiet", "--ratio", "--name", "--count", "test parser"})
        EXPECT_NE(usage.find(needle), std::string::npos) << needle;
}

TEST(Cli, ParseIsFatalOnUsageError)
{
    CliParser cli = makeParser();
    std::string arg0 = "prog", arg1 = "--bogus";
    char *argv[] = {arg0.data(), arg1.data()};
    EXPECT_DEATH(cli.parse(2, argv), "bogus");
}
