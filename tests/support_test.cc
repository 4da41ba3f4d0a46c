/**
 * @file
 * Unit tests for the support library: units, logging, Expected,
 * RNG, histogram, table and CSV helpers, and the flag parser.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/csv.hh"
#include "support/expected.hh"
#include "support/flags.hh"
#include "support/histogram.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;

// ---------------------------------------------------------------- units

TEST(Units, Literals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(80_GiB, Bytes{80} * 1024 * 1024 * 1024);
}

TEST(Units, RoundUp)
{
    EXPECT_EQ(roundUp(0, 512), 0u);
    EXPECT_EQ(roundUp(1, 512), 512u);
    EXPECT_EQ(roundUp(512, 512), 512u);
    EXPECT_EQ(roundUp(513, 512), 1024u);
    EXPECT_EQ(roundUp(3_MiB, 2_MiB), 4_MiB);
}

TEST(Units, RoundDown)
{
    EXPECT_EQ(roundDown(1023, 512), 512u);
    EXPECT_EQ(roundDown(512, 512), 512u);
    EXPECT_EQ(roundDown(511, 512), 0u);
}

TEST(Units, IsAligned)
{
    EXPECT_TRUE(isAligned(4_MiB, 2_MiB));
    EXPECT_FALSE(isAligned(3_MiB, 2_MiB));
    EXPECT_FALSE(isAligned(4_MiB, 0));
}

// -------------------------------------------------------------- logging

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(GMLAKE_PANIC("boom ", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(GMLAKE_FATAL("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(GMLAKE_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(GMLAKE_ASSERT(false, "nope"), std::logic_error);
}

// ------------------------------------------------------------- expected

TEST(Expected, HoldsValue)
{
    Expected<int> e(7);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(*e, 7);
    EXPECT_EQ(e.code(), Errc::ok);
}

TEST(Expected, HoldsError)
{
    Expected<int> e(makeError(Errc::outOfMemory, "full"));
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.code(), Errc::outOfMemory);
    EXPECT_EQ(e.error().message, "full");
}

TEST(Expected, ValueOnErrorPanics)
{
    Expected<int> e(makeError(Errc::invalidValue, "x"));
    EXPECT_THROW(e.value(), std::logic_error);
}

TEST(Expected, StatusSuccessAndError)
{
    Status ok = Status::success();
    EXPECT_TRUE(ok.ok());
    Status bad(makeError(Errc::notMapped, "y"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), Errc::notMapped);
}

TEST(Expected, ErrcNamesCoverAllCodes)
{
    for (Errc e : {Errc::ok, Errc::outOfMemory, Errc::invalidValue,
                   Errc::alreadyMapped, Errc::notMapped,
                   Errc::notReserved, Errc::handleInUse,
                   Errc::addressSpaceFull}) {
        EXPECT_STRNE(errcName(e), "unknown");
    }
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(123), c2(124);
    bool differs = false;
    for (int i = 0; i < 16 && !differs; ++i)
        differs = a2.next() != c2.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(7);
    EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, LogNormalPositiveAndCentred)
{
    Rng rng(13);
    double logsum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.logNormal(100.0, 0.5);
        ASSERT_GT(v, 0.0);
        logsum += std::log(v);
    }
    // The median of a lognormal is its scale parameter.
    EXPECT_NEAR(logsum / 20000.0, std::log(100.0), 0.05);
}

// ------------------------------------------------------------ histogram

TEST(SizeHistogram, BucketsPowersOfTwo)
{
    SizeHistogram h;
    h.add(1);          // bucket 0
    h.add(1024);       // bucket 10
    h.add(1536);       // bucket 10
    h.add(2048);       // bucket 11
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(10), 2u);
    EXPECT_EQ(h.bucketCount(11), 1u);
    EXPECT_FALSE(h.render().empty());
}

// -------------------------------------------------------------- strings

TEST(Strings, FormatBytes)
{
    EXPECT_EQ(formatBytes(17), "17 B");
    EXPECT_EQ(formatBytes(2_KiB), "2.0 KB");
    EXPECT_EQ(formatBytes(Bytes{5} * 1024 * 1024 * 1024 / 2),
              "2.5 GB");
}

TEST(Strings, FormatPercentAndDouble)
{
    EXPECT_EQ(formatPercent(0.931), "93.1%");
    EXPECT_EQ(formatDouble(1.005, 2), "1.00");
}

TEST(Strings, FormatTime)
{
    EXPECT_EQ(formatTime(500), "500 ns");
    EXPECT_EQ(formatTime(1'500), "1.50 us");
    EXPECT_EQ(formatTime(2'500'000), "2.50 ms");
    EXPECT_EQ(formatTime(3'000'000'000LL), "3.00 s");
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedRows)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| longer"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

// ------------------------------------------------------------------ csv

TEST(Csv, WritesQuotedCells)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "gmlake_csv_test.csv";
    {
        CsvWriter csv(path.string(), {"a", "b"});
        csv.addRow({"1", "x,y"});
        csv.addRow({"2", "he said \"hi\""});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,\"x,y\"");
    std::getline(in, line);
    EXPECT_EQ(line, "2,\"he said \"\"hi\"\"\"");
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------- flags

namespace
{

constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();

/** parseFlags() over @p args, with "verb" as argv[0]. */
ParsedArgs
parseArgs(const FlagTable &flags, std::vector<std::string> args,
          std::size_t minArgs = 0, std::size_t maxArgs = 0)
{
    args.insert(args.begin(), "verb");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseFlags(flags, static_cast<int>(argv.size()),
                      argv.data(), minArgs, maxArgs);
}

} // namespace

TEST(Flags, IntegerRejectsMalformedText)
{
    for (const char *text :
         {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.5", "1e3", "K"}) {
        EXPECT_THROW(parseInteger("n", text, 0, kU64Max, true),
                     FatalError)
            << "'" << text << "'";
    }
    // Suffixes only where the caller allows them.
    EXPECT_THROW(parseInteger("n", "2K", 0, kU64Max), FatalError);
}

TEST(Flags, IntegerRangeIsInclusiveAndOverflowChecked)
{
    EXPECT_EQ(parseInteger("n", "0", 0, 10), 0u);
    EXPECT_EQ(parseInteger("n", "10", 0, 10), 10u);
    EXPECT_THROW(parseInteger("n", "11", 0, 10), FatalError);
    EXPECT_THROW(parseInteger("n", "0", 1, 10), FatalError);
    EXPECT_EQ(parseInteger("n", "18446744073709551615", 0, kU64Max),
              kU64Max);
    // 2^64 and beyond.
    EXPECT_THROW(parseInteger("n", "18446744073709551616", 0, kU64Max),
                 FatalError);
    EXPECT_THROW(parseInteger("n", "99999999999999999999999", 0,
                              kU64Max),
                 FatalError);
}

TEST(Flags, IntegerSuffixScalesAndItsProductMustFit)
{
    EXPECT_EQ(parseInteger("n", "2k", 0, kU64Max, true), 2_KiB);
    EXPECT_EQ(parseInteger("n", "3M", 0, kU64Max, true), 3_MiB);
    EXPECT_EQ(parseInteger("n", "2G", 0, kU64Max, true), 2_GiB);
    EXPECT_EQ(parseInteger("n", "16777215T", 0, kU64Max, true),
              std::uint64_t{16777215} << 40);
    // 2^24 T = 2^64; 17179869185 G wraps to 1 GiB in 64 bits.
    EXPECT_THROW(parseInteger("n", "16777216T", 0, kU64Max, true),
                 FatalError);
    EXPECT_THROW(parseInteger("n", "17179869185G", 0, kU64Max, true),
                 FatalError);
    // The bound applies to the scaled value.
    EXPECT_THROW(parseInteger("n", "1K", 0, 1023, true), FatalError);
}

TEST(Flags, RealMustBeFiniteAndInRange)
{
    EXPECT_DOUBLE_EQ(parseReal("p", "0.25", 0.0, 1.0), 0.25);
    EXPECT_DOUBLE_EQ(parseReal("p", "0", 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(parseReal("p", "1", 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(parseReal("p", "1e2", 0.0, 1e3), 100.0);
    for (const char *text :
         {"", "nan", "NaN", "inf", "-inf", "1e400", "abc", "0.5x",
          " 0.5", "+0.5", "1.0000001", "-0.1"}) {
        EXPECT_THROW(parseReal("p", text, 0.0, 1.0), FatalError)
            << "'" << text << "'";
    }
}

TEST(Flags, RowsAreAppliedAndPositionalsCollected)
{
    int count = 0;
    std::string name;
    bool toggle = false;
    const FlagTable flags = {
        integerFlag("--count", "N", "a count", count),
        {"--name", "S", "a name", [&](const char *v) { name = v; }},
        {"--toggle", nullptr, "a toggle",
         [&](const char *v) {
             EXPECT_EQ(v, nullptr);
             toggle = true;
         }},
    };
    const ParsedArgs args = parseArgs(
        flags, {"first", "--count", "7", "--toggle", "second", "--name",
                "x"},
        2, 2);
    EXPECT_FALSE(args.help);
    EXPECT_EQ(args.positionals,
              (std::vector<std::string>{"first", "second"}));
    EXPECT_EQ(count, 7);
    EXPECT_EQ(name, "x");
    EXPECT_TRUE(toggle);
}

TEST(Flags, IntegerRowBoundsDefaultToTheTargetType)
{
    int count = 0;
    const FlagTable flags = {integerFlag("--count", "N", "", count)};
    parseArgs(flags, {"--count", "2147483647"});
    EXPECT_EQ(count, std::numeric_limits<int>::max());
    EXPECT_THROW(parseArgs(flags, {"--count", "2147483648"}),
                 FatalError);
    EXPECT_THROW(parseArgs(flags, {"--count", "4294967297"}),
                 FatalError);

    Bytes capacity = 0;
    const FlagTable sizes = {
        sizeFlag("--capacity", "GiB", "", capacity, GiB)};
    parseArgs(sizes, {"--capacity", "17179869183"});
    EXPECT_EQ(capacity, Bytes{17179869183} * GiB);
    EXPECT_THROW(parseArgs(sizes, {"--capacity", "17179869184"}),
                 FatalError);
}

TEST(Flags, UnknownFlagsMissingValuesAndStrayArgumentsAreFatal)
{
    int count = 0;
    const FlagTable flags = {integerFlag("--count", "N", "", count)};
    EXPECT_THROW(parseArgs(flags, {"--bogus"}), FatalError);
    EXPECT_THROW(parseArgs(flags, {"-x"}), FatalError);
    EXPECT_THROW(parseArgs(flags, {"--count"}), FatalError);
    EXPECT_THROW(parseArgs(flags, {"stray"}), FatalError);
    EXPECT_THROW(parseArgs(flags, {"a", "b"}, 1, 1), FatalError);
    EXPECT_THROW(parseArgs(flags, {}, 1, 1), FatalError);
    EXPECT_EQ(count, 0);
}

TEST(Flags, OptionalValueTakesOnlyANonFlagArgument)
{
    std::string path = "unset";
    bool toggle = false;
    const FlagTable flags = {
        {"--csv", "[FILE]", "",
         [&](const char *v) { path = v ? v : "default"; }},
        {"--toggle", nullptr, "", [&](const char *) { toggle = true; }},
    };
    parseArgs(flags, {"--csv", "out.csv"});
    EXPECT_EQ(path, "out.csv");
    parseArgs(flags, {"--csv"});
    EXPECT_EQ(path, "default");
    path = "unset";
    parseArgs(flags, {"--csv", "--toggle"});
    EXPECT_EQ(path, "default");
    EXPECT_TRUE(toggle);
}

TEST(Flags, HelpStopsParsingAndSkipsTheCountCheck)
{
    int count = 0;
    const FlagTable flags = {integerFlag("--count", "N", "", count)};
    for (const char *help : {"--help", "-h"}) {
        const ParsedArgs args =
            parseArgs(flags, {"--count", "3", help, "--bogus"}, 1, 1);
        EXPECT_TRUE(args.help);
        EXPECT_EQ(count, 3);
    }
}

TEST(Flags, OutputRowNeedsAFileInAnExistingDirectory)
{
    const auto dir = std::filesystem::temp_directory_path();
    std::string path;
    const FlagTable flags = {
        outputFlag("--out", "FILE", "", path),
        outputFlag("--json", "[FILE]", "", path, "fallback.json"),
    };
    parseArgs(flags, {"--out", (dir / "report.json").string()});
    EXPECT_EQ(path, (dir / "report.json").string());
    parseArgs(flags, {"--json"});
    EXPECT_EQ(path, "fallback.json");
    EXPECT_THROW(parseArgs(flags, {"--out", "/nonexistent/x.json"}),
                 FatalError);
    EXPECT_THROW(parseArgs(flags, {"--out", dir.string()}),
                 FatalError);
    EXPECT_THROW(parseArgs(flags, {"--out", ""}), FatalError);
    EXPECT_FALSE(std::filesystem::exists(dir / "report.json"));
}

TEST(Flags, UsageListsEveryRow)
{
    int count = 0;
    std::string path;
    const FlagTable flags = {
        integerFlag("--count", "N", "how many\nat most", count),
        outputFlag("--a-rather-long-flag", "[FILE]", "long", path),
        logLevelFlag(),
    };
    std::ostringstream out;
    printUsage(out, "verb [options]", flags);
    const std::string text = out.str();
    EXPECT_EQ(text.rfind("usage: verb [options]\n", 0), 0u);
    EXPECT_NE(text.find("  --count N"), std::string::npos);
    EXPECT_NE(text.find("how many\n"), std::string::npos);
    EXPECT_NE(text.find("  --a-rather-long-flag [FILE]\n"),
              std::string::npos);
    EXPECT_NE(text.find("  --log-level L"), std::string::npos);
}

TEST(Flags, LogLevelRowSetsTheThreshold)
{
    const LogLevel before = logLevel();
    const FlagTable flags = {logLevelFlag()};
    parseArgs(flags, {"--log-level", "error"});
    EXPECT_EQ(logLevel(), LogLevel::error);
    EXPECT_THROW(parseArgs(flags, {"--log-level", "loud"}), FatalError);
    setLogLevel(before);
}
