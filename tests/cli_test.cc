/**
 * @file
 * End-to-end checks of the gmlake_sim command line: every verb
 * rejects an out-of-range number, a malformed spec value or an
 * unusable output path with exit code 1 before it runs anything
 * (nothing on stdout, no file written), and every verb's --help lists
 * every flag it accepts, and `trace --csv` appends run records under
 * the `run --csv` header and refuses a file with another one before
 * it replays. Each command runs the built binary in a
 * fresh, empty working directory.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "workload/binary_trace.hh"
#include "workload/trace.hh"

namespace fs = std::filesystem;
using gmlake::workload::Event;
using gmlake::workload::EventKind;

namespace
{

struct CliRun
{
    int code = -1;
    std::string out;
    std::string err;
    /** Files the command left in its working directory. */
    std::vector<std::string> files;
};

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Run gmlake_sim with @p args in an empty directory. */
CliRun
runCli(const std::vector<std::string> &args)
{
    static int serial = 0;
    const fs::path root =
        fs::temp_directory_path() /
        ("gmlake_cli_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(serial++));
    const fs::path work = root / "work";
    fs::remove_all(root);
    fs::create_directories(work);

    std::string cmd = "cd '" + work.string() + "' && '" GMLAKE_SIM_BIN "'";
    for (const std::string &arg : args)
        cmd += " '" + arg + "'";
    cmd += " > '" + (root / "out").string() + "' 2> '" +
           (root / "err").string() + "'";
    const int status = std::system(cmd.c_str());

    CliRun run;
    run.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    run.out = slurp(root / "out");
    run.err = slurp(root / "err");
    for (const auto &entry : fs::directory_iterator(work))
        run.files.push_back(entry.path().filename().string());
    fs::remove_all(root);
    return run;
}

std::string
joined(const std::vector<std::string> &args)
{
    std::string text;
    for (const std::string &arg : args)
        text += (text.empty() ? "" : " ") + arg;
    return text;
}

} // namespace

TEST(Cli, BadValuesExitOneBeforeRunning)
{
    const std::vector<std::vector<std::string>> bad = {
        // Integers wider than the field they land in.
        {"sweep", "smoke", "--iterations", "4294967297"},
        {"chaos", "smoke", "--iterations", "4294967297",
         "--kill-chance", "0"},
        {"probe", "smoke", "--iterations", "4294967297"},
        {"trace", "run", "--allocator", "gmlake", "--iterations", "1",
         "--gpus", "4294967297"},
        // Sizes whose byte count does not fit in 64 bits.
        {"trace", "run", "--allocator", "caching", "--iterations", "1",
         "--capacity", "17179869224"},
        {"sweep", "smoke", "--iterations", "1", "--capacity",
         "17179869224"},
        {"trace", "run", "--allocator", "gmlake", "--iterations", "1",
         "--frag-limit", "17592186044416"},
        // Reals outside their range, NaN included.
        {"chaos", "smoke", "--iterations", "1", "--kill-chance", "nan"},
        {"sweep", "smoke", "--iterations", "1", "--grid", "tol=nan"},
        {"sweep", "smoke", "--iterations", "1", "--grid",
         "overscribe=-1"},
        // Fault specs whose numbers overflow or are not numbers.
        {"chaos", "smoke", "--iterations", "1", "--kill-chance", "0",
         "--faults", "map:n=18446744073709551619"},
        {"chaos", "smoke", "--iterations", "1", "--kill-chance", "0",
         "--faults", "cap:t=1000,b=17179869185G"},
        {"chaos", "smoke", "--iterations", "1", "--kill-chance", "0",
         "--faults", "create:p=nan"},
        // Output paths in a directory that does not exist.
        {"sweep", "smoke", "--iterations", "1", "--out",
         "/nonexistent/x.json"},
        {"chaos", "smoke", "--iterations", "1", "--kill-chance", "0",
         "--out", "/nonexistent/x.json"},
        {"run", "headline", "--iterations", "1", "--json",
         "/nonexistent/x.json"},
        // The global flag goes after the verb.
        {"--log-level", "error", "list"},
        {"sweep", "smoke", "--iterations", "1", "--log-level", "loud"},
    };
    for (const auto &args : bad) {
        const CliRun run = runCli(args);
        EXPECT_EQ(run.code, 1) << joined(args) << "\n" << run.err;
        EXPECT_EQ(run.out, "") << joined(args);
        EXPECT_TRUE(run.files.empty()) << joined(args);
        EXPECT_NE(run.err, "") << joined(args);
    }
}

TEST(Cli, ChaosRefusesCopyLaneFaultPlans)
{
    // Chaos trials run no host tier, so no copy-lane call can fail:
    // the verb refuses such a plan before it runs anything, and no
    // report reads clean.
    const std::vector<std::pair<std::string, std::string>> plans = {
        {"copyd2h:p=1", "copyd2h"},
        {"create:p=0.002;copyh2d:n=1", "copyh2d"}};
    for (const auto &[spec, api] : plans) {
        const CliRun run =
            runCli({"chaos", "smoke", "--iterations", "1",
                    "--kill-chance", "0", "--faults", spec});
        EXPECT_EQ(run.code, 1) << spec << "\n" << run.err;
        EXPECT_NE(run.err.find(api), std::string::npos)
            << spec << "\n" << run.err;
        EXPECT_EQ(run.out, "") << spec;
        EXPECT_TRUE(run.files.empty()) << spec;
    }
}

TEST(Cli, LogLevelAfterTheVerbIsAccepted)
{
    const CliRun run =
        runCli({"trace", "record", "t.txt", "--model", "GPT-2",
                "--iterations", "1", "--log-level", "error"});
    EXPECT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.files, std::vector<std::string>{"t.txt"});
}

TEST(Cli, EveryVerbsHelpNamesEveryFlag)
{
    const std::vector<std::string> workload = {
        "--model", "--list-models", "--strategies", "--platform",
        "--gpus", "--batch", "--iterations", "--seq", "--seed",
        "--serve", "--requests", "--max-batch"};
    const std::vector<std::string> device = {
        "--allocator", "--capacity", "--frag-limit", "--csv",
        "--snapshot"};
    std::vector<std::string> traceRun = workload;
    traceRun.insert(traceRun.end(), device.begin(), device.end());

    const std::vector<std::pair<std::vector<std::string>,
                                std::vector<std::string>>>
        verbs = {
            {{"run", "headline", "--help"},
             {"--iterations", "--capacity", "--seed", "--threads",
              "--csv", "--json", "--out", "--timeline",
              "--timeline-bin", "--no-banner"}},
            {{"trace", "run", "--help"}, traceRun},
            {{"trace", "record", "--help"}, workload},
            {{"trace", "replay", "--help"}, device},
            {{"trace", "pack", "--help"}, {}},
            {{"trace", "info", "--help"}, {}},
            {{"sweep", "--help"},
             {"--allocator", "--grid", "--points", "--threads",
              "--seed", "--iterations", "--capacity", "--cold",
              "--out"}},
            {{"chaos", "-h"},
             {"--faults", "--fault-seed", "--soak", "--kill-chance",
              "--allocator", "--seed", "--iterations", "--out"}},
            {{"probe", "--help"},
             {"--tensor", "--at", "--allocator", "--seed",
              "--iterations", "--timeline", "--top"}},
        };
    for (const auto &[args, flags] : verbs) {
        const CliRun run = runCli(args);
        EXPECT_EQ(run.code, 0) << joined(args) << "\n" << run.err;
        EXPECT_TRUE(run.files.empty()) << joined(args);
        std::vector<std::string> expected = flags;
        expected.push_back("--log-level");
        for (const std::string &flag : expected) {
            EXPECT_NE(run.out.find("  " + flag + " "), std::string::npos)
                << joined(args) << " does not list " << flag;
        }
    }
}

TEST(Cli, ReplayRejectsStreamedTracesThatValidateWould)
{
    // A `.gmt` file replays without Trace::validate(), so the engine
    // must fail on what validate() rejects: an alloc of a live tensor
    // and a negative compute.
    const fs::path dir =
        fs::temp_directory_path() /
        ("gmlake_cli_gmt_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    gmlake::workload::Trace doubleAlloc;
    doubleAlloc.append(Event{EventKind::alloc, 7, 4u << 20, 0, 0});
    doubleAlloc.append(Event{EventKind::alloc, 7, 4u << 20, 0, 0});
    doubleAlloc.append(Event{EventKind::compute, 0, 0, 1'000'000, 0});
    doubleAlloc.append(Event{EventKind::free, 7, 0, 0, 0});
    gmlake::workload::Trace negativeCompute;
    negativeCompute.append(Event{EventKind::alloc, 1, 4u << 20, 0, 0});
    negativeCompute.append(
        Event{EventKind::compute, 0, 0, -5'000'000, 0});
    negativeCompute.append(Event{EventKind::free, 1, 0, 0, 0});

    struct Forged
    {
        std::string file;
        gmlake::workload::Trace trace;
        std::string why;
    };
    const std::vector<Forged> forged = {
        {"double_alloc.gmt", doubleAlloc, "allocates live tensor 7"},
        {"negative_compute.gmt", negativeCompute, "negative compute"}};
    for (const Forged &f : forged) {
        const std::string path = (dir / f.file).string();
        gmlake::workload::packTrace(f.trace, path);
        const CliRun run =
            runCli({"trace", "replay", path, "--allocator", "gmlake"});
        EXPECT_EQ(run.code, 1) << f.file << "\n" << run.out;
        EXPECT_NE(run.err.find(f.why), std::string::npos)
            << f.file << "\n" << run.err;
    }
    fs::remove_all(dir);
}

namespace
{

/**
 * A fresh directory holding a three-event text trace, `t.txt`; the
 * CSVs the trace tests write go beside it, outside the per-command
 * working directories runCli() removes.
 */
fs::path
traceDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
                         (name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    gmlake::workload::Trace trace;
    trace.append(Event{EventKind::alloc, 1, 4u << 20, 0, 0});
    trace.append(Event{EventKind::compute, 0, 0, 1'000'000, 0});
    trace.append(Event{EventKind::free, 1, 0, 0, 0});
    std::ofstream out(dir / "t.txt");
    trace.save(out);
    return dir;
}

std::vector<std::string>
lines(const fs::path &path)
{
    std::vector<std::string> out;
    std::istringstream in(slurp(path));
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

} // namespace

TEST(Cli, TraceCsvAppendsRunRecordsUnderTheRunHeader)
{
    const fs::path dir = traceDir("gmlake_cli_csv");
    const std::string tracePath = (dir / "t.txt").string();
    const std::string csv = (dir / "runs.csv").string();
    const std::string header = gmlake::sim::experimentCsvHeader();

    // Two replays: one header, two rows naming the replayed file.
    for (int i = 0; i < 2; ++i) {
        const CliRun run = runCli({"trace", "replay", tracePath,
                                   "--allocator", "gmlake", "--csv",
                                   csv});
        ASSERT_EQ(run.code, 0) << run.err;
    }
    std::vector<std::string> rows = lines(csv);
    ASSERT_EQ(rows.size(), 3u) << slurp(csv);
    EXPECT_EQ(rows[0], header);
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].rfind("trace," + tracePath + ",gmlake,", 0),
                  0u)
            << rows[i];

    // A generated workload appends under the same header, labelled
    // with the workload it ran.
    const CliRun generated =
        runCli({"trace", "run", "--model", "GPT-2", "--iterations", "1",
                "--allocator", "caching", "--csv", csv});
    ASSERT_EQ(generated.code, 0) << generated.err;
    rows = lines(csv);
    ASSERT_EQ(rows.size(), 4u) << slurp(csv);
    EXPECT_EQ(rows[0], header);
    EXPECT_EQ(rows[3].rfind("trace,GPT-2 x4GPU DeepSpeed-ZeRO3 LR "
                            "bs=16 seq=512,caching,",
                            0),
              0u)
        << rows[3];
    fs::remove_all(dir);
}

TEST(Cli, StaleCsvIsRefusedBeforeRunning)
{
    const fs::path dir = traceDir("gmlake_cli_stale_csv");
    const fs::path csv = dir / "stale.csv";
    const std::string text = "a,b\n";
    {
        std::ofstream out(csv);
        out << text;
    }
    const std::vector<std::vector<std::string>> commands = {
        {"run", "fig10", "--iterations", "1", "--csv", csv.string()},
        {"trace", "replay", (dir / "t.txt").string(), "--allocator",
         "gmlake", "--csv", csv.string()},
    };
    for (const auto &args : commands) {
        const CliRun run = runCli(args);
        EXPECT_EQ(run.code, 1) << joined(args) << "\n" << run.out;
        EXPECT_EQ(run.out, "") << joined(args);
        EXPECT_NE(run.err.find("different column set"),
                  std::string::npos)
            << joined(args) << "\n" << run.err;
        EXPECT_EQ(slurp(csv), text) << joined(args);
    }
    fs::remove_all(dir);
}
