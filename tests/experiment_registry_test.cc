/**
 * @file
 * Experiment-registry coverage: every registered scenario must
 * resolve (allocator constructible, trace generable) and execute a
 * scaled-down run end to end, so a broken scenario fails CTest
 * instead of a nightly bench. Also covers experimentMain's flag
 * parser and the CSV/JSON artifact writers the CI bench-smoke job
 * depends on.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/recorder.hh"
#include "sim/experiment.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;

namespace
{

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    for (const auto &e : allExperiments())
        names.push_back(e.name);
    return names;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

} // namespace

// ----------------------------------------------------- registration

TEST(ExperimentRegistry, BuiltinScenariosAreRegistered)
{
    const char *expected[] = {
        "headline", "fig3",     "fig4",
        "fig5",     "fig6",     "fig10",
        "fig11",    "fig12",    "fig13",
        "fig14",    "table1",   "ablation",
        "native-vs-caching",    "pytorch-knobs",
        "serving",  "stitch-vs-move",
        "vmm-designs",          "colocate-train-serve",
        "colocate-two-serving", "colocate-oversub",
        "cluster-ranks",        "stress-allocator",
        "frag-churn",           "oversub-offload",
        "serve-burst-offload",
    };
    for (const char *name : expected) {
        EXPECT_NE(findExperiment(name), nullptr)
            << "missing scenario: " << name;
    }
    EXPECT_GE(allExperiments().size(), std::size(expected));
}

TEST(ExperimentRegistry, NamesAreUniqueAndDescribed)
{
    const auto names = scenarioNames();
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end())
        << "duplicate scenario name";
    for (const auto &e : allExperiments()) {
        EXPECT_FALSE(e.title.empty()) << e.name;
        EXPECT_FALSE(e.claim.empty()) << e.name;
        EXPECT_FALSE(e.kind.empty()) << e.name;
        EXPECT_NE(e.run, nullptr) << e.name;
    }
}

TEST(ExperimentRegistry, FindIsExact)
{
    EXPECT_NE(findExperiment("fig10"), nullptr);
    EXPECT_EQ(findExperiment("fig10 "), nullptr);
    EXPECT_EQ(findExperiment("no-such-scenario"), nullptr);
}

// -------------------------------------------------------- overrides

TEST(ExperimentContext, AppliesIterationAndSeedOverrides)
{
    ExperimentOptions options;
    options.iterations = 3;
    options.seed = 777;
    std::ostringstream sink;
    ExperimentContext ctx(options, sink);

    workload::TrainConfig cfg;
    cfg.iterations = 12;
    cfg.seed = 42;
    const auto adjusted = ctx.adjust(cfg);
    EXPECT_EQ(adjusted.iterations, 3);
    EXPECT_EQ(adjusted.seed, 777u);
    EXPECT_EQ(ctx.iterations(12), 3);

    ExperimentContext plain(ExperimentOptions{}, sink);
    EXPECT_EQ(plain.adjust(cfg).iterations, 12);
    EXPECT_EQ(plain.adjust(cfg).seed, 42u);
}

TEST(ExperimentContext, ScalesServingRequestsWithIterations)
{
    ExperimentOptions options;
    options.iterations = 2;
    std::ostringstream sink;
    ExperimentContext ctx(options, sink);

    workload::ServeConfig cfg;
    cfg.requests = 256;
    EXPECT_EQ(ctx.adjust(cfg).requests, 32);

    ExperimentContext plain(ExperimentOptions{}, sink);
    EXPECT_EQ(plain.adjust(cfg).requests, 256);

    // The flag accepts up to INT_MAX; the 16x scale must not wrap.
    options.iterations = std::numeric_limits<int>::max();
    ExperimentContext huge(options, sink);
    cfg.requests = 192;
    EXPECT_EQ(huge.adjust(cfg).requests, 192);
}

TEST(ExperimentContext, AppliesDeviceCapacityOverride)
{
    ExperimentOptions options;
    options.deviceCapacity = 24_GiB;
    std::ostringstream sink;
    ExperimentContext ctx(options, sink);
    EXPECT_EQ(ctx.adjust(vmm::DeviceConfig{}).capacity, 24_GiB);
    EXPECT_EQ(ctx.adjust(ScenarioOptions{}).device.capacity, 24_GiB);
}

// ------------------------------------------------- scenario smoke

class ScenarioSmoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ScenarioSmoke, ResolvesAndRunsOneTinyIteration)
{
    const Experiment *experiment = findExperiment(GetParam());
    ASSERT_NE(experiment, nullptr);

    ExperimentOptions options;
    options.iterations = 1;
    std::ostringstream sink;
    ExperimentContext ctx(options, sink);
    experiment->run(ctx);

    // Every scenario must leave machine-readable evidence behind.
    EXPECT_FALSE(ctx.records().empty() && ctx.metrics().empty())
        << experiment->name << " recorded nothing";

    // Any recorded allocator run must have actually replayed work
    // (or ended in a diagnosed OOM on the simulated device).
    bool anyCompleted = ctx.records().empty();
    for (const auto &r : ctx.records()) {
        EXPECT_FALSE(r.allocator.empty());
        EXPECT_TRUE(r.result.oom || r.result.allocCount > 0)
            << experiment->name << ": empty run for " << r.label;
        anyCompleted |= !r.result.oom;
    }
    EXPECT_TRUE(anyCompleted)
        << experiment->name << ": every recorded run hit OOM";
}

TEST_P(ScenarioSmoke, TimelineIsCompleteWithALanePerSerialRun)
{
    const Experiment *experiment = findExperiment(GetParam());
    ASSERT_NE(experiment, nullptr);

    ExperimentOptions options;
    options.iterations = 1;
    std::ostringstream sink;
    ExperimentContext ctx(options, sink);
    obs::Recorder recorder;
    ctx.setRecorder(&recorder);
    recorder.activate();
    experiment->run(ctx);
    recorder.deactivate();
    const obs::RecorderSnapshot snap = recorder.snapshot();

    // headline and serve-day overflow the default ring from their
    // engine and allocator events alone: a full ring is not streamed
    // out yet. Every other scenario's recording must be complete.
    if (GetParam() != "headline" && GetParam() != "serve-day") {
        EXPECT_EQ(snap.dropped, 0u);
    }

    // cluster-ranks and sweep-smoke replay their sub-runs on worker
    // threads and record them afterwards, into one shared lane.
    if (GetParam() == "cluster-ranks" || GetParam() == "sweep-smoke")
        return;

    // One lane per record, named after it, in record order; a
    // scenario that records no run keeps the snapshot's one default
    // lane.
    std::vector<std::string> lanes;
    for (const RunRecord &r : ctx.records())
        lanes.push_back(r.label + " [" + r.allocator + "]");
    if (lanes.empty())
        lanes.push_back("run");
    EXPECT_EQ(snap.runs, lanes);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ScenarioSmoke,
    ::testing::ValuesIn(scenarioNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// ----------------------------------------------------- flag parsing

namespace
{

/** Times the flag-parsing probe scenario has run. */
int gProbeRuns = 0;

/** Name of a scenario whose only effect is counting its runs. */
std::string
probeScenario()
{
    const std::string name = "flag-parse-probe";
    if (findExperiment(name) == nullptr) {
        ExperimentRegistry::instance().add(
            {name, "extension", "flag-parsing probe",
             "counts its runs",
             [](ExperimentContext &) { ++gProbeRuns; }});
    }
    return name;
}

/** experimentMain over @p flags, with the probe as argv[0]. */
int
runProbe(std::vector<std::string> flags)
{
    std::vector<std::string> args = {probeScenario()};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    return experimentMain(args.front(), static_cast<int>(args.size()),
                          argv.data());
}

} // namespace

TEST(ExperimentFlags, ValidFlagsRunTheScenario)
{
    const int before = gProbeRuns;
    EXPECT_EQ(runProbe({"--threads", "2", "--no-banner"}), 0);
    EXPECT_EQ(gProbeRuns, before + 1);
}

TEST(ExperimentFlags, BadFlagsExitOneWithoutRunning)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--engine-commit", "relaxed"},
        {"--engine-threads", "4"},
        {"--no-such-flag"},
        {"--threads"},
    };
    for (const auto &flags : bad) {
        const int before = gProbeRuns;
        EXPECT_EQ(runProbe(flags), 1) << flags.front();
        EXPECT_EQ(gProbeRuns, before) << flags.front();
    }
}

// -------------------------------------------------------- artifacts

TEST(ExperimentArtifacts, WritesJsonAndCsvReports)
{
    const Experiment *table1 = findExperiment("table1");
    ASSERT_NE(table1, nullptr);

    const auto dir = std::filesystem::temp_directory_path();
    const auto jsonPath = dir / "gmlake_BENCH_table1_test.json";
    const auto csvPath = dir / "gmlake_BENCH_table1_test.csv";
    std::filesystem::remove(jsonPath);
    std::filesystem::remove(csvPath);

    ExperimentRunOptions options;
    options.banner = false;
    options.jsonPath = jsonPath.string();
    options.csvPath = csvPath.string();
    std::ostringstream sink;
    EXPECT_EQ(runExperiment(*table1, options, sink), 0);

    const std::string json = slurp(jsonPath);
    EXPECT_NE(json.find("\"scenario\": \"table1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
    EXPECT_NE(json.find("total_vs_cumemalloc"), std::string::npos);

    const std::string csv = slurp(csvPath);
    EXPECT_NE(csv.find("scenario,label,allocator,oom,utilization"),
              std::string::npos);

    std::filesystem::remove(jsonPath);
    std::filesystem::remove(csvPath);
}

TEST(ExperimentArtifacts, CsvAppendsWithoutDuplicatingHeader)
{
    const Experiment *table1 = findExperiment("table1");
    ASSERT_NE(table1, nullptr);

    const auto csvPath = std::filesystem::temp_directory_path() /
                         "gmlake_BENCH_append_test.csv";
    std::filesystem::remove(csvPath);

    ExperimentRunOptions options;
    options.banner = false;
    options.csvPath = csvPath.string();
    std::ostringstream sink;
    EXPECT_EQ(runExperiment(*table1, options, sink), 0);
    EXPECT_EQ(runExperiment(*table1, options, sink), 0);

    const std::string csv = slurp(csvPath);
    std::size_t headers = 0;
    for (std::size_t pos = csv.find("scenario,label");
         pos != std::string::npos;
         pos = csv.find("scenario,label", pos + 1)) {
        ++headers;
    }
    EXPECT_EQ(headers, 1u);

    std::filesystem::remove(csvPath);
}

TEST(ExperimentArtifacts, DefaultPathsDeriveFromScenarioName)
{
    const Experiment *fig10 = findExperiment("fig10");
    ASSERT_NE(fig10, nullptr);
    EXPECT_EQ(defaultCsvPath(*fig10), "BENCH_fig10.csv");
    EXPECT_EQ(defaultJsonPath(*fig10), "BENCH_fig10.json");
}
