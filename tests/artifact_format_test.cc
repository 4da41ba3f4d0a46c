/**
 * @file
 * Golden-header regression tests for every machine-readable artifact
 * `gmlake_sim` emits: the `--csv` column set, the `--json` record
 * keys, and the key sets of the sweep and chaos JSON reports. All
 * four carry RunResult's report columns (sim::runResultFields), so
 * they are pinned once, in kRunResultKeys.
 *
 * Downstream notebooks and the CI trend dashboards key on these
 * names. Renaming, reordering or dropping a column is an interface
 * break and must be done deliberately: update the pin here in the
 * same change as the writer, and say so in the commit message.
 * *Appending* new columns is fine — append to the pin too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/chaos.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"

using namespace gmlake;
using namespace gmlake::sim;

namespace
{

/**
 * Every JSON object key in first-appearance order, deduplicated —
 * the writer's schema, independent of the values written.
 */
std::vector<std::string>
jsonKeys(const std::string &text)
{
    std::vector<std::string> keys;
    std::size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        const std::size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        const std::string token = text.substr(pos + 1,
                                              end - pos - 1);
        // A key is a quoted string immediately followed by ':'.
        std::size_t after = end + 1;
        while (after < text.size() && text[after] == ' ')
            ++after;
        if (after < text.size() && text[after] == ':' &&
            std::find(keys.begin(), keys.end(), token) ==
                keys.end())
            keys.push_back(token);
        pos = end + 1;
    }
    return keys;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells;
    std::istringstream in(line);
    for (std::string cell; std::getline(in, cell, ',');)
        cells.push_back(cell);
    return cells;
}

/**
 * The (key, raw value) members of one flat JSON object on @p line,
 * in order; string values keep their quotes. Labels the writers emit
 * hold no escaped quotes, which this reader does not handle.
 */
std::vector<std::pair<std::string, std::string>>
jsonMembers(const std::string &line)
{
    std::vector<std::pair<std::string, std::string>> members;
    std::size_t pos = line.find('{') + 1;
    while (true) {
        const std::size_t keyBegin = line.find('"', pos);
        if (keyBegin == std::string::npos)
            break;
        const std::size_t keyEnd = line.find('"', keyBegin + 1);
        std::size_t value = line.find(':', keyEnd) + 1;
        while (line[value] == ' ')
            ++value;
        const std::size_t valueEnd =
            line[value] == '"' ? line.find('"', value + 1) + 1
                               : line.find_first_of(",}", value);
        members.emplace_back(
            line.substr(keyBegin + 1, keyEnd - keyBegin - 1),
            line.substr(value, valueEnd - value));
        pos = valueEnd;
    }
    return members;
}

/** The CSV cell the writer renders for JSON value @p json of @p key:
 *  `oom` as 0/1, labels unquoted with commas as spaces. */
std::string
csvCell(const std::string &key, const std::string &json)
{
    if (key == "oom")
        return json == "true" ? "1" : "0";
    if (json.front() != '"')
        return json;
    std::string text = json.substr(1, json.size() - 2);
    std::replace(text.begin(), text.end(), ',', ' ');
    return text;
}

std::vector<std::string>
concat(std::vector<std::string> head,
       const std::vector<std::string> &tail)
{
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
}

/** RunResult's report columns, pinned once for all four artifacts. */
const std::vector<std::string> kRunResultKeys = {
    "oom",
    "utilization",
    "fragmentation",
    "peak_active_bytes",
    "peak_reserved_bytes",
    "sim_time_ns",
    "samples_per_sec",
    "alloc_count",
    "free_count",
    "device_api_time_ns",
    "run_wall_ns",
    "vmm_wall_ns",
    "evicted_bytes",
    "faulted_bytes",
    "stall_ns",
    "offload_wall_ns",
    "injected_faults",
    "recovered",
    "aborted_sessions",
    "rollbacks",
};

} // namespace

TEST(ArtifactFormat, CsvHeaderIsPinned)
{
    std::string expected = "scenario,label,allocator";
    for (const std::string &key : kRunResultKeys)
        expected += "," + key;
    EXPECT_EQ(experimentCsvHeader(), expected);
}

TEST(ArtifactFormat, JsonRecordKeysArePinned)
{
    EXPECT_EQ(experimentJsonRecordKeys(),
              concat({"label", "allocator"}, kRunResultKeys));
}

TEST(ArtifactFormat, SweepJsonKeysArePinned)
{
    // A synthetic one-point report drives every branch of the
    // writer; only the schema matters here, not the values.
    SweepReport report;
    report.scenario = "smoke";
    report.allocator = "gmlake";
    SweepPointRecord record;
    record.point.label = "frag=16MiB";
    record.onFrontier = true;
    report.points.push_back(record);

    const std::string path = tempPath("artifact_sweep.json");
    writeSweepJson(report, SweepJsonMeta{}, path);
    const std::vector<std::string> expected = concat(
        concat({"scenario", "mode", "allocator", "config", "seed",
                "iterations", "device_capacity_bytes", "threads",
                "warm_start", "split_time_ns", "warmup"},
               kRunResultKeys),
        {"wall_ns", "total_wall_ns", "points", "label",
         "frag_limit_bytes", "near_match_tolerance",
         "max_cached_sblocks", "max_va_overscribe", "enable_stitching",
         "point_wall_ns", "pareto", "pareto_frontier"});
    EXPECT_EQ(jsonKeys(slurp(path)), expected);
    std::filesystem::remove(path);
}

TEST(ArtifactFormat, ChaosJsonKeysArePinned)
{
    ChaosReport report;
    report.scenario = "smoke";
    report.allocator = "gmlake";
    ChaosTrialRecord trial;
    trial.auditPassed = true;
    report.trials.push_back(trial);

    const std::string path = tempPath("artifact_chaos.json");
    writeChaosJson(report, ChaosOptions{}, path);
    // The trial's fault_seed follows config's, so jsonKeys() lists
    // it once.
    const std::vector<std::string> expected = concat(
        concat({"scenario", "mode", "allocator", "config",
                "workload_seed", "fault_seed", "fault_spec", "soak",
                "iterations", "kill_chance", "exit_code", "failures",
                "total_wall_ns", "trials", "audit_passed",
                "internal_error", "oom_sessions", "scripted_kills",
                "capacity_lost_bytes"},
               kRunResultKeys),
        {"wall_ns"});
    EXPECT_EQ(jsonKeys(slurp(path)), expected);
    std::filesystem::remove(path);
}

TEST(ArtifactFormat, CsvRowsRenderTheJsonRecords)
{
    // One schema, two renderings: a scenario that records several
    // runs, written as CSV and JSON, must carry the same columns and
    // the same values in both.
    const Experiment *experiment = findExperiment("colocate-train-serve");
    ASSERT_NE(experiment, nullptr);
    ExperimentRunOptions options;
    options.experiment.iterations = 1;
    options.banner = false;
    options.csvPath = tempPath("artifact_records.csv");
    options.jsonPath = tempPath("artifact_records.json");
    std::filesystem::remove(options.csvPath);
    std::ostringstream out;
    ASSERT_EQ(runExperiment(*experiment, options, out), 0);

    const std::vector<std::string> csv = lines(slurp(options.csvPath));
    std::vector<std::vector<std::pair<std::string, std::string>>>
        records;
    for (const std::string &line : lines(slurp(options.jsonPath))) {
        if (line.rfind("    {\"label\"", 0) == 0 &&
            line.find("\"allocator\"") != std::string::npos)
            records.push_back(jsonMembers(line));
    }
    ASSERT_GE(records.size(), 2u);
    ASSERT_EQ(csv.size(), records.size() + 1);

    std::string header = "scenario";
    for (const auto &[key, value] : records.front())
        header += "," + key;
    EXPECT_EQ(csv.front(), header);

    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::vector<std::string> cells = splitCsv(csv[i + 1]);
        ASSERT_EQ(cells.size(), records[i].size() + 1) << csv[i + 1];
        EXPECT_EQ(cells.front(), "colocate-train-serve");
        for (std::size_t c = 0; c < records[i].size(); ++c) {
            const auto &[key, json] = records[i][c];
            EXPECT_EQ(cells[c + 1], csvCell(key, json))
                << "record " << i << " column " << key;
        }
    }
    std::filesystem::remove(options.csvPath);
    std::filesystem::remove(options.jsonPath);
}
