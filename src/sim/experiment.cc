#include "sim/experiment.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <type_traits>
#include <utility>

#include "obs/export_chrome.hh"
#include "obs/export_columnar.hh"
#include "obs/recorder.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"
#include "support/units.hh"
#include "workload/tracegen.hh"

namespace gmlake::sim
{

// --------------------------------------------------------- context

ExperimentContext::ExperimentContext(const ExperimentOptions &options,
                                     std::ostream &out)
    : mOptions(options), mOut(out)
{
}

int
ExperimentContext::iterations(int scenarioDefault) const
{
    return mOptions.iterations > 0 ? mOptions.iterations
                                   : scenarioDefault;
}

int
ExperimentContext::threads() const
{
    if (mOptions.threads == 0)
        return static_cast<int>(defaultThreads());
    return std::max(1, mOptions.threads);
}

workload::TrainConfig
ExperimentContext::adjust(workload::TrainConfig cfg) const
{
    cfg.iterations = iterations(cfg.iterations);
    if (mOptions.seed != 0)
        cfg.seed = mOptions.seed;
    return cfg;
}

workload::ServeConfig
ExperimentContext::adjust(workload::ServeConfig cfg) const
{
    // Serving has no iteration knob; scale the request count so a
    // smoke run (--iterations 2) stays proportionally short. 64-bit
    // product: the CLI accepts iteration counts up to INT_MAX.
    if (mOptions.iterations > 0) {
        cfg.requests = static_cast<int>(std::min<long long>(
            cfg.requests, 16LL * mOptions.iterations));
    }
    if (mOptions.seed != 0)
        cfg.seed = mOptions.seed;
    return cfg;
}

vmm::DeviceConfig
ExperimentContext::adjust(vmm::DeviceConfig cfg) const
{
    if (mOptions.deviceCapacity != 0)
        cfg.capacity = mOptions.deviceCapacity;
    return cfg;
}

ScenarioOptions
ExperimentContext::adjust(ScenarioOptions scenario) const
{
    scenario.device = adjust(scenario.device);
    return scenario;
}

MultiRunResult
ExperimentContext::run(Rig &rig, std::vector<Session> sessions,
                       const std::string &label,
                       const workload::TrainConfig *config,
                       const std::string &allocatorName)
{
    const std::string allocator = allocatorName.empty()
                                      ? allocatorKindName(rig.kind())
                                      : allocatorName;
    if (mRecorder != nullptr)
        mRecorder->beginRun(label + " [" + allocator + "]");
    MultiRunResult multi = rig.run(std::move(sessions), config);
    record(label, allocator, multi.combined);
    return multi;
}

RunResult
ExperimentContext::run(const workload::TrainConfig &cfg,
                       AllocatorKind kind,
                       const ScenarioOptions &scenario,
                       const std::string &label)
{
    const workload::TrainConfig adjusted = adjust(cfg);
    Rig rig(kind, adjust(scenario));
    const workload::Trace trace =
        workload::generateTrainingTrace(adjusted);
    return run(rig, {Session("main", &trace)},
               label.empty() ? adjusted.describe() : label, &adjusted)
        .combined;
}

RunResult
ExperimentContext::run(AllocatorKind kind,
                       const workload::Trace &trace,
                       const std::string &label)
{
    Rig rig(kind, adjust(ScenarioOptions{}));
    return run(rig, {Session("main", &trace)}, label).combined;
}

BenchPair
ExperimentContext::runPair(const workload::TrainConfig &cfg,
                           const ScenarioOptions &scenario,
                           const std::string &label)
{
    return BenchPair{
        run(cfg, AllocatorKind::caching, scenario, label),
        run(cfg, AllocatorKind::gmlake, scenario, label),
    };
}

void
ExperimentContext::record(const std::string &label,
                          const std::string &allocator,
                          const RunResult &result)
{
    mRecords.push_back(RunRecord{label, allocator, result});
}

void
ExperimentContext::metric(const std::string &label,
                          const std::string &name, double value)
{
    mMetrics.push_back(MetricRecord{label, name, value});
}

// -------------------------------------------------------- registry

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(Experiment experiment)
{
    GMLAKE_ASSERT(!experiment.name.empty(),
                  "experiment needs a name");
    GMLAKE_ASSERT(experiment.run != nullptr, "experiment ",
                  experiment.name, " needs a run function");
    if (find(experiment.name) != nullptr) {
        GMLAKE_PANIC("duplicate experiment name: ", experiment.name);
    }
    mExperiments.push_back(std::move(experiment));
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    const auto it = std::find_if(
        mExperiments.begin(), mExperiments.end(),
        [&](const Experiment &e) { return e.name == name; });
    return it == mExperiments.end() ? nullptr : &*it;
}

const std::vector<Experiment> &
allExperiments()
{
    registerBuiltinExperiments();
    return ExperimentRegistry::instance().all();
}

const Experiment *
findExperiment(const std::string &name)
{
    registerBuiltinExperiments();
    return ExperimentRegistry::instance().find(name);
}

// -------------------------------------------------------- artifacts

std::vector<ReportField>
runResultFields(const RunResult &r)
{
    return {
        {"oom", r.oom},
        {"utilization", r.utilization},
        {"fragmentation", r.fragmentation},
        {"peak_active_bytes", r.peakActive},
        {"peak_reserved_bytes", r.peakReserved},
        {"sim_time_ns", r.simTime},
        {"samples_per_sec", r.samplesPerSec},
        {"alloc_count", r.allocCount},
        {"free_count", r.freeCount},
        {"device_api_time_ns", r.deviceApiTime},
        {"run_wall_ns", r.runWallNs},
        {"vmm_wall_ns", r.vmmWallNs},
        {"evicted_bytes", r.evictedBytes},
        {"faulted_bytes", r.faultedBytes},
        {"stall_ns", r.stallNs},
        {"offload_wall_ns", r.offloadWallNs},
        {"injected_faults", r.injectedFaults},
        {"recovered", r.recovered},
        {"aborted_sessions", r.abortedSessions},
        {"rollbacks", r.rollbacks},
    };
}

namespace
{

/** The run record's columns: its label and allocator, then the
 *  RunResult's. */
std::vector<ReportField>
recordFields(const RunRecord &r)
{
    std::vector<ReportField> fields = {{"label", r.label},
                                       {"allocator", r.allocator}};
    for (ReportField &field : runResultFields(r.result))
        fields.push_back(std::move(field));
    return fields;
}

/** @p v in the stream's default notation (6 significant digits). */
std::string
streamed(double v)
{
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

std::string
jsonValue(const ReportValue &value)
{
    return std::visit(
        [](const auto &v) -> std::string {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, bool>) {
                return v ? "true" : "false";
            } else if constexpr (std::is_same_v<T, double>) {
                // JSON has no inf/nan literals.
                return std::isfinite(v) ? streamed(v) : "null";
            } else if constexpr (std::is_same_v<T, std::string>) {
                return '"' + jsonEscape(v) + '"';
            } else {
                return std::to_string(v);
            }
        },
        value);
}

/** A CSV cell: flags as 0/1, commas and newlines in text as spaces. */
std::string
csvValue(const ReportValue &value)
{
    return std::visit(
        [](const auto &v) -> std::string {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, bool>) {
                return v ? "1" : "0";
            } else if constexpr (std::is_same_v<T, double>) {
                return streamed(v);
            } else if constexpr (std::is_same_v<T, std::string>) {
                std::string s = v;
                std::replace_if(
                    s.begin(), s.end(),
                    [](char c) { return c == ',' || c == '\n'; }, ' ');
                return s;
            } else {
                return std::to_string(v);
            }
        },
        value);
}

void
writeJson(const Experiment &experiment,
          const ExperimentContext &context,
          const ExperimentOptions &options, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        GMLAKE_FATAL("cannot open JSON for writing: ", path);
    out << "{\n"
        << "  \"scenario\": \"" << jsonEscape(experiment.name)
        << "\",\n"
        << "  \"kind\": \"" << jsonEscape(experiment.kind) << "\",\n"
        << "  \"title\": \"" << jsonEscape(experiment.title)
        << "\",\n"
        << "  \"iterations_override\": " << options.iterations
        << ",\n"
        << "  \"device_capacity_override\": "
        << options.deviceCapacity << ",\n"
        // Everything a reader needs to reproduce the run: the
        // resolved override set, as one block (the legacy top-level
        // keys above stay for existing consumers).
        << "  \"config\": {"
        << "\"seed\": " << options.seed << ", "
        << "\"iterations\": " << options.iterations << ", "
        << "\"device_capacity_bytes\": " << options.deviceCapacity
        << ", "
        << "\"threads\": " << options.threads << "},\n"
        << "  \"records\": [";
    bool first = true;
    for (const RunRecord &r : context.records()) {
        out << (first ? "" : ",") << "\n    {";
        writeJsonFields(out, recordFields(r));
        out << "}";
        first = false;
    }
    out << "\n  ],\n  \"metrics\": [";
    first = true;
    for (const MetricRecord &m : context.metrics()) {
        out << (first ? "" : ",") << "\n    {";
        writeJsonFields(out, {{"label", m.label},
                              {"name", m.name},
                              {"value", m.value}});
        out << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

} // namespace

void
writeJsonFields(std::ostream &out, const std::vector<ReportField> &fields)
{
    const char *separator = "";
    for (const ReportField &field : fields) {
        out << separator << '"' << field.key
            << "\": " << jsonValue(field.value);
        separator = ", ";
    }
}

bool
checkRunCsv(const std::string &path)
{
    if (!std::filesystem::exists(path) ||
        std::filesystem::file_size(path) == 0)
        return true;
    // Appending rows under a stale header (e.g. a CSV written before
    // a column was added) would silently misalign every downstream
    // reader; refuse instead.
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    if (!header.empty() && header.back() == '\r')
        header.pop_back();
    if (header != experimentCsvHeader()) {
        GMLAKE_FATAL("CSV ", path, " has a different column set; "
                     "move it aside to start a fresh trajectory");
    }
    return false;
}

void
appendRunCsv(const std::string &path, const std::string &scenario,
             const std::vector<RunRecord> &records)
{
    const bool fresh = checkRunCsv(path);
    std::ofstream out(path, std::ios::app);
    if (!out)
        GMLAKE_FATAL("cannot open CSV for writing: ", path);
    if (fresh)
        out << experimentCsvHeader() << '\n';
    for (const RunRecord &r : records) {
        out << csvValue(scenario);
        for (const ReportField &field : recordFields(r))
            out << ',' << csvValue(field.value);
        out << '\n';
    }
}

const std::string &
experimentCsvHeader()
{
    static const std::string header = [] {
        std::string line = "scenario";
        for (const std::string &key : experimentJsonRecordKeys())
            line += "," + key;
        return line;
    }();
    return header;
}

const std::vector<std::string> &
experimentJsonRecordKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> names;
        for (const ReportField &field : recordFields(RunRecord{}))
            names.push_back(field.key);
        return names;
    }();
    return keys;
}

std::string
defaultCsvPath(const Experiment &experiment)
{
    return "BENCH_" + experiment.name + ".csv";
}

std::string
defaultJsonPath(const Experiment &experiment)
{
    return "BENCH_" + experiment.name + ".json";
}

// ----------------------------------------------------------- driver

int
runExperiment(const Experiment &experiment,
              const ExperimentRunOptions &options, std::ostream &out)
{
    if (!options.csvPath.empty())
        checkRunCsv(options.csvPath);
    if (options.banner) {
        out << "\n====================================================="
               "===================\n"
            << experiment.title << "\n"
            << experiment.claim << "\n"
            << "======================================================="
               "=================\n";
    }
    ExperimentOptions experimentOptions = options.experiment;
    experimentOptions.plotFiles = !options.csvPath.empty();
    ExperimentContext context(experimentOptions, out);
    // Timeline capture: the recorder is activated for the whole
    // scenario; every ExperimentContext::run() calls beginRun() so
    // each recorded run gets its own process lane. Deactivated before
    // export so nothing emits while the segments merge.
    std::unique_ptr<obs::Recorder> recorder;
    if (!options.timelinePath.empty() ||
        !options.timelineBinPath.empty()) {
        recorder = std::make_unique<obs::Recorder>();
        context.setRecorder(recorder.get());
        recorder->activate();
    }
    experiment.run(context);
    if (recorder != nullptr) {
        recorder->deactivate();
        const obs::RecorderSnapshot snap = recorder->snapshot();
        if (!options.timelinePath.empty()) {
            obs::writeChromeTrace(snap, options.timelinePath);
            out << "(timeline written to " << options.timelinePath
                << ", " << snap.events.size() << " events";
            if (snap.dropped > 0)
                out << ", " << snap.dropped << " dropped";
            out << ")\n";
        }
        if (!options.timelineBinPath.empty()) {
            obs::writeColumnarTrace(snap, options.timelineBinPath);
            out << "(binary timeline written to "
                << options.timelineBinPath << ")\n";
        }
    }
    if (!options.csvPath.empty()) {
        appendRunCsv(options.csvPath, experiment.name,
                     context.records());
        out << "(run records appended to " << options.csvPath
            << ")\n";
    }
    if (!options.jsonPath.empty()) {
        writeJson(experiment, context, options.experiment,
                  options.jsonPath);
        out << "(report written to " << options.jsonPath << ")\n";
    }
    return 0;
}

int
experimentMain(const std::string &name, int argc, char **argv)
try {
    const Experiment *experiment = findExperiment(name);
    if (experiment == nullptr) {
        std::cerr << "unknown experiment: " << name << "\n";
        return 1;
    }

    ExperimentRunOptions options;
    ExperimentOptions &run = options.experiment;
    const FlagTable flags = {
        integerFlag("--iterations", "N", "override training iterations",
                    run.iterations),
        sizeFlag("--capacity", "GiB", "override device capacity",
                 run.deviceCapacity, GiB),
        integerFlag("--seed", "N", "override the workload seed",
                    run.seed),
        integerFlag("--threads", "N",
                    "worker threads for cluster scenarios\n"
                    "(0 = all cores; results identical)",
                    run.threads, 0, 4096),
        outputFlag("--csv", "[FILE]",
                   "append run records as CSV (default\n"
                   "BENCH_<scenario>.csv)",
                   options.csvPath, defaultCsvPath(*experiment)),
        outputFlag("--json", "[FILE]",
                   "write the report as JSON (default\n"
                   "BENCH_<scenario>.json)",
                   options.jsonPath, defaultJsonPath(*experiment)),
        outputFlag("--out", "FILE", "write the JSON report to FILE",
                   options.jsonPath),
        outputFlag("--timeline", "FILE",
                   "record the runs and write a Chrome-trace/\n"
                   "Perfetto timeline (open in ui.perfetto.dev);\n"
                   "results are bit-identical with or without it",
                   options.timelinePath),
        outputFlag("--timeline-bin", "FILE",
                   "also write the columnar binary event dump (.gmo)",
                   options.timelineBinPath),
        {"--no-banner", nullptr, "suppress the banner",
         [&](const char *) { options.banner = false; }},
        logLevelFlag(),
    };
    if (parseFlags(flags, argc, argv).help) {
        printUsage(std::cout,
                   "gmlake_sim run " + name + " [options]\n\n" +
                       experiment->title + "\n",
                   flags);
        return 0;
    }
    return runExperiment(*experiment, options, std::cout);
} catch (const FatalError &) {
    return 1; // diagnostic already printed by GMLAKE_FATAL
} catch (const PanicError &) {
    return 1; // diagnostic already printed by GMLAKE_PANIC
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
}

} // namespace gmlake::sim
