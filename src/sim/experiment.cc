#include "sim/experiment.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
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
        return static_cast<int>(ThreadPool::defaultThreads());
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
    // smoke run (--iterations 2) stays proportionally short.
    if (mOptions.iterations > 0) {
        cfg.requests =
            std::min(cfg.requests, 16 * mOptions.iterations);
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

namespace
{

/** @p s as a quoted JSON string. */
std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

std::string
jsonDouble(double v)
{
    std::ostringstream oss;
    oss << v;
    const std::string s = oss.str();
    // JSON has no inf/nan literals.
    if (s.find("inf") != std::string::npos ||
        s.find("nan") != std::string::npos) {
        return "null";
    }
    return s;
}

/**
 * Per-record (key, rendered value) rows of the JSON report, in
 * emission order. writeJson() and experimentJsonRecordKeys() both
 * derive from this one table so the golden-format test pins the
 * real emitted key set, not a copy that can drift.
 */
std::vector<std::pair<std::string, std::string>>
jsonRecordFields(const RunRecord &r)
{
    const RunResult &res = r.result;
    auto u = [](std::uint64_t v) { return std::to_string(v); };
    return {
        {"label", jsonQuote(r.label)},
        {"allocator", jsonQuote(r.allocator)},
        {"oom", res.oom ? "true" : "false"},
        {"utilization", jsonDouble(res.utilization)},
        {"fragmentation", jsonDouble(res.fragmentation)},
        {"peak_active_bytes", u(res.peakActive)},
        {"peak_reserved_bytes", u(res.peakReserved)},
        {"sim_time_ns", u(res.simTime)},
        {"samples_per_sec", jsonDouble(res.samplesPerSec)},
        {"alloc_count", u(res.allocCount)},
        {"free_count", u(res.freeCount)},
        {"device_api_time_ns", u(res.deviceApiTime)},
        {"alloc_wall_ns", u(res.allocWallNs)},
        {"alloc_wall_p50_ns", u(res.allocWallP50Ns)},
        {"alloc_wall_p99_ns", u(res.allocWallP99Ns)},
        {"run_wall_ns", u(res.runWallNs)},
        {"vmm_wall_ns", u(res.vmmWallNs)},
        {"evicted_bytes", u(res.evictedBytes)},
        {"faulted_bytes", u(res.faultedBytes)},
        {"stall_ns", u(res.stallNs)},
        {"offload_wall_ns", u(res.offloadWallNs)},
        // Retired columns (no engine locks, mapping snapshots or
        // stager threads are left to count), kept at 0 so the schema
        // stays stable.
        {"lock_wait_ns", "0"},
        {"snapshot_publishes", "0"},
        {"commit_stall_ns", "0"},
        {"injected_faults", u(res.injectedFaults)},
        {"recovered", u(res.recovered)},
        {"aborted_sessions", u(res.abortedSessions)},
        {"rollbacks", u(res.rollbacks)},
    };
}

constexpr const char *kCsvHeader =
    "scenario,label,allocator,oom,utilization,"
    "fragmentation,peak_active_bytes,peak_reserved_bytes,"
    "sim_time_ns,samples_per_sec,alloc_count,free_count,"
    "device_api_time_ns,alloc_wall_ns,alloc_wall_p50_ns,"
    "alloc_wall_p99_ns,run_wall_ns,vmm_wall_ns,"
    "evicted_bytes,faulted_bytes,stall_ns,offload_wall_ns,"
    "lock_wait_ns,snapshot_publishes,commit_stall_ns,"
    "injected_faults,recovered,aborted_sessions,rollbacks,"
    "engine_threads";

void
writeCsv(const Experiment &experiment,
         const ExperimentContext &context, const std::string &path)
{
    const bool fresh = !std::filesystem::exists(path) ||
                       std::filesystem::file_size(path) == 0;
    if (!fresh) {
        // Appending rows under a stale header (e.g. a CSV written
        // before a column was added) would silently misalign every
        // downstream reader; refuse instead.
        std::ifstream in(path);
        std::string header;
        std::getline(in, header);
        if (!header.empty() && header.back() == '\r')
            header.pop_back();
        if (header != kCsvHeader) {
            GMLAKE_FATAL("CSV ", path, " has a different column "
                         "set; move it aside to start a fresh "
                         "trajectory");
        }
    }
    std::ofstream out(path, std::ios::app);
    if (!out)
        GMLAKE_FATAL("cannot open CSV for writing: ", path);
    if (fresh)
        out << kCsvHeader << '\n';
    auto csvField = [](std::string s) {
        for (char &c : s) {
            if (c == ',' || c == '\n')
                c = ' ';
        }
        return s;
    };
    for (const RunRecord &r : context.records()) {
        out << experiment.name << ',' << csvField(r.label) << ','
            << csvField(r.allocator) << ',' << (r.result.oom ? 1 : 0)
            << ',' << r.result.utilization << ','
            << r.result.fragmentation << ',' << r.result.peakActive
            << ',' << r.result.peakReserved << ',' << r.result.simTime
            << ',' << r.result.samplesPerSec << ','
            << r.result.allocCount << ',' << r.result.freeCount << ','
            << r.result.deviceApiTime << ','
            << r.result.allocWallNs << ','
            << r.result.allocWallP50Ns << ','
            << r.result.allocWallP99Ns << ','
            << r.result.runWallNs << ','
            << r.result.vmmWallNs << ','
            << r.result.evictedBytes << ','
            << r.result.faultedBytes << ','
            << r.result.stallNs << ','
            << r.result.offloadWallNs << ','
            // Retired: lock_wait_ns, snapshot_publishes,
            // commit_stall_ns.
            << "0,0,0,"
            << r.result.injectedFaults << ','
            << r.result.recovered << ','
            << r.result.abortedSessions << ','
            << r.result.rollbacks << ','
            << "1\n"; // engine_threads: one per engine run
    }
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
        << "  \"engine_threads\": 1,\n"
        << "  \"engine_commit\": \"deterministic\",\n"
        // Everything a reader needs to reproduce the run: the
        // resolved override set, as one block (the legacy top-level
        // keys above stay for existing consumers).
        << "  \"config\": {"
        << "\"seed\": " << options.seed << ", "
        << "\"iterations\": " << options.iterations << ", "
        << "\"device_capacity_bytes\": " << options.deviceCapacity
        << ", "
        << "\"threads\": " << options.threads << ", "
        << "\"engine_threads\": 1, "
        << "\"engine_commit\": \"deterministic\"},\n"
        << "  \"records\": [";
    bool first = true;
    for (const RunRecord &r : context.records()) {
        out << (first ? "" : ",") << "\n    {";
        bool firstField = true;
        for (const auto &[key, value] : jsonRecordFields(r)) {
            out << (firstField ? "" : ", ") << '"' << key
                << "\": " << value;
            firstField = false;
        }
        out << "}";
        first = false;
    }
    out << "\n  ],\n  \"metrics\": [";
    first = true;
    for (const MetricRecord &m : context.metrics()) {
        out << (first ? "" : ",") << "\n    {"
            << "\"label\": \"" << jsonEscape(m.label) << "\", "
            << "\"name\": \"" << jsonEscape(m.name) << "\", "
            << "\"value\": " << jsonDouble(m.value) << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

} // namespace

const char *
experimentCsvHeader()
{
    return kCsvHeader;
}

const std::vector<std::string> &
experimentJsonRecordKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> names;
        for (const auto &[key, value] : jsonRecordFields(RunRecord{}))
            names.push_back(key);
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
        writeCsv(experiment, context, options.csvPath);
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
