/**
 * @file
 * The experiment registry: every figure/table reproduction and
 * extension study registers here as a named scenario (workload sweep,
 * allocator set, device config, metrics). The gmlake_sim `run`/`list`
 * subcommands, CI's bench-smoke job, and the registry test all drive
 * scenarios through this one code path, so a scenario that rots
 * fails CTest instead of a nightly bench.
 */

#ifndef GMLAKE_SIM_EXPERIMENT_HH
#define GMLAKE_SIM_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "sim/runner.hh"
#include "workload/servegen.hh"

namespace gmlake::obs
{
class Recorder;
}

namespace gmlake::sim
{

/**
 * Cross-cutting overrides honoured by every scenario. CI's smoke job
 * shrinks iteration counts; the registry test shrinks the device.
 */
struct ExperimentOptions
{
    /** When > 0, replaces each scenario's training iteration count. */
    int iterations = 0;
    /** When != 0, overrides the simulated device capacity (bytes). */
    Bytes deviceCapacity = 0;
    /** When != 0, overrides the workload RNG base seed. */
    std::uint64_t seed = 0;
    /**
     * Worker threads for scenarios with independent sub-runs
     * (cluster ranks). 1 = sequential; results are identical either
     * way, parallelism only changes wall-clock time. 0 = use every
     * hardware thread.
     */
    int threads = 1;
    /**
     * Write auxiliary plotting files (e.g. fig14's full-series
     * CSVs). Off by default so smoke runs and tests leave no stray
     * files; runExperiment() enables it when --csv is requested.
     */
    bool plotFiles = false;
};

/** One allocator run recorded while a scenario executes. */
struct RunRecord
{
    std::string label;     //!< scenario row, e.g. "OPT-13B/LR/b16"
    std::string allocator; //!< allocator (plus knobs when relevant)
    RunResult result;
};

/** A scalar fact a scenario adds to the machine-readable report. */
struct MetricRecord
{
    std::string label;
    std::string name;
    double value = 0.0;
};

/** The caching-vs-GMLake pair most figures compare. */
struct BenchPair
{
    RunResult caching;
    RunResult gmlake;
};

/**
 * Handed to a scenario's run function: applies the option overrides,
 * runs allocators, and records every result for the CSV/JSON report.
 * Human-facing tables go to out(); machine-facing data is whatever
 * was recorded.
 */
class ExperimentContext
{
  public:
    ExperimentContext(const ExperimentOptions &options,
                      std::ostream &out);

    const ExperimentOptions &options() const { return mOptions; }
    std::ostream &out() { return mOut; }

    /** Scenario-default iteration count, unless overridden. */
    int iterations(int scenarioDefault) const;

    /** Resolved worker-thread count (0 -> hardware threads). */
    int threads() const;

    /** Fold the overrides into a workload/device description. */
    workload::TrainConfig adjust(workload::TrainConfig cfg) const;
    workload::ServeConfig adjust(workload::ServeConfig cfg) const;
    vmm::DeviceConfig adjust(vmm::DeviceConfig cfg) const;
    ScenarioOptions adjust(ScenarioOptions scenario) const;

    /**
     * The one recording call: open the timeline lane "<label>
     * [<allocator>]", replay @p sessions on @p rig and record the
     * combined result. @p allocatorName overrides the allocator
     * column (default: the rig's allocator kind).
     */
    MultiRunResult run(Rig &rig, std::vector<Session> sessions,
                       const std::string &label,
                       const workload::TrainConfig *config = nullptr,
                       const std::string &allocatorName = "");

    /** Run one adjusted training scenario and record the result. */
    RunResult run(const workload::TrainConfig &cfg, AllocatorKind kind,
                  const ScenarioOptions &scenario = {},
                  const std::string &label = "");

    /** Replay an explicit trace (serving scenarios) and record. */
    RunResult run(AllocatorKind kind, const workload::Trace &trace,
                  const std::string &label);

    /** run() under both paper allocators (caching, gmlake). */
    BenchPair runPair(const workload::TrainConfig &cfg,
                      const ScenarioOptions &scenario = {},
                      const std::string &label = "");

    /** Record a result computed outside run() (cluster and sweep
     *  sub-runs on worker threads); opens no timeline lane. */
    void record(const std::string &label, const std::string &allocator,
                const RunResult &result);

    /** Record a scalar metric (latency ratios, aggregates, ...). */
    void metric(const std::string &label, const std::string &name,
                double value);

    /**
     * Attach an observability recorder (borrowed). Every run() opens
     * its own process lane in the exported timeline; results passed
     * to record() share the lane open at the time. nullptr (the
     * default) records nothing.
     */
    void setRecorder(obs::Recorder *recorder) { mRecorder = recorder; }
    obs::Recorder *recorder() const { return mRecorder; }

    const std::vector<RunRecord> &records() const { return mRecords; }
    const std::vector<MetricRecord> &metrics() const
    {
        return mMetrics;
    }

  private:
    ExperimentOptions mOptions;
    std::ostream &mOut;
    std::vector<RunRecord> mRecords;
    std::vector<MetricRecord> mMetrics;
    obs::Recorder *mRecorder = nullptr;
};

/** A named, registered scenario. */
struct Experiment
{
    std::string name;  //!< stable CLI id, e.g. "fig10", "headline"
    std::string kind;  //!< figure | table | section | aggregate | extension
    std::string title; //!< one-line banner headline
    std::string claim; //!< the paper claim being reproduced
    std::function<void(ExperimentContext &)> run;
};

class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Register a scenario; duplicate names are a hard error. */
    void add(Experiment experiment);

    const Experiment *find(const std::string &name) const;
    const std::vector<Experiment> &all() const { return mExperiments; }

  private:
    std::vector<Experiment> mExperiments;
};

/**
 * Register the built-in figure/table scenarios (registry.cc).
 * Idempotent; called by allExperiments()/findExperiment().
 */
void registerBuiltinExperiments();

/** Every registered scenario, builtins included, in CLI order. */
const std::vector<Experiment> &allExperiments();

/** Look up one scenario by name; nullptr when unknown. */
const Experiment *findExperiment(const std::string &name);

/** Artifact emission for one executed scenario. */
struct ExperimentRunOptions
{
    ExperimentOptions experiment{};
    bool banner = true;
    /** Non-empty: append one CSV row per recorded run. */
    std::string csvPath;
    /** Non-empty: write the scenario report as JSON. */
    std::string jsonPath;
    /**
     * Non-empty: run with the observability recorder active and
     * export the merged timeline as Chrome-trace/Perfetto JSON.
     * Recording never advances the simulated clock, so every
     * decision digest and RunResult field is identical with or
     * without it.
     */
    std::string timelinePath;
    /** Non-empty: also export the columnar binary dump (.gmo). */
    std::string timelineBinPath;
};

/** Default artifact names: BENCH_<name>.csv / BENCH_<name>.json. */
std::string defaultCsvPath(const Experiment &experiment);
std::string defaultJsonPath(const Experiment &experiment);

/** A report value, typed so that JSON and CSV each render it once. */
using ReportValue = std::variant<bool, std::int64_t, std::uint64_t,
                                 double, std::string>;

/** One report column: its key and its value. */
struct ReportField
{
    const char *key;
    ReportValue value;
};

/**
 * RunResult's report columns, each named once, in emission order:
 * the one schema every run record is written from (`run --json` and
 * `--csv`, the sweep warmup and points, chaos trials, `trace run |
 * replay --csv`).
 */
std::vector<ReportField> runResultFields(const RunResult &result);

/**
 * Write @p fields as JSON `"key": value` pairs joined by ", " — an
 * object's members without the braces.
 */
void writeJsonFields(std::ostream &out,
                     const std::vector<ReportField> &fields);

/**
 * The rule appendRunCsv() appends under: a file that starts with a
 * header other than experimentCsvHeader() is FATAL. Returns whether
 * the file is missing or empty, so the header is still to be
 * written. Verbs call it before they replay anything, so a stale
 * file is refused before the run, not after it.
 */
bool checkRunCsv(const std::string &path);

/**
 * Append one CSV row per record, under experimentCsvHeader(), with
 * @p scenario in the first column. A missing or empty file gets the
 * header first; a file checkRunCsv() refuses is FATAL before anything
 * is written.
 */
void appendRunCsv(const std::string &path, const std::string &scenario,
                  const std::vector<RunRecord> &records);

/**
 * The exact --csv column set: `scenario` followed by
 * experimentJsonRecordKeys(). Golden-pinned by the format regression
 * test: adding, removing, or renaming a column must be a deliberate,
 * test-visible act because downstream plotting scripts key on these
 * names.
 */
const std::string &experimentCsvHeader();

/**
 * The per-record key set of the --json report, in emission order:
 * `label`, `allocator`, then runResultFields() (same golden-pinning
 * contract as experimentCsvHeader()).
 */
const std::vector<std::string> &experimentJsonRecordKeys();

/**
 * Execute one scenario: banner, run function, artifact emission.
 * Returns a process exit code (0 on success).
 */
int runExperiment(const Experiment &experiment,
                  const ExperimentRunOptions &options,
                  std::ostream &out);

/**
 * main() body of `gmlake_sim run`: applies argv (argv[0] is the
 * scenario name) to the run verb's flag table — --help prints it —
 * and runs the named scenario. Returns 1, without running it, on a
 * bad flag.
 */
int experimentMain(const std::string &name, int argc, char **argv);

} // namespace gmlake::sim

#endif // GMLAKE_SIM_EXPERIMENT_HH
