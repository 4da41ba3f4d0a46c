/**
 * @file
 * gmlake_bench — the fixed-workload benchmark of the GMLake simulator.
 *
 *   gmlake_bench run --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--scale full|tiny] [--out FILE]
 *                    [--trace-out FILE] [--tmp-dir DIR]
 *
 * Runs one workload: set-up at least five times, one caching-baseline
 * replay, one warm-up gmlake replay, then timed gmlake replays until
 * --seconds have passed (at least five). With --trace 1 it adds a
 * traced replay (layer timing), a replay under the obs recorder and a
 * staged-engine replay. Every replay passes the correctness gate or
 * counts as failed. Host times are scaled to the reference speed of
 * calibration.hh. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}, the metrics being the
 * end-to-end ones (--trace 0) or the per-layer ones (--trace 1). Exit
 * status is 0 only when nothing failed.
 *
 * suite.py runs every workload, each in its own process, and compares
 * results files.
 */

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calibration.hh"
#include "json.hh"
#include "replay.hh"
#include "support/logging.hh"
#include "support/rss.hh"
#include "support/stopwatch.hh"
#include "support/units.hh"
#include "workloads.hh"

#ifndef GMLAKE_BENCH_BUILD_TYPE
#define GMLAKE_BENCH_BUILD_TYPE "unknown"
#endif

namespace gmlake::bench
{

namespace
{

constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupBudgetS = 1.5;
constexpr std::size_t kMinTimedReplays = 5;

// ------------------------------------------------------------- pins

/**
 * Digests of seed 42, recorded from the simulator when the benchmark
 * was defined. A replay at seed 42 whose inputs or results differ
 * fails the correctness gate: a change that alters allocation
 * decisions must say so by re-recording these (every run prints its
 * digests).
 */
struct Pin
{
    const char *workload;
    Scale scale;
    std::uint64_t events;
    std::uint64_t eventHash;
    std::uint64_t gmlake;
    std::uint64_t caching;
};

constexpr std::uint64_t kPinnedSeed = 42;

constexpr Pin kPins[] = {
    {"train-matrix", Scale::full, 1063928, 0xcff7755aa8f8ffdcULL,
     0xbe07a10e50c23b32ULL, 0x33e6f46c0978f11cULL},
    {"stress-deep-pool", Scale::full, 132328, 0xc9a271d9716d0ab9ULL,
     0xe0c655d53f4a3b22ULL, 0x62b2ac32b3bf9cdcULL},
    {"serve-fleet", Scale::full, 4583451, 0x777145db46187287ULL,
     0x3f8777a1b30226efULL, 0x4dd5e38678cb08d5ULL},
    {"oversub-offload", Scale::full, 12256, 0x25895a2b40fb0aaaULL,
     0x51bf747e69dbd131ULL, 0x8c1913abf90dcc64ULL},
    {"train-matrix", Scale::tiny, 29480, 0x4be499ce28e9061fULL,
     0x195c186a98ec44e5ULL, 0x7be4d3f71794f360ULL},
    {"stress-deep-pool", Scale::tiny, 24296, 0xb9a92b41dc7e6a31ULL,
     0x76b38a7b0bc10461ULL, 0x36e2defdd978c259ULL},
    {"serve-fleet", Scale::tiny, 229736, 0xf9db8e1dcad7e553ULL,
     0xf1f745c0fec5bfb7ULL, 0xc21070d11a2d8fbeULL},
    {"oversub-offload", Scale::tiny, 2912, 0x562e55c15645df5fULL,
     0x9f9e8456ddaea6faULL, 0x342453bb205c235dULL},
};

const Pin *
findPin(const char *workload, Scale scale)
{
    for (const Pin &pin : kPins) {
        if (std::string_view(pin.workload) == workload &&
            pin.scale == scale)
            return &pin;
    }
    return nullptr;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

const char *
scaleName(Scale scale)
{
    return scale == Scale::full ? "full" : "tiny";
}

// ----------------------------------------------------------- metrics

/** Which printed group a metric belongs to (mirrors BENCHMARK.json). */
enum class Group
{
    endToEnd,
    perLayer,
    /** Results file only. */
    record,
};

struct Metric
{
    std::string name;
    std::string unit;
    std::string better;
    Group group;
    /** Simulated or counted: repeats exactly for a seed. */
    bool exact;
    std::vector<double> values;
};

struct Stats
{
    double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
    std::size_t n = 0;
};

/** Median, and quartiles as Python's statistics.quantiles(n=4). */
Stats
summarize(std::vector<double> v)
{
    Stats s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.min = v.front();
    s.max = v.back();
    s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    if (n == 1) {
        s.q1 = s.q3 = v[0];
        return s;
    }
    auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

class Metrics
{
  public:
    void
    host(std::string name, std::string unit, std::string better,
         Group group, std::vector<double> values)
    {
        mList.push_back(Metric{std::move(name), std::move(unit),
                               std::move(better), group, false,
                               std::move(values)});
    }

    void
    exact(std::string name, std::string unit, std::string better,
          Group group, double value)
    {
        mList.push_back(Metric{std::move(name), std::move(unit),
                               std::move(better), group, true,
                               {value}});
    }

    const std::vector<Metric> &list() const { return mList; }

  private:
    std::vector<Metric> mList;
};

// ------------------------------------------------- correctness gate

/**
 * Runs replays and counts the failed ones: a replay fails when it
 * throws, when its own checks find a violation (see replay()), when
 * its digest differs from the first replay of the same allocator, when
 * a serial replay pulled a different number of events than the first
 * serial one, or — at the pinned seed — when its digest differs from
 * the pinned one.
 */
class Gate
{
  public:
    Gate(const Pin *pin, Calibrator &calibrator)
        : mPin(pin), mCalibrator(calibrator)
    {
    }

    std::optional<Replay>
    attempt(const std::string &what, const Inputs &inputs,
            const ReplayOptions &options)
    {
        ++mAttempted;
        std::vector<std::string> problems;
        std::optional<Replay> result;
        ReplayOptions full = options;
        full.layoutSeed = mAttempted; // each replay its own heap shift
        full.calibrator = &mCalibrator;
        try {
            result = replay(inputs, full);
            problems = result->failures;
        } catch (const std::exception &e) {
            problems.push_back(detail::concat("threw: ", e.what()));
        }
        if (result) {
            const bool caching =
                options.kind == sim::AllocatorKind::caching;
            Seen &first = caching ? mCaching : mGmlake;
            if (!first.digest)
                first.digest = result->digest;
            else if (*first.digest != result->digest)
                problems.push_back(detail::concat(
                    "digest ", hex(result->digest),
                    " differs from the first replay's ",
                    hex(*first.digest)));
            // The staged engine may pull ahead of what it commits.
            if (options.engineThreads == 1) {
                if (!first.events)
                    first.events = result->events;
                else if (*first.events != result->events)
                    problems.push_back(detail::concat(
                        "pulled ", result->events,
                        " events, the first serial replay ",
                        *first.events));
            }
            if (mPin != nullptr) {
                const std::uint64_t pinned =
                    caching ? mPin->caching : mPin->gmlake;
                if (result->digest != pinned)
                    problems.push_back(detail::concat(
                        "digest ", hex(result->digest),
                        " differs from the pinned ", hex(pinned)));
            }
        }
        if (!problems.empty()) {
            ++mFailed;
            for (const std::string &p : problems)
                note(what + " replay: " + p);
        }
        return result;
    }

    /** A failed check every replay depends on: all of them fail. */
    void
    poison(const std::string &why)
    {
        mPoisoned = true;
        note(why);
    }

    std::uint64_t attempted() const { return mAttempted; }
    std::uint64_t
    failed() const
    {
        return mPoisoned ? std::max<std::uint64_t>(mAttempted, 1)
                         : mFailed;
    }
    const std::vector<std::string> &failures() const { return mFailures; }
    std::optional<std::uint64_t> gmlakeDigest() const { return mGmlake.digest; }
    std::optional<std::uint64_t>
    cachingDigest() const
    {
        return mCaching.digest;
    }

  private:
    struct Seen
    {
        std::optional<std::uint64_t> digest;
        std::optional<std::uint64_t> events;
    };

    void
    note(const std::string &message)
    {
        std::cerr << "gmlake_bench: FAIL " << message << '\n';
        if (mFailures.size() < 32)
            mFailures.push_back(message);
    }

    const Pin *mPin;
    Calibrator &mCalibrator;
    std::uint64_t mAttempted = 0;
    std::uint64_t mFailed = 0;
    bool mPoisoned = false;
    Seen mGmlake, mCaching;
    std::vector<std::string> mFailures;
};

// -------------------------------------------------------------- run

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = kPinnedSeed;
    double seconds = 20.0;
    bool trace = true;
    Scale scale = Scale::full;
    std::string out;
    std::string traceOut;
    std::string tmpDir;
};

/** A private scratch directory, removed with everything in it. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &base)
    {
        const std::filesystem::path root =
            base.empty() ? std::filesystem::temp_directory_path()
                         : std::filesystem::path(base);
        mPath = root / detail::concat("gmlake_bench-", ::getpid());
        std::filesystem::create_directories(mPath);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(mPath, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string path() const { return mPath.string(); }

  private:
    std::filesystem::path mPath;
};

std::size_t
stagedThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::min<std::size_t>(4, std::max(1u, hw));
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

JsonText
metaJson(const RunArgs &args)
{
    JsonText meta = JsonText::object();
    meta.add("seed", args.seed)
        .add("scale", scaleName(args.scale))
        .add("seconds", args.seconds)
        .add("trace", args.trace)
        .add("cpu", cpuModel())
        .add("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
    meta.add("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
    meta.add("compiler", "GCC " __VERSION__);
#else
    meta.add("compiler", "unknown");
#endif
    meta.add("build_type", GMLAKE_BENCH_BUILD_TYPE);
    return meta;
}

double
toGiB(double bytes)
{
    return bytes / static_cast<double>(GiB);
}

/** End-to-end metrics from the untimed facts of a gmlake replay. */
void
addSimulated(Metrics &m, const Replay &gmlake,
             const std::optional<Replay> &caching)
{
    double reserved = 0, utilization = 0, simNs = 0, killed = 0;
    for (const RowFacts &row : gmlake.rows) {
        reserved += static_cast<double>(row.peakReserved);
        utilization += row.utilization;
        simNs += static_cast<double>(row.simTime);
        killed += row.killed;
    }
    const double rows = static_cast<double>(gmlake.rows.size());
    m.exact("reserved_gib", "GiB", "lower", Group::endToEnd,
            toGiB(reserved / rows));
    m.exact("utilization", "ratio", "higher", Group::endToEnd,
            utilization / rows);
    m.exact("sim_time_s", "sim_s", "lower", Group::endToEnd,
            simNs * 1e-9);

    double saved = 0;
    int compared = 0;
    if (caching) {
        for (std::size_t i = 0; i < gmlake.rows.size(); ++i) {
            const RowFacts &g = gmlake.rows[i];
            const RowFacts &c = caching->rows[i];
            if (g.anyOom || c.anyOom)
                continue;
            saved += static_cast<double>(c.peakReserved) -
                     static_cast<double>(g.peakReserved);
            ++compared;
        }
    }
    m.exact("reserved_saved_gib", "GiB", "higher", Group::perLayer,
            compared > 0 ? toGiB(saved / compared) : 0.0);
    m.exact("tenants_killed", "count", "lower", Group::perLayer, killed);
}

/** Exact percentile (nearest rank) of @p sorted, in microseconds. */
double
percentileUs(const std::vector<std::uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::size_t index = std::clamp<std::size_t>(rank, 1,
                                                      sorted.size()) -
                              1;
    return static_cast<double>(sorted[index]) * 1e-3;
}

struct TracedRuns
{
    Layers layers;
    std::optional<Replay> traced;
    std::uint64_t pullNs = 0;
    std::optional<Replay> recorded;
    std::uint64_t dropped = 0;
    std::optional<Replay> staged;
};

/**
 * Per-layer metrics from the traced replays (see replay.hh). Layer
 * times are host times as measured; the overhead and speed-up ratios
 * compare scaled times, so machine drift between replays cancels.
 */
void
addLayers(Metrics &m, const TracedRuns &t, double untracedScaledNs)
{
    const Layers &l = t.layers;
    const Replay &r = *t.traced;
    const double ns = 1e-9;
    const double events = static_cast<double>(r.events);
    const double pull = static_cast<double>(t.pullNs);
    const double vmmInAlloc = static_cast<double>(
        l.vmmInAllocCallsNs - l.vmmInNestedReclaimNs);
    const double offloadInAlloc = static_cast<double>(l.offloadInAllocNs);
    const double offloadOutside =
        static_cast<double>(l.offloadBusyNs) - offloadInAlloc;
    const double allocBusy = static_cast<double>(l.allocBusyNs);
    const double simSelf = static_cast<double>(r.wallNs) - pull -
                           allocBusy - offloadOutside;
    const auto layer = Group::perLayer;

    m.host("workload.pull_s", "s", "lower", layer, {pull * ns});
    m.host("workload.ns_per_event", "ns", "lower", layer,
           {pull / events});
    m.exact("workload.events", "count", "higher", layer, events);

    m.host("sim.self_s", "s", "lower", layer, {simSelf * ns});
    m.host("sim.ns_per_event", "ns", "lower", layer, {simSelf / events});

    std::vector<std::uint64_t> sorted = l.allocateNs;
    std::sort(sorted.begin(), sorted.end());
    m.exact("alloc.calls", "count", "lower", layer,
            static_cast<double>(l.allocCalls));
    m.host("alloc.busy_s", "s", "lower", layer, {allocBusy * ns});
    m.host("alloc.p50_us", "us", "lower", layer,
           {percentileUs(sorted, 0.50)});
    m.host("alloc.p99_us", "us", "lower", layer,
           {percentileUs(sorted, 0.99)});
    m.host("alloc.p999_us", "us", "lower", layer,
           {percentileUs(sorted, 0.999)});
    m.exact("alloc.oom_returns", "count", "lower", layer,
            static_cast<double>(l.oomReturns));

    const core::StrategyCounters &s = r.strategy;
    const double large = static_cast<double>(
        s.s1ExactMatch + s.s2SingleBlock + s.s3MultiBlocks +
        s.s4Insufficient + s.s5Oom);
    m.host("core.self_s", "s", "lower", layer,
           {(allocBusy - vmmInAlloc - offloadInAlloc) * ns});
    m.exact("core.s1_exact", "count", "higher", layer,
            static_cast<double>(s.s1ExactMatch));
    m.exact("core.s2_single", "count", "higher", layer,
            static_cast<double>(s.s2SingleBlock));
    m.exact("core.s3_stitch", "count", "lower", layer,
            static_cast<double>(s.s3MultiBlocks));
    m.exact("core.s4_grow", "count", "lower", layer,
            static_cast<double>(s.s4Insufficient));
    m.exact("core.exact_hit_ratio", "ratio", "higher", layer,
            large > 0 ? static_cast<double>(s.s1ExactMatch) / large
                      : 0.0);
    m.exact("core.pblocks", "count", "lower", layer,
            static_cast<double>(r.pBlocks));
    m.exact("core.sblocks", "count", "lower", layer,
            static_cast<double>(r.sBlocks));

    const double vmmBusy = static_cast<double>(l.vmmBusyNs);
    m.host("vmm.busy_s", "s", "lower", layer, {vmmBusy * ns});
    m.host("vmm.in_alloc_s", "s", "lower", layer, {vmmInAlloc * ns});
    m.host("vmm.in_offload_s", "s", "lower", layer,
           {(vmmBusy - vmmInAlloc) * ns});
    m.exact("vmm.api_calls", "count", "lower", layer,
            static_cast<double>(r.apiCalls));
    m.exact("vmm.device_api_s", "sim_s", "lower", layer,
            static_cast<double>(r.deviceApiNs) * ns);
    m.exact("vmm.peak_holes", "count", "lower", layer,
            static_cast<double>(r.peakHoles));

    const double evicted = static_cast<double>(r.evictedBytes);
    m.host("offload.busy_s", "s", "lower", layer,
           {static_cast<double>(l.offloadBusyNs) * ns});
    m.exact("offload.evicted_gib", "GiB", "lower", layer, toGiB(evicted));
    m.exact("offload.faulted_gib", "GiB", "lower", layer,
            toGiB(static_cast<double>(r.faultedBytes)));
    m.exact("offload.refault_ratio", "ratio", "lower", layer,
            evicted > 0 ? static_cast<double>(r.faultedBytes) / evicted
                        : 0.0);
    m.exact("offload.stall_s", "sim_s", "lower", layer,
            static_cast<double>(r.stallNs) * ns);

    if (t.recorded) {
        m.host("obs.recorder_overhead", "ratio", "lower", layer,
               {t.recorded->scaledNs / untracedScaledNs});
    }
    m.exact("obs.dropped_events", "count", "lower", layer,
            static_cast<double>(t.dropped));
    m.host("bench.trace_overhead", "ratio", "lower", layer,
           {r.scaledNs / untracedScaledNs});
    if (t.staged) {
        m.host("sim.staged4_speedup", "ratio", "higher", layer,
               {untracedScaledNs / t.staged->scaledNs});
        m.host("sim.commit_stall_s", "s", "lower", layer,
               {static_cast<double>(t.staged->commitStallNs) * ns});
    }

    // The layer tree nests by construction except where a layer is
    // measured apart from the replay (the source drain); report any
    // inconsistency rather than hide it.
    if (simSelf < 0)
        std::cerr << "gmlake_bench: warning: sim.self_s < 0 (the "
                     "separately timed pull exceeds the replay's "
                     "remainder)\n";
}

JsonText
metricJson(const Metric &metric)
{
    const Stats s = summarize(metric.values);
    return JsonText::object()
        .add("unit", metric.unit)
        .add("better", metric.better)
        .add("group", metric.group == Group::endToEnd   ? "end_to_end"
                      : metric.group == Group::perLayer ? "per_layer"
                                                        : "record")
        .add("exact", metric.exact)
        .add("n", s.n)
        .add("median", s.median)
        .add("q1", s.q1)
        .add("q3", s.q3)
        .add("min", s.min)
        .add("max", s.max);
}

void
printMetrics(const Metrics &metrics)
{
    for (const Metric &metric : metrics.list()) {
        const Stats s = summarize(metric.values);
        std::printf("  %-24s %14s %-10s n=%-3zu", metric.name.c_str(),
                    formatNumber(s.median).c_str(), metric.unit.c_str(),
                    s.n);
        if (s.n > 1)
            std::printf(" q1=%s q3=%s min=%s max=%s",
                        formatNumber(s.q1).c_str(),
                        formatNumber(s.q3).c_str(),
                        formatNumber(s.min).c_str(),
                        formatNumber(s.max).c_str());
        std::printf("%s\n", metric.exact ? " exact" : "");
    }
}

/** A workload's inputs after set-up, with the set-up samples. */
struct Prepared
{
    Inputs inputs;
    Fingerprint fp;
    /** Set-up times at the reference speed, and as measured. */
    std::vector<double> setupS;
    std::vector<double> wallSetupS;
};

/**
 * Set-up: generate, build or pack the inputs and fingerprint them,
 * plus the first device and allocator construction. Repeated — a
 * short set-up until enough samples are in for a steady median, for
 * at most a tenth of --seconds (and kSetupBudgetS).
 */
Prepared
setUp(const WorkloadSpec &spec, const RunArgs &args,
      const std::string &scratch, Calibrator &calibrator)
{
    Prepared p;
    ScaledClock clock(calibrator);
    double scaledSoFar = 0.0;
    const double budgetS = std::min(kSetupBudgetS, args.seconds / 10);
    const Stopwatch all;
    while (p.setupS.size() < kMinSetups ||
           (p.setupS.size() < kMaxSetups &&
            static_cast<double>(all.elapsedNs()) * 1e-9 < budgetS)) {
        p.inputs = Inputs{}; // unmap before a rebuild rewrites the file
        const Stopwatch setup;
        p.inputs = spec.build(args.seed, args.scale, scratch);
        p.fp = fingerprint(p.inputs);
        const Row &first = p.inputs.rows.front();
        vmm::Device device(first.device);
        const auto allocator = sim::makeAllocator(
            sim::AllocatorKind::gmlake, device, first.gmlake);
        const std::uint64_t ns = setup.elapsedNs();
        clock.add(ns);
        const double scaled = clock.total();
        p.setupS.push_back((scaled - scaledSoFar) * 1e-9);
        p.wallSetupS.push_back(static_cast<double>(ns) * 1e-9);
        scaledSoFar = scaled;
    }
    return p;
}

/** The replays of --trace 1: layer timing, recorder, staged engine. */
TracedRuns
runTraced(Gate &gate, const Prepared &p, const std::string &traceOut)
{
    TracedRuns t;
    t.traced = gate.attempt("traced", p.inputs, {.layers = &t.layers});
    if (!t.traced)
        return t;
    const Stopwatch pull;
    const std::uint64_t drained = drain(p.inputs, t.traced->pulled);
    t.pullNs = pull.elapsedNs();
    if (drained != t.traced->events)
        gate.poison(detail::concat("a fresh drain pulled ", drained,
                                   " events, the traced replay ",
                                   t.traced->events));
    obs::Recorder recorder;
    t.recorded = gate.attempt("recorder", p.inputs, {.recorder = &recorder});
    t.dropped = recorder.dropped();
    t.staged = gate.attempt("staged", p.inputs,
                            {.engineThreads = stagedThreads()});
    if (!traceOut.empty())
        t.layers.spans.writeChromeTrace(traceOut);
    return t;
}

/** The results-file document of one workload's run. */
JsonText
resultsJson(const WorkloadSpec &spec, const RunArgs &args,
            const Gate &gate, const Fingerprint &fp,
            const Metrics &metrics, bool correct)
{
    JsonText failures = JsonText::array();
    for (const std::string &f : gate.failures())
        failures.push(f);
    JsonText list = JsonText::object();
    for (const Metric &metric : metrics.list())
        list.add(metric.name, metricJson(metric));
    return JsonText::object()
        .add("meta", metaJson(args))
        .add("workload", spec.name)
        .add("why", spec.why)
        .add("correct", correct)
        .add("attempted", gate.attempted())
        .add("failed", gate.failed())
        .add("failures", failures)
        .add("events", fp.events)
        .add("event_hash", hex(fp.hash))
        .add("gmlake_digest", hex(gate.gmlakeDigest().value_or(0)))
        .add("caching_digest", hex(gate.cachingDigest().value_or(0)))
        .add("metrics", list);
}

/** The last stdout line: end-to-end or per-layer metric medians. */
void
printResultLine(const Gate &gate, bool correct, const Metrics &metrics,
                Group wanted)
{
    JsonText values = JsonText::object();
    for (const Metric &metric : metrics.list()) {
        if (metric.group != wanted)
            continue;
        values.add(metric.name,
                   JsonText::object()
                       .add("value", summarize(metric.values).median)
                       .add("unit", metric.unit));
    }
    std::cout << JsonText::object()
                     .add("correct", correct)
                     .add("attempted", gate.attempted())
                     .add("failed", gate.failed())
                     .add("metrics", values)
                     .str()
              << std::endl;
}

int
runWorkload(const WorkloadSpec &spec, const RunArgs &args)
{
    setLogLevel(LogLevel::error); // OOM kills are results here
    const ScratchDir scratch(args.tmpDir);
    const Pin *pin = nullptr;
    if (args.seed == kPinnedSeed) {
        pin = findPin(spec.name, args.scale);
        if (pin == nullptr)
            GMLAKE_FATAL("no pinned digests for ", spec.name, " at scale ",
                         scaleName(args.scale));
    }
    Calibrator calibrator;
    Gate gate(pin, calibrator);

    const Prepared p = setUp(spec, args, scratch.path(), calibrator);
    const Fingerprint &fp = p.fp;
    if (pin != nullptr &&
        (fp.events != pin->events || fp.hash != pin->eventHash))
        gate.poison(detail::concat("input fingerprint ", fp.events, "/",
                                   hex(fp.hash), " differs from the pinned ",
                                   pin->events, "/", hex(pin->eventHash)));

    const auto caching = gate.attempt(
        "caching", p.inputs, {.kind = sim::AllocatorKind::caching});
    std::optional<Replay> gmlake = gate.attempt("warm-up", p.inputs, {});
    std::vector<double> eventsPerS, wallEventsPerS, scaledNs;
    const Stopwatch timed;
    while (gmlake &&
           (scaledNs.size() < kMinTimedReplays ||
            static_cast<double>(timed.elapsedNs()) * 1e-9 < args.seconds)) {
        auto r = gate.attempt("timed", p.inputs, {});
        if (!r)
            break;
        const double events = static_cast<double>(r->events);
        eventsPerS.push_back(events / (r->scaledNs * 1e-9));
        wallEventsPerS.push_back(events /
                                 (static_cast<double>(r->wallNs) * 1e-9));
        scaledNs.push_back(r->scaledNs);
        gmlake = std::move(r);
    }
    const double peakRssMib = static_cast<double>(peakRssBytes()) /
                              static_cast<double>(MiB);
    const TracedRuns t = args.trace && gmlake
                             ? runTraced(gate, p, args.traceOut)
                             : TracedRuns{};

    Metrics metrics;
    if (!scaledNs.empty()) {
        metrics.host("events_per_s", "events/s", "higher",
                     Group::endToEnd, eventsPerS);
        metrics.host("setup_s", "s", "lower", Group::endToEnd, p.setupS);
        metrics.host("peak_rss_mib", "MiB", "lower", Group::endToEnd,
                     {peakRssMib});
        addSimulated(metrics, *gmlake, caching);
        metrics.host("bench.wall_events_per_s", "events/s", "higher",
                     Group::perLayer, wallEventsPerS);
        metrics.host("bench.wall_setup_s", "s", "lower", Group::perLayer,
                     p.wallSetupS);
        std::vector<double> loopMs = calibrator.samples();
        for (double &v : loopMs)
            v *= 1e-6;
        metrics.host("bench.calibration_ms", "ms", "lower",
                     Group::perLayer, loopMs);
        if (t.traced)
            addLayers(metrics, t, summarize(scaledNs).median);
    }
    const double attempted = static_cast<double>(gate.attempted());
    const bool correct = gate.failed() == 0 && !scaledNs.empty();
    metrics.exact("failure_ratio", "ratio", "lower", Group::record,
                  attempted > 0 ? static_cast<double>(gate.failed()) /
                                      attempted
                                : 1.0);

    std::printf("gmlake_bench %s (seed %llu, %s scale): %llu events, "
                "digest gmlake %s caching %s, input %s\n",
                spec.name, static_cast<unsigned long long>(args.seed),
                scaleName(args.scale),
                static_cast<unsigned long long>(fp.events),
                hex(gate.gmlakeDigest().value_or(0)).c_str(),
                hex(gate.cachingDigest().value_or(0)).c_str(),
                hex(fp.hash).c_str());
    printMetrics(metrics);
    if (!args.out.empty()) {
        std::ofstream out(args.out);
        out << resultsJson(spec, args, gate, fp, metrics, correct).str()
            << '\n';
        if (!out)
            GMLAKE_FATAL("cannot write ", args.out);
    }
    printResultLine(gate, correct, metrics,
                    args.trace ? Group::perLayer : Group::endToEnd);
    return correct ? 0 : 1;
}

// --------------------------------------------------------------- CLI

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr
        << "gmlake_bench: " << why << "\n"
        << "usage: gmlake_bench run --workload NAME [--seed N] "
           "[--seconds S] [--trace 0|1]\n"
           "                        [--scale full|tiny] [--out FILE] "
           "[--trace-out FILE] [--tmp-dir DIR]\n"
           "workloads:";
    for (const WorkloadSpec &spec : workloads())
        std::cerr << ' ' << spec.name;
    std::cerr << '\n';
    std::exit(2);
}

template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    T value{};
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (res.ec != std::errc() || res.ptr != text.data() + text.size())
        usage(flag + " expects a number, got '" + text + "'");
    return value;
}

int
mainImpl(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] != "run")
        usage(args.empty() ? "missing command"
                           : "unknown command '" + args[0] + "'");
    auto value = [&](std::size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            usage(args[i] + " needs a value");
        return args[++i];
    };

    RunArgs run;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--workload") {
            run.workload = value(i);
        } else if (flag == "--seed") {
            run.seed = parseNumber<std::uint64_t>(flag, value(i));
        } else if (flag == "--seconds") {
            run.seconds = parseNumber<double>(flag, value(i));
            if (!(run.seconds >= 0 && run.seconds <= 3600))
                usage("--seconds must be within [0, 3600]");
        } else if (flag == "--trace") {
            const std::string &v = value(i);
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            run.trace = v == "1";
        } else if (flag == "--scale") {
            const std::string &v = value(i);
            if (v != "full" && v != "tiny")
                usage("--scale expects full or tiny");
            run.scale = v == "full" ? Scale::full : Scale::tiny;
        } else if (flag == "--out") {
            run.out = value(i);
        } else if (flag == "--trace-out") {
            run.traceOut = value(i);
        } else if (flag == "--tmp-dir") {
            run.tmpDir = value(i);
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (run.workload.empty())
        usage("run needs --workload (suite.py runs them all)");
    const WorkloadSpec *spec = findWorkload(run.workload);
    if (spec == nullptr)
        usage("unknown workload '" + run.workload + "'");
    return runWorkload(*spec, run);
}

} // namespace

} // namespace gmlake::bench

int
main(int argc, char **argv)
{
    try {
        return gmlake::bench::mainImpl(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "gmlake_bench: " << e.what() << '\n';
        return 1;
    }
}
