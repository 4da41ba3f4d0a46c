#include "sim/sweep.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>

#include "alloc/allocator.hh"
#include "sim/experiment.hh"
#include "sim/session.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"
#include "support/units.hh"
#include "workload/servegen.hh"
#include "workload/tracegen.hh"

namespace gmlake::sim
{

namespace
{

using namespace gmlake::literals;
using workload::trainConfig;

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    std::size_t begin = 0;
    while (begin <= s.size()) {
        const std::size_t end = s.find(sep, begin);
        if (end == std::string::npos) {
            parts.push_back(s.substr(begin));
            break;
        }
        parts.push_back(s.substr(begin, end - begin));
        begin = end + 1;
    }
    return parts;
}

std::string
pointLabel(const core::GMLakeConfig &c)
{
    return detail::concat(
        "frag=", formatDouble(static_cast<double>(c.fragLimit) /
                                  static_cast<double>(MiB), 0),
        "M tol=", formatDouble(c.nearMatchTolerance, 3),
        " sblk=", c.maxCachedSBlocks,
        " ovs=", formatDouble(c.maxVaOverscribe, 1),
        " stitch=", c.enableStitching ? "on" : "off");
}

/** What the warmup replay leaves behind for the per-point forks. */
struct WarmupArtifacts
{
    alloc::Checkpoint checkpoint;
    std::shared_ptr<const ResumeState> resume;
    RunResult result;
    bool oom = false;
};

WarmupArtifacts
replayWarmup(const SweepScenario &scenario,
             const std::vector<Tenant> &warmupTenants,
             const SweepRunOptions &options)
{
    ScenarioOptions rigOptions = scenario.rigOptions();
    rigOptions.engine.captureResume = true;
    Rig rig(options.kind, rigOptions);
    MultiRunResult multi = rig.run(borrowSessions(warmupTenants));
    GMLAKE_ASSERT(multi.resume != nullptr,
                  "warmup run captured no resume state");
    return WarmupArtifacts{rig.allocator().saveState(), multi.resume,
                           std::move(multi.combined),
                           multi.anyOom()};
}

RunResult
replayTail(const SweepScenario &scenario,
           const std::vector<Tenant> &tailTenants,
           const core::GMLakeConfig &config,
           const WarmupArtifacts &warmup,
           const SweepRunOptions &options)
{
    ScenarioOptions rigOptions = scenario.rigOptions();
    rigOptions.gmlake = config;
    rigOptions.engine.resume = warmup.resume;
    Rig rig(options.kind, rigOptions);
    rig.allocator().restoreState(warmup.checkpoint);
    // Every session rides along — even one whose tail is empty or
    // that died during warmup — so stream namespacing and reclaim's
    // survivor scan match the uninterrupted replay.
    return rig.run(borrowSessions(tailTenants)).combined;
}

/** a dominates b on (fragmentation, deviceApiTime, simTime). */
bool
dominates(const RunResult &a, const RunResult &b)
{
    if (a.fragmentation > b.fragmentation ||
        a.deviceApiTime > b.deviceApiTime || a.simTime > b.simTime)
        return false;
    return a.fragmentation < b.fragmentation ||
           a.deviceApiTime < b.deviceApiTime || a.simTime < b.simTime;
}

} // namespace

Tick
tenantsSpan(const std::vector<Tenant> &tenants)
{
    Tick span = 0;
    for (const Tenant &tenant : tenants) {
        Tick local = tenant.startTime;
        for (const workload::Event &event : tenant.trace.events()) {
            if (event.kind == workload::EventKind::compute)
                local += event.computeNs;
        }
        span = std::max(span, local);
    }
    return span;
}

std::pair<std::vector<Tenant>, std::vector<Tenant>>
splitTenantsAt(const std::vector<Tenant> &tenants, Tick splitTime)
{
    std::vector<Tenant> warmups;
    std::vector<Tenant> tails;
    for (const Tenant &tenant : tenants) {
        Tenant &warmup = warmups.emplace_back(
            Tenant{tenant.name, {}, tenant.startTime});
        Tenant &tail = tails.emplace_back(Tenant{tenant.name, {}, 0});
        Tick local = tenant.startTime;
        for (const workload::Event &event : tenant.trace.events()) {
            (local < splitTime ? warmup : tail).trace.append(event);
            if (event.kind == workload::EventKind::compute)
                local += event.computeNs;
        }
    }
    return {std::move(warmups), std::move(tails)};
}

ScenarioOptions
SweepScenario::rigOptions() const
{
    ScenarioOptions options;
    options.device = device;
    options.gmlake = base;
    options.engine.recordSeries = false;
    return options;
}

std::vector<SweepPoint>
SweepGrid::expand(const core::GMLakeConfig &base) const
{
    // Empty axes collapse to the base value so the product below
    // is never empty.
    const auto orBase = [](auto axis, auto baseValue) {
        if (axis.empty())
            axis.push_back(baseValue);
        return axis;
    };
    const auto frags = orBase(fragLimits, base.fragLimit);
    const auto tols =
        orBase(nearMatchTolerances, base.nearMatchTolerance);
    const auto sblocks =
        orBase(maxCachedSBlocks, base.maxCachedSBlocks);
    const auto overs = orBase(maxVaOverscribes, base.maxVaOverscribe);
    const auto stitch = orBase(enableStitching, base.enableStitching);

    std::vector<SweepPoint> points;
    points.reserve(frags.size() * tols.size() * sblocks.size() *
                   overs.size() * stitch.size());
    for (const Bytes frag : frags) {
        for (const double tol : tols) {
            for (const std::size_t sblk : sblocks) {
                for (const double over : overs) {
                    for (const bool on : stitch) {
                        core::GMLakeConfig config = base;
                        config.fragLimit = frag;
                        config.nearMatchTolerance = tol;
                        config.maxCachedSBlocks = sblk;
                        config.maxVaOverscribe = over;
                        config.enableStitching = on;
                        points.push_back(SweepPoint{
                            pointLabel(config), config});
                    }
                }
            }
        }
    }
    return points;
}

SweepGrid
parseGridSpec(const std::string &spec)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    SweepGrid grid;
    for (const std::string &axis : splitOn(spec, ';')) {
        if (axis.empty())
            continue;
        const std::size_t eq = axis.find('=');
        if (eq == std::string::npos)
            GMLAKE_FATAL("sweep grid axis '", axis,
                         "' has no '=' (expected KEY=V1,V2,...)");
        const std::string key = axis.substr(0, eq);
        const std::vector<std::string> values =
            splitOn(axis.substr(eq + 1), ',');
        if (values.empty() ||
            (values.size() == 1 && values[0].empty()))
            GMLAKE_FATAL("sweep grid axis '", key, "' has no values");
        const std::string what = "sweep grid axis " + key;
        for (const std::string &value : values) {
            if (key == "frag") {
                grid.fragLimits.push_back(
                    parseInteger(what, value, 0,
                                 std::numeric_limits<Bytes>::max() /
                                     MiB) *
                    MiB);
            } else if (key == "tol") {
                grid.nearMatchTolerances.push_back(
                    parseReal(what, value, 0.0, kInf));
            } else if (key == "sblocks") {
                grid.maxCachedSBlocks.push_back(parseInteger(
                    what, value, 0,
                    std::numeric_limits<std::size_t>::max()));
            } else if (key == "overscribe") {
                grid.maxVaOverscribes.push_back(
                    parseReal(what, value, 0.0, kInf));
            } else if (key == "stitch") {
                if (value != "on" && value != "off")
                    GMLAKE_FATAL("sweep grid axis stitch: expected "
                                 "on/off, got '", value, "'");
                grid.enableStitching.push_back(value == "on");
            } else {
                GMLAKE_FATAL("unknown sweep grid axis '", key,
                             "' (frag | tol | sblocks | overscribe "
                             "| stitch)");
            }
        }
    }
    return grid;
}

std::vector<SweepPoint>
randomSweepPoints(const core::GMLakeConfig &base, std::size_t count,
                  std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, 0x5eebULL));
    std::vector<SweepPoint> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        core::GMLakeConfig config = base;
        // Chunk-aligned power-of-two frag limits up to 128 MiB.
        config.fragLimit = core::kChunkSize << rng.uniformInt(0, 6);
        config.nearMatchTolerance =
            static_cast<double>(rng.uniformInt(0, 16)) / 32.0;
        config.maxCachedSBlocks =
            std::size_t{1} << rng.uniformInt(2, 13);
        config.maxVaOverscribe =
            1.0 + static_cast<double>(rng.uniformInt(0, 28)) / 4.0;
        config.enableStitching = rng.chance(0.85);
        points.push_back(SweepPoint{pointLabel(config), config});
    }
    return points;
}

const std::vector<std::string> &
sweepScenarioNames()
{
    static const std::vector<std::string> names = {"smoke", "train",
                                                   "colocate"};
    return names;
}

SweepScenario
buildSweepScenario(const std::string &name, std::uint64_t seed,
                   int iterations)
{
    SweepScenario scenario;
    scenario.name = name;
    if (name == "smoke") {
        // Two staggered GPT-2 tenants: small enough for CI, two
        // sessions so the resume path covers the co-location
        // machinery (stream namespaces, per-session seeds).
        const int iters = iterations > 0 ? iterations : 2;
        scenario.device.capacity = 16_GiB;
        for (int t = 0; t < 2; ++t) {
            const auto cfg = trainConfig(
                "GPT-2", "LR", 2, 8, iters,
                deriveSeed(seed, static_cast<std::uint64_t>(t)));
            scenario.tenants.push_back(
                {detail::concat("train-", t),
                 workload::generateTrainingTrace(cfg),
                 static_cast<Tick>(t) * Tick{5'000'000}});
        }
    } else if (name == "train") {
        const int iters = iterations > 0 ? iterations : 6;
        scenario.device.capacity = 24_GiB;
        scenario.tenants.push_back(
            {"train", workload::generateTrainingTrace(trainConfig(
                          "OPT-1.3B", "LR", 4, 32, iters,
                          deriveSeed(seed, 0)))});
    } else if (name == "colocate") {
        const int iters = iterations > 0 ? iterations : 4;
        scenario.device.capacity = 24_GiB;
        scenario.tenants.push_back(
            {"train", workload::generateTrainingTrace(trainConfig(
                          "OPT-1.3B", "LR", 2, 32, iters,
                          deriveSeed(seed, 0)))});
        workload::ServeConfig serveCfg;
        serveCfg.model = workload::findModel("OPT-1.3B");
        serveCfg.requests = 64 * iters;
        serveCfg.seed = deriveSeed(seed, 1);
        scenario.tenants.push_back(
            {"serve", workload::generateServingTrace(serveCfg).trace,
             Tick{20'000'000}});
    } else {
        GMLAKE_FATAL("unknown sweep scenario: ", name,
                     " (available: smoke, train, colocate)");
    }

    // Default split: 75% into the longest session's timeline. The
    // shared warmup prefix is the expensive part a warm start
    // amortizes; the swept tail is the divergent endgame.
    scenario.splitTime = tenantsSpan(scenario.tenants) * 3 / 4;
    return scenario;
}

std::vector<std::size_t>
SweepReport::frontier() const
{
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].onFrontier)
            indices.push_back(i);
    }
    return indices;
}

SweepReport
runSweep(const SweepScenario &scenario,
         const std::vector<SweepPoint> &points,
         const SweepRunOptions &options)
{
    GMLAKE_ASSERT(!points.empty(), "sweep has no points");
    GMLAKE_ASSERT(!scenario.tenants.empty(),
                  "sweep scenario has no sessions");

    const Stopwatch totalWall;
    SweepReport report;
    report.scenario = scenario.name;
    report.allocator = allocatorKindName(options.kind);

    const auto [warmupTenants, tailTenants] =
        splitTenantsAt(scenario.tenants, scenario.splitTime);

    // Warm start: one shared warmup replay, checkpointed; every
    // point restores from the same immutable Checkpoint value
    // concurrently. Cold mode re-replays the warmup inside each
    // point's job instead — same results, N-1 extra warmup replays.
    std::unique_ptr<WarmupArtifacts> shared;
    if (options.warmStart) {
        const Stopwatch warmupWall;
        shared = std::make_unique<WarmupArtifacts>(
            replayWarmup(scenario, warmupTenants, options));
        report.warmupWallNs = warmupWall.elapsedNs();
        report.warmup = shared->result;
        report.warmupOom = shared->oom;
    }

    report.points.resize(points.size());
    parallelFor(
        points.size(), options.threads, [&](std::size_t i) {
            const Stopwatch pointWall;
            SweepPointRecord &record = report.points[i];
            record.point = points[i];
            if (shared != nullptr) {
                record.tail =
                    replayTail(scenario, tailTenants,
                               points[i].config, *shared, options);
            } else {
                const WarmupArtifacts warmup =
                    replayWarmup(scenario, warmupTenants, options);
                record.tail =
                    replayTail(scenario, tailTenants,
                               points[i].config, warmup, options);
                if (i == 0) {
                    // Every cold point replays the identical,
                    // deterministic prefix; report point 0's copy.
                    report.warmup = warmup.result;
                    report.warmupOom = warmup.oom;
                }
            }
            record.pointWallNs = pointWall.elapsedNs();
        });

    for (std::size_t i = 0; i < report.points.size(); ++i) {
        if (report.points[i].tail.oom)
            continue;
        bool dominated = false;
        for (std::size_t j = 0;
             j < report.points.size() && !dominated; ++j) {
            dominated = j != i && !report.points[j].tail.oom &&
                        dominates(report.points[j].tail,
                                  report.points[i].tail);
        }
        report.points[i].onFrontier = !dominated;
    }

    report.totalWallNs = totalWall.elapsedNs();
    return report;
}

void
writeSweepJson(const SweepReport &report, const SweepJsonMeta &meta,
               const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        GMLAKE_FATAL("cannot open JSON for writing: ", path);
    out << "{\n"
        << "  \"scenario\": \"" << report.scenario << "\",\n"
        << "  \"mode\": \"sweep\",\n"
        << "  \"allocator\": \"" << report.allocator << "\",\n"
        << "  \"config\": {"
        << "\"seed\": " << meta.seed << ", "
        << "\"iterations\": " << meta.iterations << ", "
        << "\"device_capacity_bytes\": " << meta.deviceCapacityBytes
        << ", "
        << "\"threads\": " << meta.threads << ", "
        << "\"warm_start\": " << (meta.warmStart ? "true" : "false")
        << ", "
        << "\"split_time_ns\": " << meta.splitTimeNs << "},\n"
        << "  \"warmup\": {";
    writeJsonFields(out, runResultFields(report.warmup));
    out << ", \"wall_ns\": " << report.warmupWallNs << "},\n"
        << "  \"total_wall_ns\": " << report.totalWallNs << ",\n"
        << "  \"points\": [";
    bool first = true;
    for (const SweepPointRecord &rec : report.points) {
        const core::GMLakeConfig &c = rec.point.config;
        out << (first ? "" : ",") << "\n    {"
            << "\"label\": \"" << rec.point.label << "\", "
            << "\"frag_limit_bytes\": " << c.fragLimit << ", "
            << "\"near_match_tolerance\": " << c.nearMatchTolerance
            << ", "
            << "\"max_cached_sblocks\": " << c.maxCachedSBlocks
            << ", "
            << "\"max_va_overscribe\": " << c.maxVaOverscribe << ", "
            << "\"enable_stitching\": "
            << (c.enableStitching ? "true" : "false") << ", ";
        writeJsonFields(out, runResultFields(rec.tail));
        out << ", \"point_wall_ns\": " << rec.pointWallNs
            << ", \"pareto\": " << (rec.onFrontier ? "true" : "false")
            << "}";
        first = false;
    }
    out << "\n  ],\n  \"pareto_frontier\": [";
    first = true;
    for (const std::size_t index : report.frontier()) {
        out << (first ? "" : ", ") << index;
        first = false;
    }
    out << "]\n}\n";
}

} // namespace gmlake::sim
