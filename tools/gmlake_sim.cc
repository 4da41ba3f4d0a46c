/**
 * @file
 * gmlake_sim — command-line experiment runner.
 *
 * Registry mode drives the shared experiment registry — the same
 * scenarios CI runs:
 *   gmlake_sim list
 *   gmlake_sim run headline --csv
 *   gmlake_sim run fig10 --json --iterations 4
 *   gmlake_sim run all --iterations 1
 *
 * Trace mode generates, converts, inspects, and replays single
 * workloads under any of the allocators on a simulated GPU; the five
 * verbs draw their flags from the same workload and device rows:
 *   gmlake_sim trace run --model OPT-13B --strategies LR --gpus 4
 *   gmlake_sim trace record trace.txt --model GPT-2
 *   gmlake_sim trace record trace.gmt --model GPT-2
 *   gmlake_sim trace pack trace.txt trace.gmt
 *   gmlake_sim trace info trace.gmt
 *   gmlake_sim trace replay trace.gmt --allocator gmlake --snapshot
 *
 * Replay sniffs the file format: `.gmt` binary traces stream through
 * BinaryTraceSource (multi-section files replay as co-located
 * sessions); anything else is parsed as a text trace.
 *
 * Every verb declares its flags as one table (support/flags.hh) and
 * prints it with --help.
 */

#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "alloc/snapshot.hh"
#include "sim/chaos.hh"
#include "sim/experiment.hh"
#include "sim/probe.hh"
#include "sim/runner.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/units.hh"
#include "workload/binary_trace.hh"
#include "workload/event_source.hh"
#include "workload/servegen.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;

namespace
{

struct Options
{
    // Workload
    std::string model = "OPT-13B";
    std::string strategies = "LR";
    std::string platform = "deepspeed";
    int gpus = 4;
    int batch = 16;
    int iterations = 12;
    int seqLen = 512;
    std::uint64_t seed = 42;
    bool serve = false;
    int serveRequests = 256;
    int serveMaxBatch = 32;

    // Device / allocator
    std::string allocator = "all";
    Bytes capacity = 80_GiB;
    Bytes fragLimit = 2_MiB;

    // Output
    std::string csvPath;
    bool snapshot = false;

    bool listModels = false;
};

// ------------------------------------------------ trace flag tables

/** Workload selection rows (trace run | record). */
FlagTable
workloadFlags(Options &o)
{
    return {
        {"--model", "NAME", "model from the zoo (default OPT-13B)",
         [&o](const char *v) { o.model = v; }},
        {"--list-models", nullptr, "print the model zoo and exit",
         [&o](const char *) { o.listModels = true; }},
        {"--strategies", "S", "N | R | LR | RO | LRO (default LR)",
         [&o](const char *v) { o.strategies = v; }},
        {"--platform", "P", "deepspeed | fsdp | colossalai | ddp",
         [&o](const char *v) { o.platform = v; }},
        integerFlag("--gpus", "N", "data-parallel degree (default 4)",
                    o.gpus, 1),
        integerFlag("--batch", "N", "per-GPU batch size (default 16)",
                    o.batch, 1),
        integerFlag("--iterations", "N",
                    "training iterations (default 12)", o.iterations),
        integerFlag("--seq", "N", "max sequence length (default 512)",
                    o.seqLen),
        integerFlag("--seed", "N", "workload RNG seed (default 42)",
                    o.seed),
        {"--serve", nullptr, "serving workload instead of training",
         [&o](const char *) { o.serve = true; }},
        integerFlag("--requests", "N",
                    "serving: total requests (default 256)",
                    o.serveRequests, 1),
        integerFlag("--max-batch", "N",
                    "serving: concurrent requests (default 32)",
                    o.serveMaxBatch, 1),
    };
}

/** Device, allocator and output rows (trace run | replay). */
FlagTable
deviceFlags(Options &o)
{
    return {
        {"--allocator", "A",
         "caching | gmlake | native | compacting |\n"
         "expandable | all (default all)",
         [&o](const char *v) { o.allocator = v; }},
        sizeFlag("--capacity", "GiB", "device memory (default 80)",
                 o.capacity, GiB),
        sizeFlag("--frag-limit", "MiB",
                 "GMLake fragmentation limit (default 2)", o.fragLimit,
                 MiB),
        outputFlag("--csv", "FILE", "append result rows to a CSV file",
                   o.csvPath),
        {"--snapshot", nullptr, "print the allocator memory snapshot",
         [&o](const char *) { o.snapshot = true; }},
    };
}

void
printHelp()
{
    std::cout <<
        "gmlake_sim — GMLake reproduction experiment runner\n\n"
        "  list                      print every registered scenario\n"
        "  run NAME [opts]           run one registry scenario ('all'\n"
        "                            runs every one)\n"
        "  sweep SCENARIO [opts]     replay the warmup prefix once, fork\n"
        "                            each policy point from the\n"
        "                            checkpoint\n"
        "  chaos SCENARIO [opts]     replay under a deterministic fault\n"
        "                            plan + randomized tenant kills,\n"
        "                            audit invariants after every trial\n"
        "  probe SCENARIO [opts]     replay with the recorder active and\n"
        "                            answer allocation provenance queries\n"
        "  trace run [opts]          generate a workload and replay it\n"
        "  trace record OUT [opts]   generate and save a workload\n"
        "                            (.gmt packs binary columnar,\n"
        "                            anything else writes text)\n"
        "  trace replay FILE [opts]  replay a saved trace (.gmt streams,\n"
        "                            multi-section files co-locate)\n"
        "  trace pack IN... OUT.gmt  convert text traces to one binary\n"
        "                            file, one section per input\n"
        "  trace info FILE.gmt       print sections and stats\n\n"
        "Each verb lists its flags with --help (run takes it after the\n"
        "scenario: gmlake_sim run headline --help). Every verb accepts\n"
        "--log-level error|warn|info|debug after the verb.\n";
}

// ----------------------------------------------------------- helpers

workload::Platform
parsePlatform(const std::string &name)
{
    if (name == "deepspeed")
        return workload::Platform::deepspeedZero3;
    if (name == "fsdp")
        return workload::Platform::fsdp;
    if (name == "colossalai")
        return workload::Platform::colossalAi;
    if (name == "ddp")
        return workload::Platform::ddp;
    GMLAKE_FATAL("unknown platform: ", name);
}

std::vector<sim::AllocatorKind>
parseAllocators(const std::string &name)
{
    if (name == "all") {
        // Every kind except native, which is ~10x slower end to end
        // and would dominate the run for no comparative value (ask
        // for it by name).
        std::vector<sim::AllocatorKind> kinds;
        for (const auto kind : sim::allAllocatorKinds()) {
            if (kind != sim::AllocatorKind::native)
                kinds.push_back(kind);
        }
        return kinds;
    }
    // Single allocator names share the registry/test mapping.
    if (const auto kind = sim::parseAllocatorKind(name))
        return {*kind};
    GMLAKE_FATAL("unknown allocator: ", name);
}

int
doListModels()
{
    for (const auto &m : workload::allModels())
        std::cout << m.name << "\n";
    return 0;
}

bool
endsWithGmt(const std::string &path)
{
    return path.size() >= 4 &&
           path.compare(path.size() - 4, 4, ".gmt") == 0;
}

/** "dir/opt-13b.trace" -> "opt-13b" (section naming for pack). */
std::string
sectionNameFor(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string base = slash == std::string::npos
                           ? path
                           : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        base.resize(dot);
    return base.empty() ? "trace" : base;
}

workload::TrainConfig
makeTrainConfig(const Options &opt)
{
    workload::TrainConfig cfg;
    cfg.model = workload::findModel(opt.model);
    cfg.strategies = workload::Strategies::parse(opt.strategies);
    cfg.platform = parsePlatform(opt.platform);
    cfg.gpus = opt.gpus;
    cfg.batchSize = opt.batch;
    cfg.iterations = opt.iterations;
    cfg.seqLen = opt.seqLen;
    cfg.seed = opt.seed;
    return cfg;
}

struct BuiltWorkload
{
    workload::Trace trace;
    std::uint64_t servedTokens = 0;
    bool training = false;
};

BuiltWorkload
buildWorkload(const Options &opt, const workload::TrainConfig &cfg)
{
    BuiltWorkload built;
    if (opt.serve) {
        workload::ServeConfig serveCfg;
        serveCfg.model = cfg.model;
        serveCfg.requests = opt.serveRequests;
        serveCfg.maxBatch = opt.serveMaxBatch;
        serveCfg.seed = opt.seed;
        auto gen = workload::generateServingTrace(serveCfg);
        built.trace = std::move(gen.trace);
        built.servedTokens = gen.generatedTokens;
        std::cout << "serving workload: " << gen.servedRequests
                  << " requests, " << gen.generatedTokens
                  << " tokens\n";
    } else {
        built.trace = workload::generateTrainingTrace(cfg);
        built.training = true;
        std::cout << "workload: " << cfg.describe() << " ("
                  << built.trace.size() << " events)\n";
    }
    return built;
}

void
saveTraceTo(const workload::Trace &trace, const std::string &path,
            const std::string &section)
{
    if (endsWithGmt(path)) {
        workload::packTrace(trace, path, section);
    } else {
        std::ofstream out(path);
        if (!out)
            GMLAKE_FATAL("cannot write trace: ", path);
        trace.save(out);
    }
    std::cout << "trace recorded to " << path << " (" << trace.size()
              << " events" << (endsWithGmt(path) ? ", binary" : "")
              << ")\n";
}

/**
 * The comparison loop every replaying verb shares: a fresh rig per
 * kind replays the sessions @p sessions builds, and the results are
 * tabulated (and appended to the CSV as run records labelled
 * @p label, snapshotted on request).
 */
int
runAcrossAllocators(
    const Options &opt, const std::string &label,
    std::uint64_t servedTokens,
    const std::function<std::vector<sim::Session>()> &sessions,
    const workload::TrainConfig *config = nullptr)
{
    sim::ScenarioOptions options;
    options.device.capacity = opt.capacity;
    options.gmlake.fragLimit = opt.fragLimit;

    Table table({"Allocator", "Utilization", "Peak active",
                 "Peak reserved", "Sim time", "Throughput"});
    std::vector<sim::RunRecord> records;
    for (const auto kind : parseAllocators(opt.allocator)) {
        sim::Rig rig(kind, options);
        const auto r = rig.run(sessions(), config).combined;

        std::string throughput = "-";
        if (servedTokens > 0 && r.simTime > 0) {
            throughput = formatDouble(
                static_cast<double>(servedTokens) /
                    (static_cast<double>(r.simTime) * 1e-9),
                0) + " tok/s";
        } else if (r.samplesPerSec > 0.0) {
            throughput =
                formatDouble(r.samplesPerSec, 1) + " samples/s";
        }
        table.addRow(
            {r.allocator,
             r.oom ? "OOM" : formatPercent(r.utilization),
             formatBytes(r.peakActive), formatBytes(r.peakReserved),
             formatTime(r.simTime), throughput});
        records.push_back({label, r.allocator, r});
        if (opt.snapshot)
            std::cout << rig.allocator().snapshot().summary();
    }
    table.print(std::cout);
    if (!opt.csvPath.empty())
        sim::appendRunCsv(opt.csvPath, "trace", records);
    return 0;
}

// -------------------------------------------------------- trace verbs

int
doTraceRun(const Options &opt)
{
    const auto cfg = makeTrainConfig(opt);
    const auto built = buildWorkload(opt, cfg);
    const std::string label =
        built.training ? cfg.describe()
                       : detail::concat(cfg.model.name, " serve requests=",
                                        opt.serveRequests);
    return runAcrossAllocators(
        opt, label, built.servedTokens,
        [&] {
            return std::vector<sim::Session>{
                sim::Session("main", &built.trace)};
        },
        built.training ? &cfg : nullptr);
}

int
doTraceRecord(const Options &opt, const std::string &outPath)
{
    const auto cfg = makeTrainConfig(opt);
    const auto built = buildWorkload(opt, cfg);
    saveTraceTo(built.trace, outPath, opt.model);
    return 0;
}

int
doTraceReplay(const Options &opt, const std::string &path)
{
    if (workload::looksLikeGmtFile(path)) {
        const auto file = workload::GmtFile::open(path);
        std::uint64_t events = 0;
        for (const auto &section : file->sections())
            events += section.events;
        std::cout << "replaying " << events << " events ("
                  << file->sections().size() << " section"
                  << (file->sections().size() == 1 ? "" : "s")
                  << ", streamed) from " << path << "\n";
        // Multi-section files replay as co-located tenants; a lone
        // section keeps the single-trace session name.
        return runAcrossAllocators(opt, path, 0, [&] {
            std::vector<sim::Session> sessions;
            for (std::size_t i = 0; i < file->sections().size(); ++i) {
                sessions.emplace_back(
                    file->sections().size() == 1
                        ? "main"
                        : file->sections()[i].name,
                    std::make_unique<workload::BinaryTraceSource>(
                        file, i));
            }
            return sessions;
        });
    }

    std::ifstream in(path);
    if (!in)
        GMLAKE_FATAL("cannot open trace: ", path);
    const workload::Trace trace = workload::Trace::load(in);
    std::cout << "replaying " << trace.size() << " events from "
              << path << "\n";
    return runAcrossAllocators(opt, path, 0, [&] {
        return std::vector<sim::Session>{sim::Session("main", &trace)};
    });
}

int
doTracePack(const std::vector<std::string> &paths)
{
    const std::string &outPath = paths.back();
    if (!endsWithGmt(outPath))
        GMLAKE_FATAL("pack output must end in .gmt, got: ", outPath);

    workload::GmtWriter writer(outPath);
    std::uint64_t events = 0;
    for (std::size_t i = 0; i + 1 < paths.size(); ++i) {
        std::ifstream in(paths[i]);
        if (!in)
            GMLAKE_FATAL("cannot open trace: ", paths[i]);
        const workload::Trace trace = workload::Trace::load(in);
        writer.beginSection(sectionNameFor(paths[i]));
        workload::VectorSource source(&trace);
        writer.append(source);
        events += trace.size();
    }
    writer.finish();

    std::ifstream sized(outPath, std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<std::uint64_t>(sized.tellg());
    std::cout << "packed " << (paths.size() - 1) << " trace"
              << (paths.size() == 2 ? "" : "s") << ", " << events
              << " events into " << outPath << " ("
              << formatBytes(bytes) << ")\n";
    return 0;
}

int
doTraceInfo(const std::string &path)
{
    const auto file = workload::GmtFile::open(path);
    std::cout << path << ": gmt v" << file->version() << ", "
              << formatBytes(file->fileBytes()) << ", "
              << file->sections().size() << " section"
              << (file->sections().size() == 1 ? "" : "s") << "\n";
    Table table({"Section", "Events", "Chunks", "Bytes", "Allocs",
                 "Alloc bytes", "Max alloc", "Iters"});
    for (const auto &s : file->sections()) {
        table.addRow({s.name, std::to_string(s.events),
                      std::to_string(s.chunks),
                      formatBytes(s.byteLength),
                      std::to_string(s.stats.allocCount),
                      formatBytes(s.stats.totalAllocBytes),
                      formatBytes(s.stats.maxAllocBytes),
                      std::to_string(s.stats.iterations)});
    }
    table.print(std::cout);
    return 0;
}

// ----------------------------------------------------------- dispatch

int
cmdList()
{
    Table table({"Name", "Kind", "Title"});
    for (const auto &e : sim::allExperiments())
        table.addRow({e.name, e.kind, e.title});
    table.print(std::cout);
    std::cout << "\nrun one with: gmlake_sim run <name> "
                 "[--iterations N] [--threads N] [--csv] "
                 "[--json] [--out FILE]\n";
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: gmlake_sim run <scenario> [options]\n"
                     "       (gmlake_sim list shows the scenarios)\n";
        return 1;
    }
    const std::string name = argv[2];
    // The scenario argument doubles as argv[0] of the experiment
    // CLI, so flags start right after it.
    if (name == "all") {
        int rc = 0;
        for (const auto &e : sim::allExperiments())
            rc |= sim::experimentMain(e.name, argc - 2, argv + 2);
        return rc;
    }
    if (sim::findExperiment(name) == nullptr) {
        std::cerr << "unknown scenario: " << name
                  << " (gmlake_sim list shows the scenarios)\n";
        return 1;
    }
    return sim::experimentMain(name, argc - 2, argv + 2);
}

int
cmdTrace(int argc, char **argv)
{
    const char *verbs =
        "gmlake_sim trace run    [options]\n"
        "       gmlake_sim trace record OUT [options]\n"
        "       gmlake_sim trace replay FILE [options]\n"
        "       gmlake_sim trace pack   IN... OUT.gmt\n"
        "       gmlake_sim trace info   FILE.gmt\n"
        "       (gmlake_sim trace VERB --help lists its options)\n";
    const std::string verb = argc < 3 ? "" : argv[2];
    Options opt;
    FlagTable flags;
    const auto add = [&](FlagTable rows) {
        flags.insert(flags.end(), rows.begin(), rows.end());
    };
    std::string usage = "gmlake_sim trace " + verb;
    std::size_t minArgs = 1;
    std::size_t maxArgs = 1;
    if (verb == "run") {
        add(workloadFlags(opt));
        add(deviceFlags(opt));
        usage += " [options]";
        minArgs = maxArgs = 0;
    } else if (verb == "record") {
        add(workloadFlags(opt));
        usage += " OUT [options]";
    } else if (verb == "replay") {
        add(deviceFlags(opt));
        usage += " FILE [options]";
    } else if (verb == "pack") {
        usage += " IN... OUT.gmt";
        minArgs = 2;
        maxArgs = std::numeric_limits<std::size_t>::max();
    } else if (verb == "info") {
        usage += " FILE.gmt";
    } else {
        const bool help = verb == "--help" || verb == "-h";
        (help ? std::cout : std::cerr) << "usage: " << verbs;
        return help ? 0 : 1;
    }
    flags.push_back(logLevelFlag());
    // --list-models runs without the verb's positionals, so their
    // lower bound is checked after it.
    const ParsedArgs args =
        parseFlags(flags, argc - 2, argv + 2, 0, maxArgs);
    if (args.help) {
        printUsage(std::cout, usage, flags);
        return 0;
    }
    if (opt.listModels)
        return doListModels();
    if (args.positionals.size() < minArgs)
        GMLAKE_FATAL("trace ", verb, " is missing an argument (try "
                     "--help)");
    if (!opt.csvPath.empty())
        sim::checkRunCsv(opt.csvPath);
    const std::vector<std::string> &paths = args.positionals;
    if (verb == "run")
        return doTraceRun(opt);
    if (verb == "record")
        return doTraceRecord(opt, paths[0]);
    if (verb == "replay")
        return doTraceReplay(opt, paths[0]);
    if (verb == "pack")
        return doTracePack(paths);
    return doTraceInfo(paths[0]);
}

// -------------------------------------------------------- sweep verb

int
cmdSweep(int argc, char **argv)
{
    std::string allocator = "gmlake";
    std::string gridSpec;
    std::string outPath;
    std::size_t randomPoints = 0;
    sim::SweepJsonMeta meta;
    const FlagTable flags = {
        {"--allocator", "A", "allocator kind (default gmlake)",
         [&](const char *v) { allocator = v; }},
        {"--grid", "SPEC",
         "frag=2,16;tol=0,0.125;sblocks=4096;\n"
         "overscribe=4,8;stitch=on,off (frag in MiB;\n"
         "omitted axes keep the base value)",
         [&](const char *v) { gridSpec = v; }},
        integerFlag("--points", "N",
                    "random search with N points instead of a grid",
                    randomPoints),
        integerFlag("--threads", "N",
                    "per-point fork threads (0 = all cores;\n"
                    "results identical)",
                    meta.threads, 0, 4096),
        integerFlag("--seed", "N", "workload seed (default 42)",
                    meta.seed),
        integerFlag("--iterations", "N", "scenario scale override",
                    meta.iterations),
        sizeFlag("--capacity", "GiB", "device capacity override",
                 meta.deviceCapacityBytes, GiB),
        {"--cold", nullptr,
         "re-replay the warmup per point (baseline;\nsame results)",
         [&](const char *) { meta.warmStart = false; }},
        outputFlag("--out", "FILE",
                   "report path (default\n"
                   "BENCH_sweep_<scenario>.json)",
                   outPath),
        logLevelFlag(),
    };
    const ParsedArgs args = parseFlags(flags, argc - 1, argv + 1, 1, 1);
    if (args.help) {
        printUsage(std::cout,
                   "gmlake_sim sweep <scenario> [options]\n"
                   "  scenarios: smoke | train | colocate",
                   flags);
        return 0;
    }
    const std::string &name = args.positionals[0];
    if (!gridSpec.empty() && randomPoints > 0)
        GMLAKE_FATAL("--grid and --points are mutually exclusive");
    const auto kind = sim::parseAllocatorKind(allocator);
    if (!kind)
        GMLAKE_FATAL("unknown allocator: ", allocator);
    const sim::SweepGrid grid = sim::parseGridSpec(gridSpec);

    sim::SweepScenario scenario =
        sim::buildSweepScenario(name, meta.seed, meta.iterations);
    if (meta.deviceCapacityBytes != 0)
        scenario.device.capacity = meta.deviceCapacityBytes;

    std::vector<sim::SweepPoint> points;
    if (randomPoints > 0) {
        points = sim::randomSweepPoints(scenario.base, randomPoints,
                                        meta.seed);
    } else if (!gridSpec.empty()) {
        points = grid.expand(scenario.base);
    } else {
        sim::SweepGrid defaults;
        defaults.fragLimits = {2_MiB, 16_MiB};
        defaults.nearMatchTolerances = {0.0, 0.125};
        defaults.enableStitching = {true, false};
        points = defaults.expand(scenario.base);
    }

    sim::SweepRunOptions options;
    options.kind = *kind;
    options.threads = meta.threads;
    options.warmStart = meta.warmStart;

    std::cout << "sweep " << name << ": " << points.size()
              << " points, " << (meta.warmStart ? "warm-start" : "cold")
              << ", split at " << formatTime(scenario.splitTime)
              << "\n";
    const sim::SweepReport report =
        sim::runSweep(scenario, points, options);

    Table table({"Point", "Frag", "Peak reserved", "Dev API",
                 "Sim time", "Wall", "Pareto"});
    for (const sim::SweepPointRecord &rec : report.points) {
        table.addRow(
            {rec.point.label,
             rec.tail.oom ? "OOM"
                          : formatPercent(rec.tail.fragmentation),
             formatBytes(rec.tail.peakReserved),
             formatTime(rec.tail.deviceApiTime),
             formatTime(rec.tail.simTime),
             formatTime(rec.pointWallNs),
             rec.onFrontier ? "*" : ""});
    }
    table.print(std::cout);
    std::cout << "warmup " << formatTime(report.warmupWallNs)
              << ", total " << formatTime(report.totalWallNs)
              << " (" << report.frontier().size()
              << " Pareto point"
              << (report.frontier().size() == 1 ? "" : "s") << ")\n";

    if (outPath.empty())
        outPath = "BENCH_sweep_" + name + ".json";
    meta.splitTimeNs = scenario.splitTime;
    sim::writeSweepJson(report, meta, outPath);
    std::cout << "(report written to " << outPath << ")\n";
    return 0;
}

// -------------------------------------------------------- chaos verb

int
cmdChaos(int argc, char **argv)
{
    sim::ChaosOptions options;
    std::string allocator = "gmlake";
    std::string outPath;
    const FlagTable flags = {
        {"--faults", "SPEC",
         "fault plan, e.g.\n"
         "create:p=0.02;map:n=5;cap:t=1000000,b=2G\n"
         "(apis: create map mapbatch setaccess cap)",
         [&](const char *v) { options.faultSpec = v; }},
        integerFlag("--fault-seed", "N",
                    "fault/kill RNG seed (default 1)",
                    options.faultSeed),
        integerFlag("--soak", "K",
                    "randomized trials; trial k uses a seed\n"
                    "derived from --fault-seed and printed for\n"
                    "replay",
                    options.trials, 1),
        {"--kill-chance", "P",
         "per-tenant scripted-kill probability\n(default 0.25)",
         [&](const char *v) {
             options.killChance =
                 parseReal("flag --kill-chance", v, 0.0, 1.0);
         }},
        {"--allocator", "A", "allocator kind (default gmlake)",
         [&](const char *v) { allocator = v; }},
        integerFlag("--seed", "N", "workload seed (default 42)",
                    options.workloadSeed),
        integerFlag("--iterations", "N", "scenario scale override",
                    options.iterations),
        outputFlag("--out", "FILE",
                   "report path (default\n"
                   "BENCH_chaos_<scenario>.json)",
                   outPath),
        logLevelFlag(),
    };
    const ParsedArgs args = parseFlags(flags, argc - 1, argv + 1, 1, 1);
    if (args.help) {
        printUsage(std::cout,
                   "gmlake_sim chaos <scenario> [options]\n"
                   "  scenarios: smoke | train | colocate\n"
                   "  exit codes: 0 clean, 2 tenant OOM, 3 "
                   "injected-fault abort, 1 internal error",
                   flags);
        return 0;
    }
    options.scenario = args.positionals[0];
    const auto kind = sim::parseAllocatorKind(allocator);
    if (!kind)
        GMLAKE_FATAL("unknown allocator: ", allocator);
    options.kind = *kind;
    const std::string plan =
        options.faultSpec.empty()
            ? ""
            : ", plan " +
                  sim::parseChaosPlan(options.faultSpec).describe();

    std::cout << "chaos " << options.scenario << ": " << options.trials
              << " trial" << (options.trials == 1 ? "" : "s")
              << ", fault seed " << options.faultSeed << plan << "\n";

    const sim::ChaosReport report = sim::runChaos(options);

    Table table({"Trial", "Fault seed", "Injected", "Recovered",
                 "Rollbacks", "Aborted", "OOM", "Lost", "Audit"});
    for (std::size_t k = 0; k < report.trials.size(); ++k) {
        const sim::ChaosTrialRecord &t = report.trials[k];
        // The per-trial seed is the replay handle (with the run's
        // other options: sim::chaosReplayCommand).
        table.addRow({std::to_string(k), std::to_string(t.faultSeed),
                      std::to_string(t.result.injectedFaults),
                      std::to_string(t.result.recovered),
                      std::to_string(t.result.rollbacks),
                      std::to_string(t.result.abortedSessions),
                      std::to_string(t.oomSessions),
                      formatBytes(t.capacityLost),
                      t.auditPassed ? "ok" : "FAIL"});
    }
    table.print(std::cout);
    for (const sim::ChaosTrialRecord &t : report.trials) {
        if (!t.auditPassed)
            std::cout << "trial with fault seed " << t.faultSeed
                      << " FAILED: " << t.error << "\n"
                      << "  replay: "
                      << sim::chaosReplayCommand(options, t.faultSeed)
                      << "\n";
    }
    std::cout << report.trials.size() << " trial"
              << (report.trials.size() == 1 ? "" : "s") << ", "
              << report.failures() << " failure"
              << (report.failures() == 1 ? "" : "s") << ", total "
              << formatTime(report.totalWallNs) << "\n";

    if (outPath.empty())
        outPath = "BENCH_chaos_" + options.scenario + ".json";
    sim::writeChaosJson(report, options, outPath);
    std::cout << "(report written to " << outPath << ", exit code "
              << report.exitCode() << ")\n";
    return report.exitCode();
}

// -------------------------------------------------------- probe verb

/**
 * `gmlake_sim probe` — allocation provenance queries over a replay
 * recorded with the observability layer (sim/probe.hh).
 */
int
cmdProbe(int argc, char **argv)
{
    sim::ProbeOptions opt;
    std::string allocator = "gmlake";
    constexpr auto kAnyId = std::numeric_limits<std::uint64_t>::max();
    const FlagTable flags = {
        {"--tensor", "T",
         "which allocations backed tensor T, which\n"
         "pBlocks back each, how they were obtained\n"
         "(fresh / reuse / stitch / post-spill), and\n"
         "the device time charged",
         [&](const char *v) {
             opt.tensor = parseInteger("flag --tensor", v, 0, kAnyId);
         }},
        {"--at", "TICK",
         "every tensor live at simulated time TICK,\n"
         "with the same provenance per binding",
         [&](const char *v) {
             opt.atTick = parseInteger("flag --at", v, 0, kAnyId);
         }},
        {"--allocator", "A", "allocator kind (default gmlake)",
         [&](const char *v) { allocator = v; }},
        integerFlag("--seed", "N", "workload seed (default 42)",
                    opt.seed),
        integerFlag("--iterations", "N", "scenario scale override",
                    opt.iterations),
        outputFlag("--timeline", "FILE",
                   "also export the recorded timeline (Chrome\n"
                   "JSON)",
                   opt.timelinePath),
        integerFlag("--top", "N",
                    "summary lists the top-N allocations\n"
                    "(default 5)",
                    opt.topAllocs),
        logLevelFlag(),
    };
    const ParsedArgs args = parseFlags(flags, argc - 1, argv + 1, 1, 1);
    if (args.help) {
        printUsage(std::cout,
                   "gmlake_sim probe <scenario> [options]\n"
                   "  scenarios: smoke | train | colocate\n"
                   "  (no selector prints the ledger summary)",
                   flags);
        return 0;
    }
    const auto kind = sim::parseAllocatorKind(allocator);
    if (!kind)
        GMLAKE_FATAL("unknown allocator: ", allocator);
    opt.kind = *kind;
    opt.scenario = args.positionals[0];
    if (opt.tensor && opt.atTick)
        GMLAKE_FATAL("--tensor and --at are mutually exclusive");
    sim::runProbe(opt, std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    if (argc < 2) {
        printHelp();
        return 0;
    }
    if (std::strcmp(argv[1], "list") == 0)
        return cmdList();
    if (std::strcmp(argv[1], "run") == 0)
        return cmdRun(argc, argv);
    if (std::strcmp(argv[1], "trace") == 0)
        return cmdTrace(argc, argv);
    if (std::strcmp(argv[1], "sweep") == 0)
        return cmdSweep(argc, argv);
    if (std::strcmp(argv[1], "chaos") == 0)
        return cmdChaos(argc, argv);
    if (std::strcmp(argv[1], "probe") == 0)
        return cmdProbe(argc, argv);
    if (std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        printHelp();
        return 0;
    }
    std::cerr << "unknown subcommand: " << argv[1]
              << " (try --help)\n";
    return 1;
} catch (const gmlake::FatalError &) {
    return 1; // diagnostic already printed by GMLAKE_FATAL
} catch (const gmlake::PanicError &) {
    return 1; // diagnostic already printed by GMLAKE_PANIC
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
}
