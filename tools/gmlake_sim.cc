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
 * workloads under any of the allocators on a simulated GPU. All five
 * verbs share one option table:
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
 * Run with --help for the full flag list.
 */

#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "alloc/snapshot.hh"
#include "sim/chaos.hh"
#include "sim/experiment.hh"
#include "sim/probe.hh"
#include "sim/runner.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"
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
    Bytes capacityGiB = 80;
    Bytes fragLimitMiB = 2;

    // Output
    std::string csvPath;
    bool snapshot = false;

    bool listModels = false;
    bool help = false;
};

// ------------------------------------------------ shared option table

/** Which trace verbs a flag applies to. */
enum FlagGroup : unsigned
{
    kWorkloadFlags = 1u << 0, //!< trace run | record
    kDeviceFlags = 1u << 1,   //!< trace run | replay
    kOutputFlags = 1u << 2,   //!< trace run | replay
};

unsigned long long
parseNumber(const char *flag, const std::string &value)
{
    unsigned long long parsed = 0;
    std::size_t consumed = 0;
    if (!value.empty() && value[0] >= '0' && value[0] <= '9') {
        try {
            parsed = std::stoull(value, &consumed);
        } catch (const std::exception &) {
            consumed = 0;
        }
    }
    if (consumed == 0 || consumed != value.size())
        GMLAKE_FATAL("flag ", flag, " needs a non-negative number, "
                     "got '", value, "'");
    return parsed;
}

struct FlagSpec
{
    const char *name;
    const char *argName; //!< nullptr for boolean toggles
    unsigned groups;
    const char *help;
    void (*apply)(Options &, const std::string &);
};

/**
 * The one option table every trace verb parses with; each verb
 * admits the groups that make sense for it and rejects the rest with
 * a pointed error.
 */
const FlagSpec kFlags[] = {
    // Workload selection
    {"--model", "NAME", kWorkloadFlags,
     "model from the zoo (default OPT-13B)",
     [](Options &o, const std::string &v) { o.model = v; }},
    {"--list-models", nullptr, kWorkloadFlags,
     "print the model zoo and exit",
     [](Options &o, const std::string &) { o.listModels = true; }},
    {"--strategies", "S", kWorkloadFlags,
     "N | R | LR | RO | LRO (default LR)",
     [](Options &o, const std::string &v) { o.strategies = v; }},
    {"--platform", "P", kWorkloadFlags,
     "deepspeed | fsdp | colossalai | ddp",
     [](Options &o, const std::string &v) { o.platform = v; }},
    {"--gpus", "N", kWorkloadFlags,
     "data-parallel degree (default 4)",
     [](Options &o, const std::string &v) {
         o.gpus = static_cast<int>(parseNumber("--gpus", v));
     }},
    {"--batch", "N", kWorkloadFlags,
     "per-GPU batch size (default 16)",
     [](Options &o, const std::string &v) {
         o.batch = static_cast<int>(parseNumber("--batch", v));
     }},
    {"--iterations", "N", kWorkloadFlags,
     "training iterations (default 12)",
     [](Options &o, const std::string &v) {
         o.iterations =
             static_cast<int>(parseNumber("--iterations", v));
     }},
    {"--seq", "N", kWorkloadFlags,
     "max sequence length (default 512)",
     [](Options &o, const std::string &v) {
         o.seqLen = static_cast<int>(parseNumber("--seq", v));
     }},
    {"--seed", "N", kWorkloadFlags, "workload RNG seed (default 42)",
     [](Options &o, const std::string &v) {
         o.seed = parseNumber("--seed", v);
     }},
    {"--serve", nullptr, kWorkloadFlags,
     "serving workload instead of training",
     [](Options &o, const std::string &) { o.serve = true; }},
    {"--requests", "N", kWorkloadFlags,
     "serving: total requests (default 256)",
     [](Options &o, const std::string &v) {
         o.serveRequests =
             static_cast<int>(parseNumber("--requests", v));
     }},
    {"--max-batch", "N", kWorkloadFlags,
     "serving: concurrent requests (32)",
     [](Options &o, const std::string &v) {
         o.serveMaxBatch =
             static_cast<int>(parseNumber("--max-batch", v));
     }},

    // Device and allocator
    {"--allocator", "A", kDeviceFlags,
     "caching | gmlake | native | compacting | expandable | all",
     [](Options &o, const std::string &v) { o.allocator = v; }},
    {"--capacity", "GiB", kDeviceFlags, "device memory (default 80)",
     [](Options &o, const std::string &v) {
         o.capacityGiB = parseNumber("--capacity", v);
     }},
    {"--frag-limit", "MiB", kDeviceFlags,
     "GMLake fragmentation limit (default 2)",
     [](Options &o, const std::string &v) {
         o.fragLimitMiB = parseNumber("--frag-limit", v);
     }},

    // Output
    {"--csv", "FILE", kOutputFlags,
     "append result rows to a CSV file",
     [](Options &o, const std::string &v) { o.csvPath = v; }},
    {"--snapshot", nullptr, kOutputFlags,
     "print the allocator memory snapshot",
     [](Options &o, const std::string &) { o.snapshot = true; }},
};

const FlagSpec *
findFlag(const std::string &name)
{
    for (const FlagSpec &spec : kFlags) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

/**
 * Parse argv[begin..] against the shared table, admitting only flags
 * in @p groups. Non-flag arguments land in @p positionals (rejected
 * when nullptr).
 */
Options
parseFlags(int argc, char **argv, int begin, unsigned groups,
           std::vector<std::string> *positionals)
{
    Options opt;
    for (int i = begin; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            opt.help = true;
            continue;
        }
        if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            const FlagSpec *spec = findFlag(arg);
            if (spec == nullptr)
            GMLAKE_FATAL("unknown flag: ", arg, " (try --help)");
            if ((spec->groups & groups) == 0)
                GMLAKE_FATAL("flag ", arg, " does not apply to this "
                             "subcommand (try --help)");
            std::string value;
            if (spec->argName != nullptr) {
                if (i + 1 >= argc)
                    GMLAKE_FATAL("flag ", arg, " needs a value");
                value = argv[++i];
            }
            spec->apply(opt, value);
        } else if (positionals != nullptr) {
            positionals->push_back(arg);
        } else {
            GMLAKE_FATAL("unexpected argument: ", arg,
                         " (try --help)");
        }
    }
    return opt;
}

void
printFlagGroup(unsigned group)
{
    for (const FlagSpec &spec : kFlags) {
        if ((spec.groups & group) == 0)
            continue;
        std::string head = spec.name;
        if (spec.argName != nullptr)
            head += std::string(" ") + spec.argName;
        std::cout << "  " << head
                  << std::string(
                         head.size() < 19 ? 19 - head.size() : 1, ' ')
                  << spec.help << "\n";
    }
}

void
printHelp()
{
    std::cout <<
        "gmlake_sim — GMLake reproduction experiment runner\n\n"
        "Registered experiments (figures/tables via the shared "
        "registry):\n"
        "  list                print every registered scenario\n"
        "  run NAME [opts]     run one scenario ('all' runs every "
        "one)\n"
        "      --iterations N  override training iterations\n"
        "      --capacity GiB  override device capacity\n"
        "      --seed N        override the workload seed\n"
        "      --threads N     worker threads for cluster scenarios\n"
        "                      (0 = all cores; results identical)\n"
        "      --csv [FILE]    append run records as CSV\n"
        "      --json [FILE]   write report (BENCH_<name>.json)\n"
        "      --out FILE      write the JSON report to FILE instead\n"
        "                      of the fixed BENCH_<name>.json\n"
        "      --timeline FILE record the run and write a\n"
        "                      Chrome-trace/Perfetto timeline (open\n"
        "                      in ui.perfetto.dev); results are\n"
        "                      bit-identical with or without it\n"
        "      --timeline-bin FILE\n"
        "                      also write the columnar binary event\n"
        "                      dump (.gmo)\n\n"
        "Policy sweeps (checkpoint/restore warm-starts):\n"
        "  sweep SCENARIO [opts]\n"
        "                      replay the warmup prefix once, fork\n"
        "                      each policy point from the checkpoint\n"
        "                      (smoke | train | colocate; see\n"
        "                      gmlake_sim sweep --help)\n\n"
        "Chaos / fault-injection soaks:\n"
        "  chaos SCENARIO [opts]\n"
        "                      replay under a deterministic fault\n"
        "                      plan + randomized tenant kills, audit\n"
        "                      invariants after every trial (see\n"
        "                      gmlake_sim chaos --help; distinct\n"
        "                      exit codes, see docs/BUILDING.md)\n\n"
        "Allocation provenance (observability ledger):\n"
        "  probe SCENARIO [opts]\n"
        "                      replay with the recorder active and\n"
        "                      answer provenance queries: --tensor T\n"
        "                      (who backed tensor T and at what\n"
        "                      device cost) or --at TICK (what was\n"
        "                      live and why); see gmlake_sim probe\n"
        "                      --help\n\n"
        "Global flags (every verb):\n"
        "  --log-level L       error | warn | info | debug (default\n"
        "                      warn); unknown levels are fatal\n\n"
        "Single workloads (trace subcommands):\n"
        "  trace run [opts]          generate a workload and replay "
        "it\n"
        "  trace record OUT [opts]   generate and save a workload\n"
        "                            (.gmt packs binary columnar,\n"
        "                            anything else writes text)\n"
        "  trace replay FILE [opts]  replay a saved trace (.gmt "
        "streams,\n"
        "                            multi-section files co-locate)\n"
        "  trace pack IN... OUT.gmt  convert text traces to one "
        "binary\n"
        "                            file, one section per input\n"
        "  trace info FILE.gmt       print sections and stats\n\n"
        "Workload selection (trace run | record):\n";
    printFlagGroup(kWorkloadFlags);
    std::cout << "\nDevice and allocator (trace run | replay):\n";
    printFlagGroup(kDeviceFlags);
    std::cout << "\nOutput (trace run | replay):\n";
    printFlagGroup(kOutputFlags);
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
 * The comparison loop every replaying verb shares: fresh device +
 * allocator per kind, one run via @p runOne, results tabulated (and
 * CSV-appended / snapshotted on request).
 */
int
runAcrossAllocators(
    const Options &opt, std::uint64_t servedTokens,
    const std::function<sim::RunResult(alloc::Allocator &,
                                       vmm::Device &)> &runOne)
{
    vmm::DeviceConfig deviceCfg;
    deviceCfg.capacity = opt.capacityGiB * GiB;
    core::GMLakeConfig gmlakeCfg;
    gmlakeCfg.fragLimit = opt.fragLimitMiB * MiB;

    Table table({"Allocator", "Utilization", "Peak active",
                 "Peak reserved", "Sim time", "Throughput"});
    std::ofstream csv;
    if (!opt.csvPath.empty()) {
        csv.open(opt.csvPath, std::ios::app);
        if (!csv)
            GMLAKE_FATAL("cannot open CSV: ", opt.csvPath);
    }

    for (const auto kind : parseAllocators(opt.allocator)) {
        vmm::Device device(deviceCfg);
        const auto allocator =
            sim::makeAllocator(kind, device, gmlakeCfg);
        const auto r = runOne(*allocator, device);

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
        if (csv.is_open()) {
            csv << r.allocator << "," << opt.model << ","
                << opt.strategies << "," << opt.gpus << ","
                << opt.batch << "," << r.utilization << ","
                << r.peakActive << "," << r.peakReserved << ","
                << r.simTime << "," << (r.oom ? 1 : 0) << "\n";
        }
        if (opt.snapshot)
            std::cout << allocator->snapshot().summary();
    }
    table.print(std::cout);
    return 0;
}

// -------------------------------------------------------- trace verbs

int
doTraceRun(const Options &opt)
{
    const auto cfg = makeTrainConfig(opt);
    const auto built = buildWorkload(opt, cfg);
    return runAcrossAllocators(
        opt, built.servedTokens,
        [&](alloc::Allocator &allocator, vmm::Device &device) {
            return sim::runTrace(allocator, device, built.trace,
                                 built.training ? &cfg : nullptr);
        });
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
        return runAcrossAllocators(
            opt, 0,
            [&](alloc::Allocator &allocator, vmm::Device &device) {
                if (file->sections().size() == 1) {
                    return sim::runSource(
                        allocator, device,
                        std::make_unique<
                            workload::BinaryTraceSource>(file, 0));
                }
                // Multi-section files replay as co-located tenants.
                sim::SimEngine engine(allocator, device);
                for (std::size_t i = 0; i < file->sections().size();
                     ++i) {
                    engine.addSession(sim::Session(
                        file->sections()[i].name,
                        std::make_unique<
                            workload::BinaryTraceSource>(file, i)));
                }
                return engine.run().combined;
            });
    }

    std::ifstream in(path);
    if (!in)
        GMLAKE_FATAL("cannot open trace: ", path);
    const workload::Trace trace = workload::Trace::load(in);
    std::cout << "replaying " << trace.size() << " events from "
              << path << "\n";
    return runAcrossAllocators(
        opt, 0,
        [&](alloc::Allocator &allocator, vmm::Device &device) {
            return sim::runTrace(allocator, device, trace);
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
    const auto usage = [] {
        std::cerr <<
            "usage: gmlake_sim trace run    [options]\n"
            "       gmlake_sim trace record OUT [options]\n"
            "       gmlake_sim trace replay FILE [options]\n"
            "       gmlake_sim trace pack   IN... OUT.gmt\n"
            "       gmlake_sim trace info   FILE.gmt\n"
            "       (gmlake_sim --help shows the options)\n";
        return 1;
    };
    if (argc < 3)
        return usage();
    const std::string verb = argv[2];

    if (verb == "run") {
        const Options opt = parseFlags(
            argc, argv, 3,
            kWorkloadFlags | kDeviceFlags | kOutputFlags, nullptr);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (opt.listModels)
            return doListModels();
        return doTraceRun(opt);
    }
    if (verb == "record") {
        std::vector<std::string> paths;
        const Options opt =
            parseFlags(argc, argv, 3, kWorkloadFlags, &paths);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (opt.listModels)
            return doListModels();
        if (paths.size() != 1)
            return usage();
        return doTraceRecord(opt, paths[0]);
    }
    if (verb == "replay") {
        std::vector<std::string> paths;
        const Options opt = parseFlags(
            argc, argv, 3, kDeviceFlags | kOutputFlags, &paths);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (paths.size() != 1)
            return usage();
        return doTraceReplay(opt, paths[0]);
    }
    if (verb == "pack") {
        std::vector<std::string> paths;
        const Options opt = parseFlags(argc, argv, 3, 0, &paths);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (paths.size() < 2)
            return usage();
        return doTracePack(paths);
    }
    if (verb == "info") {
        std::vector<std::string> paths;
        const Options opt = parseFlags(argc, argv, 3, 0, &paths);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (paths.size() != 1)
            return usage();
        return doTraceInfo(paths[0]);
    }
    std::cerr << "unknown trace verb: " << verb << "\n";
    return usage();
}

// -------------------------------------------------------- sweep verb

/** `gmlake_sim sweep` options (separate from the trace table). */
struct SweepCliOptions
{
    std::string scenario;
    std::string allocator = "gmlake";
    std::string gridSpec;
    std::size_t randomPoints = 0;
    std::size_t threads = 1;
    std::uint64_t seed = 42;
    int iterations = 0; //!< 0 = scenario default
    Bytes capacityGiB = 0;
    bool cold = false;
    std::string outPath;
    bool help = false;
};

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

double
parseReal(const char *what, const std::string &value)
{
    try {
        std::size_t consumed = 0;
        const double parsed = std::stod(value, &consumed);
        if (consumed == value.size())
            return parsed;
    } catch (const std::exception &) {
    }
    GMLAKE_FATAL(what, ": bad real number '", value, "'");
}

/**
 * Parse "frag=2,16;tol=0,0.125;sblocks=4096;overscribe=4,8;
 * stitch=on,off" into grid axes (frag in MiB; unknown keys are a
 * hard error so typos do not silently sweep nothing).
 */
sim::SweepGrid
parseGridSpec(const std::string &spec)
{
    sim::SweepGrid grid;
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
        for (const std::string &value : values) {
            if (key == "frag") {
                grid.fragLimits.push_back(
                    parseNumber("frag", value) * MiB);
            } else if (key == "tol") {
                grid.nearMatchTolerances.push_back(
                    parseReal("tol", value));
            } else if (key == "sblocks") {
                grid.maxCachedSBlocks.push_back(
                    static_cast<std::size_t>(
                        parseNumber("sblocks", value)));
            } else if (key == "overscribe") {
                grid.maxVaOverscribes.push_back(
                    parseReal("overscribe", value));
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

SweepCliOptions
parseSweepFlags(int argc, char **argv)
{
    SweepCliOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                GMLAKE_FATAL("flag ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            opt.help = true;
        else if (arg == "--allocator")
            opt.allocator = value();
        else if (arg == "--grid")
            opt.gridSpec = value();
        else if (arg == "--points")
            opt.randomPoints = static_cast<std::size_t>(
                parseNumber("--points", value()));
        else if (arg == "--threads")
            opt.threads = static_cast<std::size_t>(
                parseNumber("--threads", value()));
        else if (arg == "--seed")
            opt.seed = parseNumber("--seed", value());
        else if (arg == "--iterations")
            opt.iterations = static_cast<int>(
                parseNumber("--iterations", value()));
        else if (arg == "--capacity")
            opt.capacityGiB = parseNumber("--capacity", value());
        else if (arg == "--cold")
            opt.cold = true;
        else if (arg == "--out")
            opt.outPath = value();
        else if (!arg.empty() && arg[0] == '-')
            GMLAKE_FATAL("unknown sweep flag: ", arg,
                         " (try --help)");
        else if (opt.scenario.empty())
            opt.scenario = arg;
        else
            GMLAKE_FATAL("unexpected argument: ", arg);
    }
    return opt;
}

int
cmdSweep(int argc, char **argv)
{
    const SweepCliOptions opt = parseSweepFlags(argc, argv);
    if (opt.help || opt.scenario.empty()) {
        std::cerr <<
            "usage: gmlake_sim sweep <scenario> [options]\n"
            "  scenarios: smoke | train | colocate\n"
            "  --allocator A       allocator kind (default gmlake)\n"
            "  --grid SPEC         frag=2,16;tol=0,0.125;"
            "sblocks=4096;overscribe=4,8;stitch=on,off\n"
            "                      (frag in MiB; omitted axes keep "
            "the base value)\n"
            "  --points N          random search with N points "
            "instead of a grid\n"
            "  --threads N         per-point fork threads "
            "(0 = all cores; results identical)\n"
            "  --seed N            workload seed (default 42)\n"
            "  --iterations N      scenario scale override\n"
            "  --capacity GiB      device capacity override\n"
            "  --cold              re-replay the warmup per point "
            "(baseline; same results)\n"
            "  --out FILE          report path (default "
            "BENCH_sweep_<scenario>.json)\n";
        return opt.help ? 0 : 1;
    }
    if (!opt.gridSpec.empty() && opt.randomPoints > 0)
        GMLAKE_FATAL("--grid and --points are mutually exclusive");

    const auto kind = sim::parseAllocatorKind(opt.allocator);
    if (!kind)
        GMLAKE_FATAL("unknown allocator: ", opt.allocator);

    sim::SweepScenario scenario = sim::buildSweepScenario(
        opt.scenario, opt.seed, opt.iterations);
    if (opt.capacityGiB != 0)
        scenario.device.capacity = opt.capacityGiB * GiB;

    std::vector<sim::SweepPoint> points;
    if (opt.randomPoints > 0) {
        points = sim::randomSweepPoints(scenario.base,
                                        opt.randomPoints, opt.seed);
    } else if (!opt.gridSpec.empty()) {
        points = parseGridSpec(opt.gridSpec).expand(scenario.base);
    } else {
        sim::SweepGrid grid;
        grid.fragLimits = {2_MiB, 16_MiB};
        grid.nearMatchTolerances = {0.0, 0.125};
        grid.enableStitching = {true, false};
        points = grid.expand(scenario.base);
    }

    sim::SweepRunOptions options;
    options.kind = *kind;
    options.threads = opt.threads;
    options.warmStart = !opt.cold;

    std::cout << "sweep " << opt.scenario << ": " << points.size()
              << " points, " << (opt.cold ? "cold" : "warm-start")
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

    const std::string outPath =
        opt.outPath.empty() ? "BENCH_sweep_" + opt.scenario + ".json"
                            : opt.outPath;
    sim::SweepJsonMeta meta;
    meta.seed = opt.seed;
    meta.iterations = opt.iterations;
    meta.deviceCapacityBytes = opt.capacityGiB * GiB;
    meta.threads = opt.threads;
    meta.warmStart = !opt.cold;
    meta.splitTimeNs = scenario.splitTime;
    sim::writeSweepJson(report, meta, outPath);
    std::cout << "(report written to " << outPath << ")\n";
    return 0;
}

// -------------------------------------------------------- chaos verb

/** `gmlake_sim chaos` options. */
struct ChaosCliOptions
{
    std::string scenario;
    std::string allocator = "gmlake";
    std::string faultSpec;
    std::uint64_t faultSeed = 1;
    std::uint64_t seed = 42; //!< workload seed
    std::size_t soak = 1;
    int iterations = 0;
    double killChance = 0.25;
    std::string outPath;
    bool help = false;
};

ChaosCliOptions
parseChaosFlags(int argc, char **argv)
{
    ChaosCliOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                GMLAKE_FATAL("flag ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            opt.help = true;
        else if (arg == "--allocator")
            opt.allocator = value();
        else if (arg == "--faults")
            opt.faultSpec = value();
        else if (arg == "--fault-seed")
            opt.faultSeed = parseNumber("--fault-seed", value());
        else if (arg == "--seed")
            opt.seed = parseNumber("--seed", value());
        else if (arg == "--soak")
            opt.soak = static_cast<std::size_t>(
                parseNumber("--soak", value()));
        else if (arg == "--iterations")
            opt.iterations = static_cast<int>(
                parseNumber("--iterations", value()));
        else if (arg == "--kill-chance")
            opt.killChance = parseReal("--kill-chance", value());
        else if (arg == "--out")
            opt.outPath = value();
        else if (!arg.empty() && arg[0] == '-')
            GMLAKE_FATAL("unknown chaos flag: ", arg,
                         " (try --help)");
        else if (opt.scenario.empty())
            opt.scenario = arg;
        else
            GMLAKE_FATAL("unexpected argument: ", arg);
    }
    return opt;
}

int
cmdChaos(int argc, char **argv)
{
    const ChaosCliOptions opt = parseChaosFlags(argc, argv);
    if (opt.help || opt.scenario.empty()) {
        std::cerr <<
            "usage: gmlake_sim chaos <scenario> [options]\n"
            "  scenarios: smoke | train | colocate\n"
            "  --faults SPEC       fault plan, e.g. "
            "create:p=0.02;map:n=5;cap:t=1000000,b=2G\n"
            "                      (apis: create map mapbatch "
            "setaccess copyd2h copyh2d cap)\n"
            "  --fault-seed N      fault/kill RNG seed (default 1)\n"
            "  --soak K            randomized trials; trial k uses\n"
            "                      a seed derived from --fault-seed\n"
            "                      and printed for replay\n"
            "  --kill-chance P     per-tenant scripted-kill "
            "probability (default 0.25)\n"
            "  --allocator A       allocator kind (default gmlake)\n"
            "  --seed N            workload seed (default 42)\n"
            "  --iterations N      scenario scale override\n"
            "  --out FILE          report path (default "
            "BENCH_chaos_<scenario>.json)\n"
            "exit codes: 0 clean, 2 tenant OOM, 3 injected-fault "
            "abort, 1 internal error\n";
        return opt.help ? 0 : 1;
    }
    const auto kind = sim::parseAllocatorKind(opt.allocator);
    if (!kind)
        GMLAKE_FATAL("unknown allocator: ", opt.allocator);
    if (opt.soak == 0)
        GMLAKE_FATAL("--soak needs at least 1 trial");
    if (opt.killChance < 0.0 || opt.killChance > 1.0)
        GMLAKE_FATAL("--kill-chance needs a probability in [0, 1]");

    sim::ChaosOptions options;
    options.scenario = opt.scenario;
    options.kind = *kind;
    options.workloadSeed = opt.seed;
    options.faultSeed = opt.faultSeed;
    options.faultSpec = opt.faultSpec;
    options.trials = opt.soak;
    options.iterations = opt.iterations;
    options.killChance = opt.killChance;

    std::cout << "chaos " << opt.scenario << ": " << opt.soak
              << " trial" << (opt.soak == 1 ? "" : "s")
              << ", fault seed " << opt.faultSeed;
    if (!opt.faultSpec.empty()) {
        std::cout << ", plan "
                  << vmm::FaultPlan::parse(opt.faultSpec).describe();
    }
    std::cout << "\n";

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

    const std::string outPath =
        opt.outPath.empty() ? "BENCH_chaos_" + opt.scenario + ".json"
                            : opt.outPath;
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
    std::string scenario;
    bool help = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                GMLAKE_FATAL("flag ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            help = true;
        else if (arg == "--allocator")
            allocator = value();
        else if (arg == "--seed")
            opt.seed = parseNumber("--seed", value());
        else if (arg == "--iterations")
            opt.iterations = static_cast<int>(
                parseNumber("--iterations", value()));
        else if (arg == "--tensor")
            opt.tensor = parseNumber("--tensor", value());
        else if (arg == "--at")
            opt.atTick = parseNumber("--at", value());
        else if (arg == "--timeline")
            opt.timelinePath = value();
        else if (arg == "--top")
            opt.topAllocs = static_cast<std::size_t>(
                parseNumber("--top", value()));
        else if (!arg.empty() && arg[0] == '-')
            GMLAKE_FATAL("unknown probe flag: ", arg,
                         " (try --help)");
        else if (scenario.empty())
            scenario = arg;
        else
            GMLAKE_FATAL("unexpected argument: ", arg);
    }
    if (help || scenario.empty()) {
        std::cerr <<
            "usage: gmlake_sim probe <scenario> [options]\n"
            "  scenarios: smoke | train | colocate\n"
            "  --tensor T          which allocations backed tensor "
            "T, which pBlocks\n"
            "                      back each, how they were obtained "
            "(fresh / reuse /\n"
            "                      stitch / post-spill), and the "
            "device time charged\n"
            "  --at TICK           every tensor live at simulated "
            "time TICK, with\n"
            "                      the same provenance per binding\n"
            "  --allocator A       allocator kind (default gmlake)\n"
            "  --seed N            workload seed (default 42)\n"
            "  --iterations N      scenario scale override\n"
            "  --timeline FILE     also export the recorded timeline "
            "(Chrome JSON)\n"
            "  --top N             summary lists the top-N "
            "allocations (default 5)\n"
            "(no selector prints the ledger summary)\n";
        return help ? 0 : 1;
    }
    const auto kind = sim::parseAllocatorKind(allocator);
    if (!kind)
        GMLAKE_FATAL("unknown allocator: ", allocator);
    opt.kind = *kind;
    opt.scenario = scenario;
    if (opt.tensor && opt.atTick)
        GMLAKE_FATAL("--tensor and --at are mutually exclusive");
    sim::runProbe(opt, std::cout);
    return 0;
}

/**
 * Flags every verb accepts, applied and stripped before dispatch so
 * each verb's own table stays focused. One definition serves
 * run/trace/sweep/chaos/probe alike; an invalid level is fatal
 * (parseLogLevel). Returns the new argc.
 */
int
stripGlobalFlags(int argc, char **argv)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--log-level") == 0) {
            if (i + 1 >= argc)
                GMLAKE_FATAL("flag --log-level needs a value");
            setLogLevel(parseLogLevel(argv[++i]));
            continue;
        }
        argv[kept++] = argv[i];
    }
    return kept;
}

} // namespace

int
main(int argc, char **argv)
try {
    argc = stripGlobalFlags(argc, argv);
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
