/**
 * @file
 * The built-in experiment scenarios: every figure and table of the
 * paper plus the extension studies, ported out of the per-bench
 * main() functions into one registry. Each scenario describes its
 * workload sweep and prints its comparison table; run recording and
 * CSV/JSON emission are handled by the ExperimentContext driver.
 */

#include "sim/experiment.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "alloc/compacting_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "sim/cluster.hh"
#include "sim/sweep.hh"
#include "support/csv.hh"
#include "support/histogram.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/units.hh"
#include "support/rss.hh"
#include "vmm/cost_model.hh"
#include "vmm/device.hh"
#include "workload/generators.hh"
#include "workload/servegen.hh"
#include "workload/tracegen.hh"

namespace gmlake::sim
{

namespace
{

using namespace gmlake::literals;

std::string
gb(Bytes bytes)
{
    return formatDouble(static_cast<double>(bytes) /
                            (1024.0 * 1024.0 * 1024.0),
                        1);
}

std::string
oomOr(const RunResult &r, const std::string &value)
{
    return r.oom ? "OOM" : value;
}

using workload::trainConfig;

// ------------------------------------------------------ Section 5

void
runHeadline(ExperimentContext &ctx)
{
    const struct
    {
        const char *model;
        std::vector<int> batches;
    } models[] = {
        {"OPT-1.3B", {64, 128, 192}}, {"GPT-2", {64, 128}},
        {"GLM-10B", {24, 48}},        {"OPT-13B", {16, 32, 48}},
        {"Vicuna-13B", {16, 32, 48}}, {"GPT-NeoX-20B", {24, 48, 72, 84}},
    };
    const char *strategies[] = {"R", "LR", "RO", "LRO"};

    double sumSavedGb = 0.0, maxSavedGb = 0.0;
    double sumFragDrop = 0.0, maxFragDrop = 0.0;
    int workloads = 0, oomAvoided = 0;

    for (const auto &m : models) {
        for (const int batch : m.batches) {
            for (const char *strat : strategies) {
                const auto cfg =
                    trainConfig(m.model, strat, 4, batch, 8);
                const std::string label = std::string(m.model) + "/" +
                                          strat + "/b" +
                                          std::to_string(batch);
                const auto pair = ctx.runPair(cfg, {}, label);
                if (pair.gmlake.oom)
                    continue; // out of scope for both
                if (pair.caching.oom) {
                    ++oomAvoided;
                    continue;
                }
                ++workloads;
                const double saved =
                    (static_cast<double>(pair.caching.peakReserved) -
                     static_cast<double>(pair.gmlake.peakReserved)) /
                    (1024.0 * 1024.0 * 1024.0);
                const double fragDrop = pair.caching.fragmentation -
                                        pair.gmlake.fragmentation;
                sumSavedGb += saved;
                maxSavedGb = std::max(maxSavedGb, saved);
                sumFragDrop += fragDrop;
                maxFragDrop = std::max(maxFragDrop, fragDrop);
            }
        }
    }

    const int n = std::max(1, workloads);
    Table table({"Metric", "Measured", "Paper"});
    table.addRow({"Workloads evaluated", std::to_string(workloads),
                  "76"});
    table.addRow({"Avg reserved saved",
                  formatDouble(sumSavedGb / n, 1) + " GB", "9.2 GB"});
    table.addRow({"Max reserved saved",
                  formatDouble(maxSavedGb, 1) + " GB", "25 GB"});
    table.addRow({"Avg fragmentation removed",
                  formatPercent(sumFragDrop / n), "15%"});
    table.addRow({"Max fragmentation removed",
                  formatPercent(maxFragDrop), "33%"});
    table.addRow({"Baseline-OOM workloads GMLake completed",
                  std::to_string(oomAvoided), "-"});
    table.print(ctx.out());

    ctx.metric("aggregate", "workloads", workloads);
    ctx.metric("aggregate", "avg_reserved_saved_gb", sumSavedGb / n);
    ctx.metric("aggregate", "max_reserved_saved_gb", maxSavedGb);
    ctx.metric("aggregate", "avg_fragmentation_removed",
               sumFragDrop / n);
    ctx.metric("aggregate", "max_fragmentation_removed", maxFragDrop);
    ctx.metric("aggregate", "oom_avoided", oomAvoided);
}

// ------------------------------------------------------- Figure 3

void
runFig3(ExperimentContext &ctx)
{
    const struct
    {
        const char *paperLabel;
        const char *strategies;
        double paperUtil;
    } rows[] = {
        {"P", "N", 0.97},    {"PR", "R", 0.80},
        {"PLR", "LR", 0.76}, {"PRO", "RO", 0.73},
        {"PLRO", "LRO", 0.65},
    };

    Table table({"Combination", "Utilization (measured)",
                 "Utilization (paper)", "Peak reserved",
                 "Peak active"});
    for (const auto &r : rows) {
        auto cfg = ctx.adjust(
            trainConfig("OPT-1.3B", r.strategies, 4, 64, 15));
        // Average over several seeds: single-run utilization varies
        // by a few points with the random workload details.
        const std::uint64_t seedBase = cfg.seed;
        double util = 0.0;
        Bytes reserved = 0, active = 0;
        constexpr int kSeeds = 5;
        for (int s = 0; s < kSeeds; ++s) {
            cfg.seed = seedBase + static_cast<std::uint64_t>(s);
            Rig rig(AllocatorKind::caching,
                    ctx.adjust(ScenarioOptions{}));
            const auto trace = workload::generateTrainingTrace(cfg);
            const auto run =
                ctx.run(rig, {Session("main", &trace)},
                        std::string(r.paperLabel) + "/seed" +
                            std::to_string(cfg.seed),
                        &cfg)
                    .combined;
            util += run.utilization / kSeeds;
            reserved += run.peakReserved / kSeeds;
            active += run.peakActive / kSeeds;
        }
        table.addRow({r.paperLabel, formatPercent(util),
                      formatPercent(r.paperUtil),
                      gb(reserved) + " GB", gb(active) + " GB"});
        ctx.metric(r.paperLabel, "utilization", util);
        ctx.metric(r.paperLabel, "paper_utilization", r.paperUtil);
    }
    table.print(ctx.out());
}

// ------------------------------------------------------- Figure 4

void
runFig4(ExperimentContext &ctx)
{
    const int gpuCounts[] = {1, 2, 4, 8, 16};
    const double paper[] = {0.91, 0.84, 0.78, 0.80, 0.76};

    Table table({"GPUs", "Utilization (measured)",
                 "Utilization (paper)", "Peak reserved"});
    for (std::size_t i = 0; i < 5; ++i) {
        auto cfg = trainConfig("OPT-13B", "LR", gpuCounts[i], 16, 12);
        const auto run =
            ctx.run(cfg, AllocatorKind::caching, {},
                    std::to_string(cfg.gpus) + " GPUs");
        table.addRow({std::to_string(cfg.gpus),
                      formatPercent(run.utilization),
                      formatPercent(paper[i]),
                      gb(run.peakReserved) + " GB"});
    }
    table.print(ctx.out());
}

// ------------------------------------------------------- Figure 5

void
runFig5(ExperimentContext &ctx)
{
    // The paper's counts cover a full training job; the per-iteration
    // shape is what matters, so scale to a fixed iteration budget.
    const auto base = trainConfig("GPT-NeoX-20B", "N", 4, 24, 40);

    Table table({"Configuration", "Allocations", "Avg size",
                 "Max size", "Allocs/iteration"});
    SizeHistogram lrSizes;
    for (const char *strat : {"N", "LR"}) {
        auto cfg = ctx.adjust(base);
        cfg.strategies = workload::Strategies::parse(strat);
        const auto trace = workload::generateTrainingTrace(cfg);
        const auto &s = trace.stats();
        const bool lr = std::string(strat) == "LR";
        if (lr) {
            for (const workload::Event &e : trace.events()) {
                if (e.kind == workload::EventKind::alloc)
                    lrSizes.add(e.bytes);
            }
        }
        const std::string label =
            std::string("GPT-NeoX-20B ") + (lr ? "+LR" : "original");
        table.addRow(
            {label, std::to_string(s.allocCount),
             formatBytes(static_cast<Bytes>(s.avgAllocBytes())),
             formatBytes(s.maxAllocBytes),
             std::to_string(
                 s.allocCount /
                 static_cast<std::uint64_t>(s.iterations))});
        ctx.metric(label, "alloc_count",
                   static_cast<double>(s.allocCount));
        ctx.metric(label, "avg_alloc_bytes", s.avgAllocBytes());
        ctx.metric(label, "max_alloc_bytes",
                   static_cast<double>(s.maxAllocBytes));
    }
    table.print(ctx.out());

    ctx.out() << "\nSize histogram (+LR):\n" << lrSizes.render();
}

// ------------------------------------------------------- Figure 6

/** Measure one VM allocation on a fresh device via the real API. */
Tick
vmAllocLatency(ExperimentContext &ctx, Bytes block, Bytes chunk)
{
    vmm::Device dev(ctx.adjust(vmm::DeviceConfig{}));
    const Tick t0 = dev.now();
    const auto va = dev.memAddressReserve(block);
    if (!va.ok())
        GMLAKE_FATAL("reserve failed");
    std::vector<PhysHandle> chunks((block + chunk - 1) / chunk);
    if (const auto s = dev.memCreateMapRun(*va, chunk, chunks); !s.ok())
        GMLAKE_FATAL("create+map failed: ", s.error().message);
    if (const auto s = dev.memSetAccess(*va, block); !s.ok())
        GMLAKE_FATAL("setAccess failed");
    return dev.now() - t0;
}

Tick
nativeLatency(ExperimentContext &ctx, Bytes block)
{
    vmm::Device dev(ctx.adjust(vmm::DeviceConfig{}));
    const Tick t0 = dev.now();
    const auto p = dev.mallocNative(block);
    if (!p.ok())
        GMLAKE_FATAL("cudaMalloc failed");
    return dev.now() - t0;
}

void
runFig6(ExperimentContext &ctx)
{
    const std::vector<Bytes> blocks = {512_MiB, 1024_MiB, 2_GiB};
    const std::vector<Bytes> chunks = {2_MiB, 4_MiB, 8_MiB, 16_MiB,
                                       32_MiB, 64_MiB, 128_MiB,
                                       256_MiB, 512_MiB, 1024_MiB};

    Table table({"Chunk Size", "512MB block", "1GB block",
                 "2GB block", "2GB vs native"});
    const Tick native2G = nativeLatency(ctx, 2_GiB);

    {
        std::vector<std::string> row = {"Native (cudaMalloc)"};
        for (const Bytes block : blocks) {
            const Tick lat = nativeLatency(ctx, block);
            row.push_back(formatTime(lat));
            ctx.metric("native", "latency_ns_" + formatBytes(block),
                       static_cast<double>(lat));
        }
        row.push_back("1.0x");
        table.addRow(row);
    }
    for (const Bytes chunk : chunks) {
        std::vector<std::string> row = {formatBytes(chunk)};
        Tick lat2G = 0;
        for (const Bytes block : blocks) {
            if (chunk > block) {
                row.push_back("-");
                continue;
            }
            const Tick lat = vmAllocLatency(ctx, block, chunk);
            if (block == 2_GiB)
                lat2G = lat;
            row.push_back(formatTime(lat));
            ctx.metric(formatBytes(chunk),
                       "latency_ns_" + formatBytes(block),
                       static_cast<double>(lat));
        }
        const double slowdown = static_cast<double>(lat2G) /
                                static_cast<double>(native2G);
        row.push_back(formatDouble(slowdown, 1) + "x");
        ctx.metric(formatBytes(chunk), "slowdown_vs_native_2gb",
                   slowdown);
        table.addRow(row);
    }
    table.print(ctx.out());
}

// --------------------------------------------------- Figures 10-13

/** What follows the reserved/utilization columns of a pair table. */
enum class PairTail
{
    saved,           //!< reserved memory GMLake saved
    throughput,      //!< samples/s under both allocators
    throughputOrOom, //!< the same, "OOM" for a run that died
};

/**
 * The caching-vs-GMLake table of Figures 10-13: one row per
 * workload, reserved memory and utilization under both allocators,
 * then the figure's @p tail columns.
 */
class PairTable
{
  public:
    PairTable(const std::string &firstColumn, PairTail tail)
        : mTail(tail), mTable(header(firstColumn, tail))
    {
    }

    void
    add(const std::string &first, const BenchPair &pair)
    {
        const RunResult &c = pair.caching;
        const RunResult &g = pair.gmlake;
        std::vector<std::string> row = {
            first,
            oomOr(c, gb(c.peakReserved) + " GB"),
            oomOr(g, gb(g.peakReserved) + " GB"),
            oomOr(c, formatPercent(c.utilization)),
            oomOr(g, formatPercent(g.utilization))};
        if (mTail == PairTail::saved) {
            row.push_back(gb(c.peakReserved > g.peakReserved
                                 ? c.peakReserved - g.peakReserved
                                 : 0) +
                          " GB");
        }
        for (const RunResult *r : {&c, &g}) {
            const std::string thr = formatDouble(r->samplesPerSec, 1);
            if (mTail == PairTail::throughput)
                row.push_back(thr);
            else if (mTail == PairTail::throughputOrOom)
                row.push_back(oomOr(*r, thr));
        }
        mTable.addRow(std::move(row));
    }

    void print(std::ostream &out) const { mTable.print(out); }

  private:
    static std::vector<std::string>
    header(const std::string &firstColumn, PairTail tail)
    {
        std::vector<std::string> columns = {
            firstColumn, "RM w/o GML", "RM w/ GML", "UR w/o GML",
            "UR w/ GML"};
        if (tail == PairTail::saved)
            columns.push_back("Saved");
        else
            columns.insert(columns.end(),
                           {"Thr w/o (s/s)", "Thr w/ (s/s)"});
        return columns;
    }

    PairTail mTail;
    Table mTable;
};

void
runFig10(ExperimentContext &ctx)
{
    const struct
    {
        const char *model;
        int batch;
    } models[] = {
        {"OPT-13B", 16}, {"Vicuna-13B", 16}, {"GPT-NeoX-20B", 12},
    };

    for (const auto &m : models) {
        ctx.out() << "\n--- " << m.model << " (4 GPUs, batch "
                  << m.batch << ") ---\n";
        PairTable table("Strategy", PairTail::saved);
        for (const char *strat : {"N", "R", "LR", "RO", "LRO"}) {
            // N keeps full optimizer state resident; use a batch the
            // device can hold, like the paper's common batch size.
            const int batch = std::string(strat) == "N" ? m.batch / 2
                                                        : m.batch;
            const auto cfg =
                trainConfig(m.model, strat, 4, batch, 12);
            table.add(strat,
                      ctx.runPair(cfg, {},
                                  std::string(m.model) + "/" + strat));
        }
        table.print(ctx.out());
    }
}

void
runFig11(ExperimentContext &ctx)
{
    const struct
    {
        const char *model;
        int batch;
    } models[] = {
        {"OPT-13B", 16}, {"Vicuna-13B", 16}, {"GPT-NeoX-20B", 12},
    };

    for (const auto &m : models) {
        ctx.out() << "\n--- " << m.model << " (LR, batch " << m.batch
                  << " per GPU) ---\n";
        PairTable table("GPUs", PairTail::throughput);
        for (const int gpus : {1, 2, 4, 8, 16}) {
            const auto cfg =
                trainConfig(m.model, "LR", gpus, m.batch, 10);
            table.add(std::to_string(gpus),
                      ctx.runPair(cfg, {},
                                  std::string(m.model) + "/g" +
                                      std::to_string(gpus)));
        }
        table.print(ctx.out());
    }
}

void
runFig12(ExperimentContext &ctx)
{
    const struct
    {
        const char *label;
        const char *model;
        workload::Platform platform;
        int batch;
    } rows[] = {
        {"FSDP-GLM-10B", "GLM-10B", workload::Platform::fsdp, 24},
        {"DS-OPT-13B", "OPT-13B",
         workload::Platform::deepspeedZero3, 16},
        {"CAI-GPT-2", "GPT-2", workload::Platform::colossalAi, 48},
    };

    PairTable table("Platform-Model", PairTail::saved);
    for (const auto &r : rows) {
        auto cfg = trainConfig(r.model, "LR", 4, r.batch, 12);
        cfg.platform = r.platform;
        table.add(r.label, ctx.runPair(cfg, {}, r.label));
    }
    table.print(ctx.out());
}

void
runFig13(ExperimentContext &ctx)
{
    const struct
    {
        const char *model;
        std::vector<int> batches;
    } sweeps[] = {
        {"OPT-1.3B", {1, 32, 64, 128, 192, 224, 249}},
        {"OPT-13B", {1, 20, 40, 60, 80, 100, 120}},
        {"GPT-NeoX-20B", {1, 12, 24, 36, 48, 60, 72, 84, 96, 108}},
    };

    for (const auto &sweep : sweeps) {
        ctx.out() << "\n--- " << sweep.model << " ---\n";
        PairTable table("Batch", PairTail::throughputOrOom);
        for (const int batch : sweep.batches) {
            const auto cfg =
                trainConfig(sweep.model, "LR", 4, batch, 8);
            table.add(std::to_string(batch),
                      ctx.runPair(cfg, {},
                                  std::string(sweep.model) + "/b" +
                                      std::to_string(batch)));
        }
        table.print(ctx.out());
    }
}

// ------------------------------------------------------ Figure 14

void
printSeries(ExperimentContext &ctx, const RunResult &r, int columns)
{
    Table table({"Time", "Active", "Reserved"});
    const std::size_t n = r.series.size();
    const std::size_t stride = std::max<std::size_t>(
        1, n / static_cast<std::size_t>(columns));
    for (std::size_t i = 0; i < n; i += stride) {
        const auto &p = r.series[i];
        table.addRow({formatTime(p.time), gb(p.active) + " GB",
                      gb(p.reserved) + " GB"});
    }
    if (r.oom) {
        table.addRow({formatTime(r.oomAt), "OOM", "OOM"});
    }
    table.print(ctx.out());
}

void
runFig14(ExperimentContext &ctx)
{
    // The paper runs batch 72; our synthetic activations are a bit
    // leaner, so the baseline's OOM boundary sits at batch ~96 (the
    // fig13 GPT-NeoX-20B sweep shows where). Use the boundary batch
    // so the figure shows the same phenomenon: the baseline dies
    // mid-run, GMLake completes the job with reserved ~= active.
    const auto cfg = trainConfig("GPT-NeoX-20B", "LR", 4, 96, 10);
    const auto pair = ctx.runPair(cfg, {}, "GPT-NeoX-20B/b96");

    ctx.out() << "\nPyTorch caching allocator:"
              << (pair.caching.oom ? "  (run ends in OOM)" : "")
              << "\n";
    printSeries(ctx, pair.caching, 16);
    ctx.out() << "\nGMLake:"
              << (pair.gmlake.oom ? "  (run ends in OOM)" : "")
              << "\n";
    printSeries(ctx, pair.gmlake, 16);

    // Full series for plotting, only when artifacts were asked for.
    if (ctx.options().plotFiles) {
        for (const auto *r : {&pair.caching, &pair.gmlake}) {
            CsvWriter csv("fig14_" + r->allocator + ".csv",
                          {"time_ns", "active_bytes",
                           "reserved_bytes"});
            for (const auto &p : r->series) {
                csv.addRow({std::to_string(p.time),
                            std::to_string(p.active),
                            std::to_string(p.reserved)});
            }
        }
        ctx.out() << "\n(full series written to fig14_caching.csv / "
                     "fig14_gmlake.csv)\n";
    }
}

// -------------------------------------------------------- Table 1

void
runTable1(ExperimentContext &ctx)
{
    const vmm::CostModel model;
    const Bytes block = 2_GiB;
    const double ref = static_cast<double>(model.nativeAlloc(block));
    const std::array<Bytes, 3> chunks = {2_MiB, 128_MiB, 1024_MiB};

    Table table({"Chunk Size", "cuMemReserve", "cuMemCreate",
                 "cuMemMap", "cuMemSetAccess", "Total"});
    for (const Bytes chunk : chunks) {
        const std::size_t n = block / chunk;
        const double reserve = model.memAddressReserve(block) / ref;
        const double create =
            static_cast<double>(n) * model.memCreate(chunk) / ref;
        const double map =
            static_cast<double>(n) * model.memMap(chunk) / ref;
        const double access = model.memSetAccess(n, chunk) / ref;
        const double total = reserve + create + map + access;
        table.addRow({formatBytes(chunk), formatDouble(reserve, 3),
                      formatDouble(create, 2), formatDouble(map, 3),
                      formatDouble(access, 2),
                      formatDouble(total, 1)});
        ctx.metric(formatBytes(chunk), "total_vs_cumemalloc", total);
    }
    table.print(ctx.out());
    ctx.out() << "(all values normalized to cuMemAlloc(2 GiB) = "
              << formatTime(model.nativeAlloc(block)) << ")\n";
}

// ------------------------------------------------------- ablation

void
runAblation(ExperimentContext &ctx)
{
    const auto base = trainConfig("OPT-13B", "LR", 4, 16, 12);

    auto runRow = [&](Table &table, const std::string &label,
                      const core::GMLakeConfig &gc) {
        ScenarioOptions opts;
        opts.gmlake = gc;
        const auto r =
            ctx.run(base, AllocatorKind::gmlake, opts, label);
        table.addRow({label, formatPercent(r.utilization),
                      gb(r.peakReserved) + " GB",
                      formatDouble(r.samplesPerSec, 2),
                      formatTime(r.deviceApiTime)});
    };

    {
        ctx.out() << "\nFragmentation limit sweep:\n";
        Table table({"fragLimit", "Utilization", "Peak reserved",
                     "Thr (s/s)", "Device API time"});
        for (const Bytes limit :
             {2_MiB, 8_MiB, 16_MiB, 32_MiB, 64_MiB, 128_MiB}) {
            core::GMLakeConfig gc;
            gc.fragLimit = limit;
            runRow(table, "fragLimit=" + formatBytes(limit), gc);
        }
        table.print(ctx.out());
    }

    {
        ctx.out() << "\nStitching mechanism:\n";
        Table table({"Configuration", "Utilization", "Peak reserved",
                     "Thr (s/s)", "Device API time"});
        core::GMLakeConfig on;
        runRow(table, "stitching on (default)", on);
        core::GMLakeConfig off;
        off.enableStitching = false;
        runRow(table, "stitching off", off);
        core::GMLakeConfig noRestitch;
        noRestitch.restitchOnSplit = false;
        runRow(table, "no re-stitch after split", noRestitch);
        table.print(ctx.out());
    }

    {
        ctx.out() << "\nNear-match tolerance sweep:\n";
        Table table({"Tolerance", "Utilization", "Peak reserved",
                     "Thr (s/s)", "Device API time"});
        for (const double tol : {0.0, 0.05, 0.125, 0.25}) {
            core::GMLakeConfig gc;
            gc.nearMatchTolerance = tol;
            runRow(table, "tolerance=" + formatPercent(tol, 1), gc);
        }
        table.print(ctx.out());
    }

    {
        ctx.out() << "\nStitchFree cache-limit sweep:\n";
        Table table({"maxCachedSBlocks", "Utilization",
                     "Peak reserved", "Thr (s/s)",
                     "Device API time"});
        for (const std::size_t cap : {8UL, 64UL, 512UL, 8192UL}) {
            core::GMLakeConfig gc;
            gc.maxCachedSBlocks = cap;
            runRow(table, "maxCachedSBlocks=" + std::to_string(cap),
                   gc);
        }
        table.print(ctx.out());
    }
}

// ------------------------------------------- native vs caching

void
runNativeVsCaching(ExperimentContext &ctx)
{
    const auto cfg = trainConfig("OPT-1.3B", "R", 4, 8, 6);

    const auto caching =
        ctx.run(cfg, AllocatorKind::caching, {}, "OPT-1.3B/R");
    const auto native =
        ctx.run(cfg, AllocatorKind::native, {}, "OPT-1.3B/R");

    Table table({"Allocator", "Iteration time", "Device API time",
                 "Throughput (samples/s)", "Slowdown"});
    auto row = [&](const RunResult &r) {
        table.addRow(
            {r.allocator,
             formatTime(r.simTime / std::max(1, r.iterationsDone)),
             formatTime(r.deviceApiTime),
             formatDouble(r.samplesPerSec, 1),
             formatDouble(static_cast<double>(r.simTime) /
                              static_cast<double>(caching.simTime),
                          1) +
                 "x"});
    };
    row(caching);
    row(native);
    table.print(ctx.out());
    const double allocatorSlowdown =
        static_cast<double>(native.deviceApiTime) /
        static_cast<double>(std::max<Tick>(1, caching.deviceApiTime));
    ctx.metric("native", "allocator_time_slowdown",
               allocatorSlowdown);
    ctx.out() << "(paper reports 9.7x end to end; the end-to-end gap "
                 "scales with the workload's\n allocation density — "
                 "allocator-time slowdown here: "
              << formatDouble(allocatorSlowdown, 0) << "x)\n";
}

// ------------------------------------------------ pytorch knobs

void
runPytorchKnobs(ExperimentContext &ctx)
{
    const auto base = trainConfig("GPT-NeoX-20B", "LR", 4, 48, 10);

    Table table({"Configuration", "Utilization", "Peak reserved",
                 "Thr (s/s)"});
    auto row = [&](const std::string &label, const RunResult &r) {
        table.addRow({label,
                      r.oom ? "OOM" : formatPercent(r.utilization),
                      r.oom ? "OOM" : gb(r.peakReserved) + " GB",
                      formatDouble(r.samplesPerSec, 2)});
    };
    auto runCaching = [&](const std::string &label,
                          const alloc::CachingConfig &knobs) {
        ScenarioOptions scenario;
        scenario.caching = knobs;
        row(label,
            ctx.run(base, AllocatorKind::caching, scenario, label));
    };

    runCaching("caching, defaults", {});
    {
        alloc::CachingConfig knobs;
        knobs.maxSplitSize = 256_MiB;
        runCaching("caching, max_split_size=256MB", knobs);
    }
    {
        alloc::CachingConfig knobs;
        knobs.roundupPower2Divisions = 8;
        runCaching("caching, roundup_power2_divisions=8", knobs);
    }
    {
        alloc::CachingConfig knobs;
        knobs.gcThreshold = 0.7;
        runCaching("caching, gc_threshold=0.7", knobs);
    }
    {
        alloc::CachingConfig knobs;
        knobs.maxSplitSize = 256_MiB;
        knobs.roundupPower2Divisions = 8;
        knobs.gcThreshold = 0.7;
        runCaching("caching, all three knobs", knobs);
    }
    row("gmlake, defaults",
        ctx.run(base, AllocatorKind::gmlake, {}, "gmlake defaults"));
    table.print(ctx.out());
}

// ------------------------------------------------------- serving

void
runServing(ExperimentContext &ctx)
{
    workload::ServeConfig base;
    base.model = workload::findModel("OPT-13B");
    base.requests = 192;

    ctx.out() << "KV cache: "
              << formatBytes(workload::kvBytesPerToken(base.model))
              << " per token, quantum " << base.kvQuantumTokens
              << " tokens\n\n";

    Table table({"Batch", "Allocator", "Utilization", "Peak reserved",
                 "Tokens/s", "KV reallocs"});
    for (const int batch : {8, 16, 32, 64}) {
        auto cfg = ctx.adjust(base);
        cfg.maxBatch = batch;
        const auto gen = workload::generateServingTrace(cfg);

        for (const auto kind : {AllocatorKind::caching,
                                AllocatorKind::gmlake}) {
            const std::string label = "batch " +
                                      std::to_string(batch);
            const auto r = ctx.run(kind, gen.trace, label);
            const double tokensPerSec =
                static_cast<double>(gen.generatedTokens) /
                (static_cast<double>(r.simTime) * 1e-9);
            table.addRow({std::to_string(batch),
                          allocatorKindName(kind),
                          oomOr(r, formatPercent(r.utilization)),
                          oomOr(r, gb(r.peakReserved) + " GB"),
                          oomOr(r, formatDouble(tokensPerSec, 0)),
                          std::to_string(gen.kvReallocs)});
            ctx.metric(label + " " + allocatorKindName(kind),
                       "tokens_per_sec", tokensPerSec);
        }
    }
    table.print(ctx.out());
}

// ----------------------------------------------- stitch vs move

void
runStitchVsMove(ExperimentContext &ctx)
{
    const auto base = trainConfig("OPT-13B", "LR", 4, 16, 12);

    Table table({"Allocator", "Utilization", "Peak reserved",
                 "Thr (s/s)", "Defrag work"});

    const auto caching =
        ctx.run(base, AllocatorKind::caching, {}, "OPT-13B/LR");
    table.addRow({"caching (no defrag)",
                  formatPercent(caching.utilization),
                  gb(caching.peakReserved) + " GB",
                  formatDouble(caching.samplesPerSec, 2), "-"});

    // Two manual rigs, so the allocators' own work counters can be
    // read after the replay.
    const auto cfg = ctx.adjust(base);
    const auto trace = workload::generateTrainingTrace(cfg);
    {
        Rig rig(AllocatorKind::compacting,
                ctx.adjust(ScenarioOptions{}));
        const auto r =
            ctx.run(rig, {Session("main", &trace)}, "OPT-13B/LR", &cfg)
                .combined;
        const auto &compacting =
            static_cast<const alloc::CompactingAllocator &>(
                rig.allocator());
        ctx.metric("compacting", "compaction_cycles",
                   static_cast<double>(compacting.compactions()));
        ctx.metric("compacting", "bytes_moved",
                   static_cast<double>(compacting.bytesMoved()));
        table.addRow(
            {"compacting (moves data)", formatPercent(r.utilization),
             gb(r.peakReserved) + " GB",
             formatDouble(r.samplesPerSec, 2),
             std::to_string(compacting.compactions()) + " cycles, " +
                 formatBytes(compacting.bytesMoved()) + " copied"});
    }
    {
        Rig rig(AllocatorKind::gmlake, ctx.adjust(ScenarioOptions{}));
        const auto r =
            ctx.run(rig, {Session("main", &trace)}, "OPT-13B/LR", &cfg)
                .combined;
        const auto &lake =
            static_cast<const core::GMLakeAllocator &>(rig.allocator());
        ctx.metric("gmlake", "stitches",
                   static_cast<double>(lake.strategy().stitches));
        table.addRow(
            {"gmlake (stitches)", formatPercent(r.utilization),
             gb(r.peakReserved) + " GB",
             formatDouble(r.samplesPerSec, 2),
             std::to_string(lake.strategy().stitches) +
                 " stitches, 0 B copied"});
    }
    table.print(ctx.out());
    ctx.out() << "(a moving collector also cannot be dropped under a "
                 "DL framework transparently:\n live tensors hold raw "
                 "device pointers that relocation would invalidate)\n";
}

// ------------------------------------------------- VMM designs

void
runVmmDesigns(ExperimentContext &ctx)
{
    auto trainingRows = [&](Table &table, const char *model,
                            const char *strat, int batch) {
        const auto cfg = trainConfig(model, strat, 4, batch, 10);
        for (const auto kind : {AllocatorKind::caching,
                                AllocatorKind::expandable,
                                AllocatorKind::gmlake}) {
            const auto r = ctx.run(
                cfg, kind, {},
                std::string(model) + "/" + strat + "/b" +
                    std::to_string(batch));
            table.addRow({std::string(model) + " " + strat,
                          allocatorKindName(kind),
                          oomOr(r, formatPercent(r.utilization)),
                          oomOr(r, gb(r.peakReserved) + " GB"),
                          formatDouble(r.samplesPerSec, 2)});
        }
    };

    {
        ctx.out() << "\nTraining workloads (4 GPUs):\n";
        Table table({"Workload", "Allocator", "Utilization",
                     "Peak reserved", "Thr (s/s)"});
        trainingRows(table, "OPT-13B", "LR", 16);
        trainingRows(table, "GPT-NeoX-20B", "LR", 48);
        trainingRows(table, "GPT-NeoX-20B", "LRO", 24);
        table.print(ctx.out());
    }

    {
        ctx.out() << "\nServing workload (OPT-13B, continuous "
                     "batching, 32 concurrent):\n";
        workload::ServeConfig cfg;
        cfg.model = workload::findModel("OPT-13B");
        cfg.requests = 192;
        cfg.maxBatch = 32;
        const auto gen =
            workload::generateServingTrace(ctx.adjust(cfg));

        Table table({"Allocator", "Utilization", "Peak reserved",
                     "Tokens/s"});
        for (const auto kind : {AllocatorKind::caching,
                                AllocatorKind::expandable,
                                AllocatorKind::gmlake}) {
            const auto r = ctx.run(kind, gen.trace, "serve/b32");
            table.addRow(
                {allocatorKindName(kind),
                 oomOr(r, formatPercent(r.utilization)),
                 oomOr(r, gb(r.peakReserved) + " GB"),
                 formatDouble(
                     static_cast<double>(gen.generatedTokens) /
                         (static_cast<double>(r.simTime) * 1e-9),
                     0)});
        }
        table.print(ctx.out());
    }
}

// --------------------------------------------- colocation (sessions)

/**
 * Run @p sessions co-located on one adjusted rig under @p kind and
 * record the combined result as @p label, with each tenant's fate as
 * metrics.
 */
MultiRunResult
runColocated(ExperimentContext &ctx, AllocatorKind kind,
             std::vector<Session> sessions, const std::string &label,
             const ScenarioOptions &scenario = {})
{
    Rig rig(kind, ctx.adjust(scenario));
    MultiRunResult multi = ctx.run(rig, std::move(sessions), label);
    for (const SessionResult &s : multi.sessions) {
        ctx.metric(label + "/" + s.name,
                   std::string(allocatorKindName(kind)) + "_oom",
                   s.oom ? 1.0 : 0.0);
        ctx.metric(label + "/" + s.name,
                   std::string(allocatorKindName(kind)) +
                       "_peak_live_bytes",
                   static_cast<double>(s.peakLiveBytes));
    }
    return multi;
}

std::string
sessionCell(const MultiRunResult &multi, const std::string &name)
{
    const SessionResult *s = multi.find(name);
    GMLAKE_ASSERT(s != nullptr, "unknown session: ", name);
    if (s->oom)
        return "OOM@" + formatTime(s->oomAt);
    return "ok, peak " + formatBytes(s->peakLiveBytes);
}

/**
 * Both paper allocators on one two-tenant colocation, replaying the
 * same (borrowed) traces — the same-workload comparison the paper
 * makes: utilization, reserved memory and each tenant's fate.
 */
void
runTwoTenants(ExperimentContext &ctx, const std::vector<Tenant> &tenants,
              const std::string &label, const char *firstColumn,
              const char *secondColumn)
{
    Table table({"Allocator", "Utilization", "Peak reserved",
                 firstColumn, secondColumn});
    for (const auto kind :
         {AllocatorKind::caching, AllocatorKind::gmlake}) {
        const auto multi =
            runColocated(ctx, kind, borrowSessions(tenants), label);
        table.addRow(
            {allocatorKindName(kind),
             formatPercent(multi.combined.utilization),
             gb(multi.combined.peakReserved) + " GB",
             sessionCell(multi, tenants[0].name),
             sessionCell(multi, tenants[1].name)});
        ctx.metric(label, allocatorKindName(kind),
                   multi.combined.utilization);
    }
    table.print(ctx.out());
}

void
runColocateTrainServe(ExperimentContext &ctx)
{
    // One device, two tenants: an OPT-13B fine-tune (the footprint
    // owner) and an OPT-13B KV-cache serving process (variable-size
    // churn in whatever is left). Fragmentation from either tenant
    // eats into the other's headroom.
    auto train = ctx.adjust(trainConfig("OPT-13B", "LR", 4, 16, 8));
    workload::ServeConfig serve;
    serve.model = workload::findModel("OPT-13B");
    serve.requests = 160;
    serve.maxBatch = 24;
    serve = ctx.adjust(serve);

    std::vector<Tenant> tenants;
    tenants.push_back({"train", workload::generateTrainingTrace(train)});
    tenants.push_back(
        {"serve", workload::generateServingTrace(serve).trace});
    runTwoTenants(ctx, tenants, "OPT-13B train+serve", "Train session",
                  "Serve session");
    ctx.out() << "(per-session verdicts: a dead tenant OOMed and was "
                 "reclaimed; the survivor replayed on)\n";
}

void
runColocateTwoServing(ExperimentContext &ctx)
{
    // Two serving tenants with different models and admission rates
    // share one device; the second tenant arrives mid-run, landing in
    // a heap the first tenant already shaped.
    workload::ServeConfig big;
    big.model = workload::findModel("OPT-13B");
    big.requests = 192;
    big.maxBatch = 32;
    big = ctx.adjust(big);

    workload::ServeConfig small = big;
    small.model = workload::findModel("GLM-10B");
    small.requests = std::max(1, big.requests / 2);
    small.maxBatch = 16;
    small.seed = deriveSeed(big.seed, 1);

    std::vector<Tenant> tenants;
    tenants.push_back(
        {"opt-13b", workload::generateServingTrace(big).trace});
    // The second tenant spins up after the first has been decoding
    // for a while.
    tenants.push_back({"glm-10b",
                       workload::generateServingTrace(small).trace,
                       Tick{2'000'000'000}});
    runTwoTenants(ctx, tenants, "two-tenant serving", "OPT-13B tenant",
                  "GLM-10B tenant");
}

void
runColocateOversub(ExperimentContext &ctx)
{
    // Pack 1..4 identical training tenants onto a device sized for
    // about three of them: the sweep finds how many co-located jobs
    // each allocator sustains before fragmentation turns headroom
    // into OOMs.
    const auto base =
        ctx.adjust(trainConfig("OPT-1.3B", "LR", 4, 48, 6));
    ScenarioOptions scenario;
    scenario.device.capacity = 32_GiB;

    constexpr int kMaxTenants = 4;
    std::vector<Tenant> tenants;
    for (int t = 0; t < kMaxTenants; ++t) {
        auto cfg = base;
        cfg.seed =
            deriveSeed(base.seed, static_cast<std::uint64_t>(t));
        tenants.push_back({"tenant" + std::to_string(t),
                           workload::generateTrainingTrace(cfg)});
    }

    Table table({"Tenants", "Allocator", "Utilization",
                 "Peak reserved", "Survivors"});
    for (int n = 1; n <= kMaxTenants; ++n) {
        const std::string label = "oversub x" + std::to_string(n);
        for (const auto kind :
             {AllocatorKind::caching, AllocatorKind::gmlake}) {
            const auto multi = runColocated(
                ctx, kind, borrowSessions(tenants, n), label, scenario);
            int survivors = 0;
            for (const auto &s : multi.sessions)
                survivors += s.oom ? 0 : 1;
            table.addRow({std::to_string(n), allocatorKindName(kind),
                          formatPercent(multi.combined.utilization),
                          gb(multi.combined.peakReserved) + " GB",
                          std::to_string(survivors) + "/" +
                              std::to_string(n)});
            ctx.metric(label, std::string(allocatorKindName(kind)) +
                                  "_survivors",
                       survivors);
        }
    }
    table.print(ctx.out());
}

// --------------------------------------------- allocator stress

/**
 * @p row followed by the host wall-clock cells of @p r — VMM time
 * and run time — each also recorded as a metric under the
 * allocator's name.
 */
std::vector<std::string>
wallRow(ExperimentContext &ctx, const RunResult &r,
        std::vector<std::string> row)
{
    auto cell = [&](const char *metric, std::uint64_t ns, double scale,
                    const char *unit) {
        row.push_back(
            formatDouble(static_cast<double>(ns) * scale, 1) + unit);
        ctx.metric(r.allocator, metric, static_cast<double>(ns));
    };
    cell("vmm_wall_ns", r.vmmWallNs, 1e-6, " ms");
    cell("run_wall_ns", r.runWallNs, 1e-6, " ms");
    return row;
}

/**
 * GMLake's pool depth and strategy counters after a run: metrics
 * (splits only when @p withSplits) and one summary line.
 */
void
poolReport(ExperimentContext &ctx, const alloc::Allocator &allocator,
           bool withSplits)
{
    const auto &lake =
        static_cast<const core::GMLakeAllocator &>(allocator);
    const auto &s = lake.strategy();
    ctx.metric("gmlake", "stitches", static_cast<double>(s.stitches));
    if (withSplits)
        ctx.metric("gmlake", "splits", static_cast<double>(s.splits));
    ctx.metric("gmlake", "s3_multi_blocks",
               static_cast<double>(s.s3MultiBlocks));
    ctx.metric("gmlake", "pblocks",
               static_cast<double>(lake.pBlockCount()));
    ctx.metric("gmlake", "sblocks",
               static_cast<double>(lake.sBlockCount()));
    ctx.out() << "gmlake pools at end: " << lake.pBlockCount()
              << " pBlocks, " << lake.sBlockCount()
              << " sBlocks; strategy: " << s.s1ExactMatch << " exact, "
              << s.s2SingleBlock << " single, " << s.s3MultiBlocks
              << " stitched, " << s.s4Insufficient << " grown\n";
}

/**
 * Deep-pool stress trace for the allocator hot path. Phase 1 builds
 * and frees hundreds of modest blocks so the inactive pPool is deep;
 * phase 2 keeps a window of large, rarely-repeating requests
 * churning across several streams, so most allocations miss the
 * exact-match fast path and walk the BestFit candidate search.
 * Deterministic in @p seed; ~3 events per churn op.
 */
workload::Trace
makeStressTrace(std::uint64_t seed, int churnOps)
{
    Rng rng(seed);
    workload::TraceBuilder builder;
    constexpr int kStreams = 4;
    constexpr int kPoolBlocks = 512;
    constexpr std::size_t kLiveWindow = 16;

    // Phase 1: populate the inactive pool with 2-32 MiB blocks,
    // then free them all and synchronize so every block is reusable
    // by any stream.
    std::vector<workload::TensorId> pool;
    pool.reserve(kPoolBlocks);
    for (int i = 0; i < kPoolBlocks; ++i) {
        const Bytes size = 2_MiB * rng.uniformInt(1, 16);
        pool.push_back(builder.alloc(
            size, static_cast<StreamId>(i % kStreams)));
        builder.compute(20'000);
    }
    for (const workload::TensorId id : pool)
        builder.free(id);
    builder.streamSync(kAnyStream);

    // Phase 2: churn. Requests span 64-512 MiB, far above any phase-1
    // block, so serving one means stitching (or splitting) deep into
    // the pool; the live window keeps steady pressure without
    // trending toward OOM.
    std::vector<workload::TensorId> live;
    live.reserve(kLiveWindow);
    for (int i = 0; i < churnOps; ++i) {
        if (live.size() >= kLiveWindow) {
            const std::size_t victim = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            builder.free(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
        const Bytes size = 2_MiB * rng.uniformInt(32, 256);
        const auto stream = static_cast<StreamId>(
            rng.uniformInt(0, kStreams - 1));
        live.push_back(builder.alloc(size, stream));
        builder.compute(50'000);
        if (i % 1024 == 1023)
            builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

void
runStressAllocator(ExperimentContext &ctx)
{
    // "Iterations" scale the churn phase: the default run replays
    // 100k+ events; CI smoke (--iterations 1) stays proportionally
    // short. 64-bit intermediate + cap: the CLI accepts iteration
    // counts up to INT_MAX, and an uncapped 2000x would overflow
    // (and a million-iteration trace would not fit in memory
    // anyway).
    const long long scaled =
        2000LL * static_cast<long long>(ctx.iterations(20));
    const int churnOps = static_cast<int>(
        std::min<long long>(scaled, 2'000'000));
    const std::uint64_t seed =
        ctx.options().seed != 0 ? ctx.options().seed : 42;
    const workload::Trace trace = makeStressTrace(seed, churnOps);
    ctx.out() << "stress workload: " << trace.size()
              << " events, deep inactive pools, 4 streams\n\n";

    // Exact-fit discipline: with the near-match tolerance at zero the
    // fast path only absorbs exact repeats, so the BestFit search —
    // the structure under test — carries the load.
    ScenarioOptions scenario;
    scenario.gmlake.nearMatchTolerance = 0.0;

    Table table({"Allocator", "Utilization", "Peak reserved",
                 "VMM wall", "Run wall"});
    for (const auto kind :
         {AllocatorKind::caching, AllocatorKind::gmlake}) {
        Rig rig(kind, ctx.adjust(scenario));
        const auto r =
            ctx.run(rig, {Session("main", &trace)}, "stress").combined;
        table.addRow(wallRow(ctx, r,
                             {r.allocator,
                              oomOr(r, formatPercent(r.utilization)),
                              oomOr(r, gb(r.peakReserved) + " GB")}));
        // The pool depth and strategy counters land in the report
        // alongside the wallclock.
        if (kind == AllocatorKind::gmlake)
            poolReport(ctx, rig.allocator(), true);
    }
    table.print(ctx.out());
}

// --------------------------------------------- fragmentation churn

/**
 * Fragmentation-churn trace for the VMM bookkeeping hot path.
 * Phase 1 lays down a checkerboard: thousands of small blocks with
 * every other one freed, so handle-per-allocation allocators see a
 * hole-riddled physical space and gmlake a deep, fragmented
 * inactive pool. Phase 2 churns a live window of mostly-small
 * requests with a deep-stitch request every fourth op (hundreds of
 * 2 MiB chunks per sBlock), while the checkerboard survivors drip
 * away to keep the hole set moving. Deterministic in @p seed.
 */
workload::Trace
makeFragChurnTrace(std::uint64_t seed, int churnOps)
{
    Rng rng(seed);
    workload::TraceBuilder builder;
    constexpr int kStreams = 4;
    constexpr int kCheckerBlocks = 2048;
    constexpr std::size_t kLiveWindow = 24;

    // Phase 1: checkerboard of 2-16 MiB blocks. All are placed
    // first, then every other one is freed, so the freed ranges
    // cannot be reused in place: each becomes a persistent hole
    // pinned between two live neighbours.
    std::vector<workload::TensorId> placed;
    placed.reserve(kCheckerBlocks);
    for (int i = 0; i < kCheckerBlocks; ++i) {
        const Bytes size = 2_MiB * rng.uniformInt(1, 8);
        placed.push_back(builder.alloc(
            size, static_cast<StreamId>(i % kStreams)));
        builder.compute(10'000);
    }
    std::vector<workload::TensorId> survivors;
    survivors.reserve(kCheckerBlocks / 2);
    for (int i = 0; i < kCheckerBlocks; ++i) {
        if (i % 2 == 1)
            builder.free(placed[i]);
        else
            survivors.push_back(placed[i]);
    }
    builder.streamSync(kAnyStream);

    // Phase 2: churn. Three small refills per deep stitch keep both
    // ends of the size spectrum hot; dripping the survivors out
    // keeps holes merging and splitting for the whole run.
    std::vector<workload::TensorId> live;
    live.reserve(kLiveWindow);
    std::size_t nextSurvivor = 0;
    for (int i = 0; i < churnOps; ++i) {
        if (live.size() >= kLiveWindow) {
            const std::size_t victim = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            builder.free(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
        const Bytes size =
            i % 4 == 3 ? 2_MiB * rng.uniformInt(64, 640)
                       : 2_MiB * rng.uniformInt(1, 16);
        const auto stream = static_cast<StreamId>(
            rng.uniformInt(0, kStreams - 1));
        live.push_back(builder.alloc(size, stream));
        builder.compute(30'000);
        if (i % 32 == 31 && nextSurvivor < survivors.size())
            builder.free(survivors[nextSurvivor++]);
        if (i % 128 == 127) {
            builder.streamSync(static_cast<StreamId>(
                rng.uniformInt(0, kStreams - 1)));
        }
        if (i % 512 == 511)
            builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

void
runFragChurn(ExperimentContext &ctx)
{
    // 64-bit intermediate + cap, as in the stress scenario: smoke
    // runs shrink proportionally, full scale replays ~100k events.
    const long long scaled =
        1600LL * static_cast<long long>(ctx.iterations(20));
    const int churnOps = static_cast<int>(
        std::min<long long>(scaled, 2'000'000));
    const std::uint64_t seed =
        ctx.options().seed != 0 ? ctx.options().seed : 1337;
    const workload::Trace trace = makeFragChurnTrace(seed, churnOps);
    ctx.out() << "frag-churn workload: " << trace.size()
              << " events, checkerboard holes + deep stitches, 4 "
                 "streams\n\n";

    // A 40 GiB device keeps real pressure on the hole map without
    // pushing the caching allocator over the edge; zero near-match
    // tolerance forces the stitch-heavy search exactly like the
    // stress scenario.
    ScenarioOptions scenario;
    scenario.device.capacity = 40_GiB;
    scenario.gmlake.nearMatchTolerance = 0.0;

    Table table({"Allocator", "Utilization", "Peak holes",
                 "VMM wall", "Run wall"});
    for (const auto kind :
         {AllocatorKind::native, AllocatorKind::caching,
          AllocatorKind::gmlake}) {
        // The rig outlives the replay, so the device's hole
        // statistics can be reported.
        Rig rig(kind, ctx.adjust(scenario));
        const auto r = ctx.run(rig, {Session("main", &trace)},
                               "frag-churn")
                           .combined;
        const std::size_t peakHoles =
            rig.device().phys().peakHoleCount();
        table.addRow(wallRow(ctx, r,
                             {r.allocator,
                              oomOr(r, formatPercent(r.utilization)),
                              std::to_string(peakHoles)}));
        // Deterministic fragmentation shape: pinned by the decision
        // digests, so a hole-structure rewrite that changes
        // placement is caught immediately.
        ctx.metric(r.allocator, "phys_peak_holes",
                   static_cast<double>(peakHoles));
        if (kind == AllocatorKind::gmlake)
            poolReport(ctx, rig.allocator(), false);
    }
    table.print(ctx.out());
}

// ------------------------------------------- host offload (tiered)

/**
 * One serving tenant for the burst scenario: model weights touched
 * round-robin each decode round, a sliding window of KV-cache blocks
 * (one admitted per round, oldest completed once the window is
 * full), and per-round touches of random live KV blocks — the
 * decode reads. Deterministic in @p seed.
 */
workload::Trace
makeServeOffloadTrace(std::uint64_t seed, Bytes weightBytes,
                      int weightTensors, int rounds,
                      std::size_t kvWindow, Tick roundNs,
                      bool prefetchHints)
{
    Rng rng(seed);
    workload::TraceBuilder builder;

    std::vector<workload::TensorId> weights;
    weights.reserve(static_cast<std::size_t>(weightTensors));
    for (const Bytes size :
         workload::residentSplit(weightBytes, weightTensors)) {
        weights.push_back(builder.alloc(size, 0));
        builder.compute(roundNs / 8);
    }

    std::vector<workload::TensorId> kv;
    for (int round = 0; round < rounds; ++round) {
        const std::size_t layer =
            static_cast<std::size_t>(round) % weights.size();
        if (prefetchHints)
            builder.prefetch(weights[(layer + 1) % weights.size()]);
        builder.touch(weights[layer]);
        // Admit one request's KV buffer; decode reads two live ones.
        kv.push_back(builder.alloc(
            2_MiB * rng.uniformInt(64, 192), // 128-384 MiB
            static_cast<StreamId>(1 + round % 3)));
        for (int reads = 0; reads < 2; ++reads) {
            builder.touch(kv[static_cast<std::size_t>(
                rng.uniformInt(0, kv.size() - 1))]);
        }
        builder.compute(roundNs);
        if (kv.size() > kvWindow) {
            builder.free(kv.front());
            kv.erase(kv.begin());
        }
        if (round % 8 == 7)
            builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

/** One allocator x host-tier configuration of an offload table row. */
struct OffloadRunSpec
{
    AllocatorKind kind;
    std::optional<offload::PolicyKind> hostTier;
    const char *rowName; //!< allocator column, e.g. "gmlake+offload"
};

/**
 * The offload scenarios' table: the borrowed @p tenants co-located on
 * one adjusted device under each spec (native first when
 * @p withNative), with per-spec kills and tier traffic as metrics.
 */
void
runOffloadTable(ExperimentContext &ctx,
                const std::vector<Tenant> &tenants,
                const std::string &label,
                const ScenarioOptions &scenario, bool withNative)
{
    using offload::PolicyKind;
    static const OffloadRunSpec kSpecs[] = {
        {AllocatorKind::native, std::nullopt, "native"},
        {AllocatorKind::caching, std::nullopt, "caching"},
        {AllocatorKind::gmlake, std::nullopt, "gmlake"},
        {AllocatorKind::caching, PolicyKind::lru, "caching+offload"},
        {AllocatorKind::gmlake, PolicyKind::lru,
         "gmlake+offload(lru)"},
        {AllocatorKind::gmlake, PolicyKind::sizeAware,
         "gmlake+offload(size-aware)"},
    };
    Table table({"Allocator", "Survivors", "Peak reserved",
                 "Evicted", "Faulted", "Copy stall", "Sim time"});
    for (const OffloadRunSpec &spec : kSpecs) {
        if (spec.kind == AllocatorKind::native && !withNative)
            continue;
        ScenarioOptions options = ctx.adjust(scenario);
        options.hostTier = spec.hostTier;
        Rig rig(spec.kind, options);
        const MultiRunResult multi = ctx.run(
            rig, borrowSessions(tenants), label, nullptr, spec.rowName);
        const RunResult &r = multi.combined;
        int kills = 0;
        for (const SessionResult &s : multi.sessions)
            kills += s.oom ? 1 : 0;
        const std::string row = spec.rowName;
        ctx.metric(label, row + "_kills", kills);
        ctx.metric(label, row + "_evicted_bytes",
                   static_cast<double>(r.evictedBytes));
        ctx.metric(label, row + "_faulted_bytes",
                   static_cast<double>(r.faultedBytes));
        ctx.metric(label, row + "_stall_ns",
                   static_cast<double>(r.stallNs));
        table.addRow(
            {row,
             std::to_string(tenants.size() -
                            static_cast<std::size_t>(kills)) +
                 "/" + std::to_string(tenants.size()),
             gb(r.peakReserved) + " GB", formatBytes(r.evictedBytes),
             formatBytes(r.faultedBytes), formatTime(r.stallNs),
             formatTime(r.simTime)});
    }
    table.print(ctx.out());
}

void
runOversubOffload(ExperimentContext &ctx)
{
    // Four training tenants, each with a 12 GiB resident set, on a
    // 32 GiB device: 48 GiB of demand, 1.5x capacity. Without a host
    // tier the device cannot admit the third tenant's resident set;
    // with one, idle tenants' weights spill to host and fault back
    // when their phase comes around.
    const int iterations = ctx.iterations(6);
    constexpr int kTenants = 4;
    const std::uint64_t seed =
        ctx.options().seed != 0 ? ctx.options().seed : 42;

    ScenarioOptions scenario;
    scenario.device.capacity = 32_GiB;

    std::vector<Tenant> tenants;
    for (int t = 0; t < kTenants; ++t) {
        tenants.push_back(
            {"tenant" + std::to_string(t),
             workload::makeOffloadTenantTrace(
                 deriveSeed(seed, static_cast<std::uint64_t>(t)),
                 12_GiB, /*residentTensors=*/6, iterations,
                 /*transientsPerPhase=*/3,
                 /*phaseNs=*/Tick{40'000'000},
                 /*prefetchHints=*/true),
             static_cast<Tick>(t) * Tick{25'000'000}});
    }
    ctx.out() << "oversub workload: " << kTenants << " tenants x "
              << "12 GiB resident on 32 GiB (1.5x capacity), "
              << iterations << " iterations each\n\n";

    runOffloadTable(ctx, tenants, "oversub 1.5x", scenario, true);
    ctx.out() << "(a host tier only helps an allocator that can "
                 "release physical memory under live\n virtual "
                 "addresses: gmlake+offload keeps every tenant, the "
                 "cudaMalloc-backed caching\n allocator cannot spill "
                 "live data and still loses tenants)\n";
}

void
runServeBurstOffload(ExperimentContext &ctx)
{
    // A steady serving tenant (10 GiB of weights + a KV window) owns
    // a 16 GiB device; a burst tenant with its own model instance
    // arrives mid-run and pushes combined demand to ~1.7x capacity,
    // then drains. Spiky serving is the offload tier's natural home:
    // the burst borrows the steady tenant's idle weights' backing
    // and gives it back when the spike ends.
    const int iterations = ctx.iterations(4);
    const std::uint64_t seed =
        ctx.options().seed != 0 ? ctx.options().seed : 1234;

    ScenarioOptions scenario;
    scenario.device.capacity = 16_GiB;

    std::vector<Tenant> tenants;
    tenants.push_back(
        {"tenant0",
         makeServeOffloadTrace(
             deriveSeed(seed, 0), 10_GiB, /*weightTensors=*/5,
             24 * iterations, /*kvWindow=*/6,
             /*roundNs=*/Tick{20'000'000}, /*prefetchHints=*/true)});
    // The burst lands once the steady tenant is warmed up.
    tenants.push_back(
        {"tenant1",
         makeServeOffloadTrace(
             deriveSeed(seed, 1), 10_GiB, /*weightTensors=*/5,
             10 * iterations, /*kvWindow=*/4,
             /*roundNs=*/Tick{20'000'000}, /*prefetchHints=*/true),
         Tick{150'000'000}});
    ctx.out() << "serve-burst workload: steady 10 GiB + burst 10 GiB "
                 "on 16 GiB (~1.7x during the burst)\n\n";

    runOffloadTable(ctx, tenants, "serve burst", scenario, false);
}

// --------------------------------------------- cluster (thread pool)

void
runClusterRanks(ExperimentContext &ctx)
{
    const auto cfg =
        ctx.adjust(trainConfig("OPT-13B", "LR", 4, 16, 6));

    Table table({"Allocator", "Worst-rank reserved",
                 "Best-rank reserved", "Min utilization",
                 "Global thr (s/s)"});
    for (const auto kind :
         {AllocatorKind::caching, AllocatorKind::gmlake}) {
        const auto cluster = runCluster(
            cfg, kind, ctx.adjust(ScenarioOptions{}),
            ctx.threads());
        for (std::size_t r = 0; r < cluster.ranks.size(); ++r) {
            ctx.record("rank" + std::to_string(r),
                       cluster.ranks[r].allocator, cluster.ranks[r]);
        }
        table.addRow(
            {allocatorKindName(kind),
             gb(cluster.maxPeakReserved()) + " GB",
             gb(cluster.minPeakReserved()) + " GB",
             formatPercent(cluster.minUtilization()),
             formatDouble(cluster.globalSamplesPerSec(cfg), 1)});
        ctx.metric(allocatorKindName(kind), "worst_rank",
                   static_cast<double>(cluster.worstRank()));
        ctx.metric(allocatorKindName(kind),
                   "global_samples_per_sec",
                   cluster.globalSamplesPerSec(cfg));
    }
    table.print(ctx.out());
    ctx.out() << "(ranks executed on " << ctx.threads()
              << " worker thread(s); results are identical at any "
                 "thread count)\n";
}

// --------------------------------------------------- serving day

/**
 * Full-scale streaming replay: a day of paged-attention KV-cache
 * serving synthesized by KvServeSource and pulled through the engine
 * one event at a time — at the default scale ~10⁷ events per
 * allocator, never materialized. Host RSS must therefore stay flat
 * against event count (the rss_growth_bytes metric; CI asserts a
 * ceiling on the smoke run), which is the whole point of the
 * EventSource cursor API.
 */
void
runServeDay(ExperimentContext &ctx)
{
    // --iterations scales the request count; the default (8) lands
    // at ≥ 10⁷ events, CI smoke (--iterations 1) stays proportional.
    const long long scale = ctx.iterations(8);
    workload::KvServeConfig cfg;
    cfg.model = workload::findModel("OPT-1.3B");
    cfg.maxBatch = 48;
    cfg.requests = static_cast<std::uint64_t>(
        std::min<long long>(7000LL * scale, 2'000'000));
    cfg.medianPromptTokens = 384;
    cfg.meanGenerateTokens = 160;
    cfg.maxContextTokens = 4096;
    cfg.blockTokens = 64;
    cfg.seed = ctx.options().seed != 0 ? ctx.options().seed : 42;

    ScenarioOptions base;
    // A tight device keeps the block churn honest (~7 GiB working
    // set on 12 GiB); series sampling is off so the replay allocates
    // nothing proportional to the event count.
    base.device.capacity = 12_GiB;
    base.engine.recordSeries = false;

    {
        workload::KvServeSource probe(cfg);
        ctx.out() << "serving day: " << cfg.requests
                  << " requests, ~" << probe.sizeHint()
                  << " events (estimated), "
                  << formatBytes(probe.blockBytes())
                  << " KV blocks, streamed (never materialized)\n\n";
    }

    Table table({"Allocator", "Events", "Served", "Preempted",
                 "Peak reserved", "Util", "Events/s", "RSS growth"});
    for (const auto kind :
         {AllocatorKind::gmlake, AllocatorKind::caching,
          AllocatorKind::native}) {
        Rig rig(kind, ctx.adjust(base));
        // Shared ownership: the engine run tears its sessions down
        // before it returns, and the counters are read after.
        const auto source =
            std::make_shared<workload::KvServeSource>(cfg);
        const Bytes rssBefore = currentRssBytes();
        const auto r =
            ctx.run(rig, {Session("main", source)}, "serve-day")
                .combined;
        const Bytes rssPeak = peakRssBytes();
        const Bytes rssGrowth =
            rssPeak > rssBefore ? rssPeak - rssBefore : 0;
        const auto &counters = source->counters();
        const double eventsPerSec =
            r.runWallNs > 0
                ? static_cast<double>(counters.emitted) /
                      (static_cast<double>(r.runWallNs) * 1e-9)
                : 0.0;
        // Deterministic workload facts (digest-pinned).
        ctx.metric(r.allocator, "events",
                   static_cast<double>(counters.emitted));
        ctx.metric(r.allocator, "requests_served",
                   static_cast<double>(counters.served));
        ctx.metric(r.allocator, "preemptions",
                   static_cast<double>(counters.preempted));
        ctx.metric(r.allocator, "prefix_hits",
                   static_cast<double>(counters.prefixHits));
        ctx.metric(r.allocator, "block_allocs",
                   static_cast<double>(counters.blockAllocs));
        // Host-side measurements ("wall"/"rss" names are excluded
        // from the decision digests by design).
        ctx.metric(r.allocator, "wall_events_per_sec",
                   eventsPerSec);
        ctx.metric(r.allocator, "peak_rss_bytes",
                   static_cast<double>(rssPeak));
        ctx.metric(r.allocator, "rss_growth_bytes",
                   static_cast<double>(rssGrowth));
        ctx.metric(r.allocator, "run_wall_ns",
                   static_cast<double>(r.runWallNs));
        table.addRow(
            {r.allocator, std::to_string(counters.emitted),
             std::to_string(counters.served),
             std::to_string(counters.preempted),
             oomOr(r, gb(r.peakReserved) + " GB"),
             oomOr(r, formatPercent(r.utilization)),
             formatDouble(eventsPerSec * 1e-6, 2) + " M/s",
             formatBytes(rssGrowth)});
    }
    table.print(ctx.out());
    ctx.out() << "(streamed replay: host RSS growth is bounded by "
                 "live state, not event count)\n";
}

// ----------------------------------------------- policy sweep

void
runSweepSmoke(ExperimentContext &ctx)
{
    const std::uint64_t seed =
        ctx.options().seed != 0 ? ctx.options().seed : 42;
    SweepScenario scenario =
        buildSweepScenario("smoke", seed, ctx.iterations(2));
    if (ctx.options().deviceCapacity != 0)
        scenario.device.capacity = ctx.options().deviceCapacity;

    // A small but non-degenerate grid: 2 x 2 x 2 = 8 points.
    SweepGrid grid;
    grid.fragLimits = {2_MiB, 16_MiB};
    grid.nearMatchTolerances = {0.0, 0.125};
    grid.enableStitching = {true, false};
    const std::vector<SweepPoint> points =
        grid.expand(scenario.base);

    SweepRunOptions options;
    options.threads = static_cast<std::size_t>(ctx.threads());
    const SweepReport report = runSweep(scenario, points, options);

    ctx.record("warmup", report.allocator, report.warmup);
    for (const SweepPointRecord &rec : report.points)
        ctx.record(rec.point.label, report.allocator, rec.tail);
    ctx.metric("sweep", "points",
               static_cast<double>(report.points.size()));
    ctx.metric("sweep", "frontier_points",
               static_cast<double>(report.frontier().size()));

    ctx.out() << "sweep workload: " << scenario.tenants.size()
              << " co-located sessions, split at "
              << formatTime(scenario.splitTime)
              << " of virtual time; " << report.points.size()
              << " policy points forked from one checkpoint\n\n";
    Table table({"Point", "Frag", "Peak reserved", "Dev API",
                 "Sim time", "Pareto"});
    for (const SweepPointRecord &rec : report.points) {
        table.addRow(
            {rec.point.label,
             oomOr(rec.tail, formatPercent(rec.tail.fragmentation)),
             oomOr(rec.tail, gb(rec.tail.peakReserved) + " GB"),
             formatTime(rec.tail.deviceApiTime),
             formatTime(rec.tail.simTime),
             rec.onFrontier ? "*" : ""});
    }
    table.print(ctx.out());
    ctx.out() << "(warmup prefix replayed once, checkpointed; each "
                 "point restores the checkpoint and replays only "
                 "the divergent tail — bit-identical to a full "
                 "re-replay per point)\n";
}

} // namespace

// ----------------------------------------------------- registration

void
registerBuiltinExperiments()
{
    static bool registered = false;
    if (registered)
        return;
    registered = true;

    auto &registry = ExperimentRegistry::instance();

    registry.add(
        {"headline", "aggregate",
         "Section 5 — headline aggregate over the workload matrix",
         "Paper: avg 9.2 GB (max 25 GB) reserved saved; avg 15% "
         "(max 33%) fragmentation removed, over 76 workloads",
         runHeadline});
    registry.add(
        {"fig3", "figure",
         "Figure 3 — utilization vs strategy combination "
         "(baseline allocator)",
         "Paper: P 97%, PR 80%, PLR 76%, PRO 73%, PLRO 65% — "
         "complex strategies fragment the caching allocator",
         runFig3});
    registry.add(
        {"fig4", "figure",
         "Figure 4 — utilization vs GPU count (baseline allocator)",
         "Paper: 91% at 1 GPU degrading to 76% at 16 GPUs "
         "(OPT-13B, ZeRO-3 sharding)",
         runFig4});
    registry.add(
        {"fig5", "figure",
         "Figure 5 — allocation stream shape, original vs LR "
         "(GPT-NeoX-20B)",
         "Paper: 46k allocations @ 93 MB avg vs 76k @ 85 MB — "
         "strategies make requests more frequent and smaller",
         runFig5});
    registry.add(
        {"fig6", "figure",
         "Figure 6 — native vs virtual-memory allocation latency",
         "Paper: VM allocator with 2 MB chunks is ~115x slower than "
         "cudaMalloc; gap closes as chunks grow",
         runFig6});
    registry.add(
        {"fig10", "figure",
         "Figure 10 — strategy scalability, caching vs GMLake",
         "Paper: baseline fragments 5-24% under strategy combos; "
         "GMLake holds ~90%+ utilization on every one",
         runFig10});
    registry.add(
        {"fig11", "figure",
         "Figure 11 — GPU scale-out, caching vs GMLake (LR)",
         "Paper: fragmentation grows with GPU count; GMLake keeps "
         "~90% utilization and baseline-level throughput",
         runFig11});
    registry.add(
        {"fig12", "figure",
         "Figure 12 — platform scalability, caching vs GMLake",
         "Paper: reductions of 9-33% fragmentation and 7-25 GB "
         "reserved memory across FSDP / DeepSpeed / Colossal-AI",
         runFig12});
    registry.add(
        {"fig13", "figure",
         "Figure 13 — batch-size sweep, caching vs GMLake "
         "(LR + ZeRO-3, 4 GPUs)",
         "Paper: GMLake sustains larger batches (baseline OOMs "
         "first) at equal or better throughput",
         runFig13});
    registry.add(
        {"fig14", "figure",
         "Figure 14 — memory trace, GPT-NeoX-20B at the OOM "
         "boundary (LR, 4 GPUs)",
         "Paper: PyTorch OOMs ~200 s in; GMLake's reserved tracks "
         "its active memory and converges after ~4 iterations",
         runFig14});
    registry.add(
        {"table1", "table",
         "Table 1 — VMM API execution-time breakdown",
         "Paper: reserve 0.003/0.003/0.002, create 18.1/0.89/0.79, "
         "map 0.70/0.01/0.002, setAccess 96.8/8.2/0.7, total "
         "115.4/9.1/1.5 (x cuMemAlloc)",
         runTable1});
    registry.add(
        {"ablation", "extension",
         "Ablation — GMLake design knobs (OPT-13B, LR, 4 GPUs)",
         "Trade-offs the paper discusses in Sections 4.2.2/4.2.3",
         runAblation});
    registry.add(
        {"native-vs-caching", "section",
         "Section 2.2 — native vs caching allocator, end to end",
         "Paper: disabling the caching allocator slows OPT-1.3B "
         "training by ~9.7x",
         runNativeVsCaching});
    registry.add(
        {"pytorch-knobs", "extension",
         "Extension — PyTorch allocator knobs vs GMLake",
         "Tuning the caching allocator recovers part of the "
         "fragmentation; stitching removes it",
         runPytorchKnobs});
    registry.add(
        {"serving", "extension",
         "Extension — KV-cache serving (continuous batching, "
         "OPT-13B)",
         "Variable-length KV buffers fragment the caching "
         "allocator; stitching absorbs them (cf. vLLM, Section 6)",
         runServing});
    registry.add(
        {"stitch-vs-move", "extension",
         "Related work — stitching vs compaction-based moving",
         "Paper Section 6: stitching avoids the data movement of "
         "consolidation-based defragmentation",
         runStitchVsMove});
    registry.add(
        {"colocate-train-serve", "extension",
         "Colocation — training + KV-cache serving on one GPU "
         "(multi-session engine)",
         "Co-located tenants contend for one heap; fragmentation "
         "from either eats the other's headroom, stitching returns "
         "it",
         runColocateTrainServe});
    registry.add(
        {"colocate-two-serving", "extension",
         "Colocation — two serving tenants, staggered arrival "
         "(multi-session engine)",
         "A tenant that arrives mid-run lands in a heap the first "
         "tenant already fragmented",
         runColocateTwoServing});
    registry.add(
        {"colocate-oversub", "extension",
         "Colocation — oversubscription sweep, 1-4 training tenants "
         "on a 32 GiB device",
         "How many co-located jobs survive before fragmentation "
         "turns headroom into OOM; dead tenants are reclaimed",
         runColocateOversub});
    registry.add(
        {"oversub-offload", "extension",
         "Oversubscription — 4 tenants x 12 GiB on 32 GiB (1.5x), "
         "host tier spills/faults the idle sets",
         "True oversubscription beyond capacity: without offload the "
         "device kills tenants, with it gmlake completes all four by "
         "unmap/remap spilling whole pBlocks",
         runOversubOffload});
    registry.add(
        {"serve-burst-offload", "extension",
         "Serving burst — a second tenant spikes demand to ~1.7x "
         "capacity, then drains",
         "Spiky serving colocation: the burst borrows the steady "
         "tenant's idle weights via the host tier; prefetch hints "
         "hide the fault-back latency",
         runServeBurstOffload});
    registry.add(
        {"stress-allocator", "extension",
         "Stress — allocator hot-path wallclock under deep pools "
         "(100k+ events, 4 streams)",
         "Per-request BestFit cost must track the candidate set, not "
         "the pool size; run_wall_ns measures the run, and "
         "bench/suite's stress-deep-pool traced replay each call",
         runStressAllocator});
    registry.add(
        {"frag-churn", "extension",
         "Fragmentation churn — hole-riddled physical space + deep "
         "stitched pools (100k events)",
         "VMM bookkeeping must cost O(extents), not O(chunks) or "
         "O(holes): vmm_wall_ns isolates the simulator's hole-scan "
         "and mapping-table cost from the pool search",
         runFragChurn});
    registry.add(
        {"cluster-ranks", "extension",
         "Cluster — every data-parallel rank simulated, in parallel "
         "on a thread pool",
         "The job's fate is set by the worst rank: one OOM kills "
         "it, lockstep makes the slowest rank set the pace",
         runClusterRanks});
    registry.add(
        {"serve-day", "extension",
         "Serving day — ~10⁷ paged KV-cache events streamed through "
         "gmlake vs caching vs native",
         "The EventSource cursor API replays generator workloads at "
         "full scale with flat host RSS; stitching absorbs the "
         "paged-block churn without the caching allocator's "
         "reserved-memory creep",
         runServeDay});
    registry.add(
        {"sweep-smoke", "extension",
         "Policy sweep — checkpoint/restore warm-started grid over "
         "GMLake knobs (smoke scale)",
         "One shared warmup prefix is replayed once and "
         "checkpointed; every sweep point restores it and replays "
         "only the divergent tail, bit-identical to re-replaying "
         "the whole run per point",
         runSweepSmoke});
    registry.add(
        {"vmm-designs", "extension",
         "Extension — VMM allocator designs: stitching vs "
         "expandable segments",
         "GMLake (ASPLOS'24) vs the PyTorch expandable_segments "
         "design it influenced, vs the classic caching allocator",
         runVmmDesigns});
}

} // namespace gmlake::sim
