/**
 * @file
 * Tooling example: record a training allocation trace to a file,
 * reload it, and replay it against any allocator.
 *
 * Traces are allocator-agnostic request streams, so a single recorded
 * workload can be replayed under different allocator configurations —
 * the workflow used to tune GMLake's knobs offline.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/runner.hh"
#include "support/strings.hh"
#include "workload/tracegen.hh"

using namespace gmlake;

int
main()
{
    // 1. Generate a workload trace and record it.
    workload::TrainConfig cfg;
    cfg.model = workload::findModel("GPT-2");
    cfg.platform = workload::Platform::colossalAi;
    cfg.strategies = workload::Strategies::parse("R");
    cfg.gpus = 4;
    cfg.batchSize = 32;
    cfg.iterations = 5;

    const auto recorded = workload::generateTrainingTrace(cfg);
    const char *path = "gpt2_cai.trace";
    {
        std::ofstream out(path);
        recorded.save(out);
    }
    std::cout << "recorded " << recorded.size() << " events ("
              << recorded.stats().allocCount << " allocations, avg "
              << formatBytes(static_cast<Bytes>(
                     recorded.stats().avgAllocBytes()))
              << ") to " << path << "\n";

    // 2. Load it back and verify it round-trips.
    std::ifstream in(path);
    const auto loaded = workload::Trace::load(in);
    std::cout << "reloaded " << loaded.size() << " events\n\n";

    // 3. Replay under each allocator.
    for (const auto kind :
         {sim::AllocatorKind::caching, sim::AllocatorKind::gmlake}) {
        sim::Rig rig(kind);
        const auto r =
            rig.run({sim::Session("main", &loaded)}, &cfg).combined;
        std::cout << "  " << r.allocator << ": utilization "
                  << formatPercent(r.utilization) << ", reserved "
                  << formatBytes(r.peakReserved)
                  << (r.oom ? " [OOM]" : "") << "\n";
    }
    return 0;
}
