/**
 * @file
 * google-benchmark microbenchmarks of the allocator implementations'
 * host-side data-structure costs: allocate/deallocate round trips,
 * pool-search scaling, and BestFit over growing pools. These measure
 * real wall-clock time of the bookkeeping code (the simulated device
 * latencies are separate: `gmlake_sim run table1` and `run fig6`).
 * Two more time the layers around the allocator on the benchmark
 * suite's serve-fleet shape: the paged-KV generator's pull and the
 * engine's merge loop, each in ns per event.
 *
 * benchmark::DoNotOptimize gets non-const lvalues or temporaries:
 * google-benchmark 1.8 deprecates its const-reference overload, and
 * this target builds with -Werror.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc/caching_allocator.hh"
#include "core/best_fit.hh"
#include "core/gmlake_allocator.hh"
#include "sim/session.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "vmm/device.hh"
#include "workload/generators.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;

namespace
{

vmm::DeviceConfig
bigDevice()
{
    vmm::DeviceConfig cfg;
    cfg.capacity = 64_GiB;
    return cfg;
}

void
BM_CachingAllocateFree(benchmark::State &state)
{
    vmm::Device dev(bigDevice());
    alloc::CachingAllocator allocator(dev);
    const Bytes size = static_cast<Bytes>(state.range(0));
    // Warm the pool so the loop measures cache hits.
    const auto warm = allocator.allocate(size);
    (void)allocator.deallocate(warm->id);
    for (auto _ : state) {
        auto a = allocator.allocate(size);
        benchmark::DoNotOptimize(a.value().addr);
        (void)allocator.deallocate(a->id);
    }
}
BENCHMARK(BM_CachingAllocateFree)->Arg(4096)->Arg(2_MiB)->Arg(64_MiB);

void
BM_GmlakeAllocateFree(benchmark::State &state)
{
    vmm::Device dev(bigDevice());
    core::GMLakeAllocator allocator(dev);
    const Bytes size = static_cast<Bytes>(state.range(0));
    const auto warm = allocator.allocate(size);
    (void)allocator.deallocate(warm->id);
    for (auto _ : state) {
        auto a = allocator.allocate(size);
        benchmark::DoNotOptimize(a.value().addr);
        (void)allocator.deallocate(a->id);
    }
}
BENCHMARK(BM_GmlakeAllocateFree)->Arg(4096)->Arg(2_MiB)->Arg(64_MiB);

void
BM_GmlakeExactHitDeepPool(benchmark::State &state)
{
    // S1 hits against N equal-size inactive pBlocks freed on three
    // streams. Requests rotate over the streams, so each hit passes
    // the blocks the other streams freed within the event lag; the
    // cost of a hit must not grow with the pool.
    vmm::Device dev(bigDevice());
    core::GMLakeAllocator allocator(dev);
    const auto blocks = static_cast<std::size_t>(state.range(0));
    constexpr StreamId kStreams = 3;
    std::vector<alloc::AllocId> ids;
    ids.reserve(blocks);
    for (std::size_t i = 0; i < blocks; ++i) {
        const auto stream = static_cast<StreamId>(1 + i % kStreams);
        ids.push_back(allocator.allocate(8_MiB, stream).value().id);
    }
    for (const alloc::AllocId id : ids)
        (void)allocator.deallocate(id);

    StreamId s = 0;
    for (auto _ : state) {
        auto a = allocator.allocate(8_MiB, 1 + s);
        benchmark::DoNotOptimize(a.value().addr);
        (void)allocator.deallocate(a->id);
        s = (s + 1) % kStreams;
    }
    state.counters["blocks"] = static_cast<double>(blocks);
    state.counters["s1_hits"] =
        static_cast<double>(allocator.strategy().s1ExactMatch);
}
BENCHMARK(BM_GmlakeExactHitDeepPool)->Arg(64)->Arg(512)->Arg(4096);

void
BM_GmlakeStitchPath(benchmark::State &state)
{
    // Force the S3 stitch path every iteration: two cached fragments
    // serve one double-size request, which is then torn back down.
    vmm::Device dev(bigDevice());
    core::GMLakeConfig gc;
    gc.restitchOnSplit = false;
    gc.maxCachedSBlocks = 0; // evict before every search: always re-stitch
    core::GMLakeAllocator allocator(dev, gc);

    const auto a = allocator.allocate(16_MiB);
    const auto spacer = allocator.allocate(2_MiB);
    const auto b = allocator.allocate(16_MiB);
    (void)spacer;
    (void)allocator.deallocate(a->id);
    (void)allocator.deallocate(b->id);

    for (auto _ : state) {
        auto big = allocator.allocate(32_MiB);
        benchmark::DoNotOptimize(big.value().addr);
        (void)allocator.deallocate(big->id);
    }
    const std::uint64_t stitches = allocator.strategy().stitches;
    state.counters["stitches"] = static_cast<double>(stitches);
    if (stitches < static_cast<std::uint64_t>(state.iterations()))
        state.SkipWithError("an iteration did not stitch");
}
BENCHMARK(BM_GmlakeStitchPath);

void
BM_GmlakeSBlockHit(benchmark::State &state)
{
    // S1 hit + free of one cached sBlock of k 2 MiB members beside
    // 512 other inactive pBlocks: the hit takes the sBlock and its
    // members out of the inactive pools, the free puts them back.
    vmm::Device dev(bigDevice());
    core::GMLakeAllocator allocator(dev);
    const auto members = static_cast<std::size_t>(state.range(0));
    const Bytes size = members * 2_MiB;

    // The bystanders stay live while the members are stitched, so the
    // stitch takes exactly the members; 6 MiB keeps them out of every
    // S1 window the benchmark asks for.
    std::vector<alloc::AllocId> bystanders;
    for (int i = 0; i < 512; ++i)
        bystanders.push_back(allocator.allocate(6_MiB).value().id);
    std::vector<alloc::AllocId> parts;
    for (std::size_t i = 0; i < members; ++i)
        parts.push_back(allocator.allocate(2_MiB).value().id);
    for (const alloc::AllocId id : parts)
        (void)allocator.deallocate(id);
    (void)allocator.deallocate(allocator.allocate(size).value().id);
    for (const alloc::AllocId id : bystanders)
        (void)allocator.deallocate(id);

    const std::uint64_t hitsBefore = allocator.strategy().s1ExactMatch;
    for (auto _ : state) {
        auto a = allocator.allocate(size);
        benchmark::DoNotOptimize(a.value().addr);
        (void)allocator.deallocate(a->id);
    }
    const std::uint64_t hits =
        allocator.strategy().s1ExactMatch - hitsBefore;
    state.counters["members"] = static_cast<double>(members);
    state.counters["pool"] =
        static_cast<double>(allocator.inactivePBlockCount());
    if (hits < static_cast<std::uint64_t>(state.iterations()) ||
        allocator.strategy().stitches != 1)
        state.SkipWithError("an iteration was not an sBlock S1 hit");
}
BENCHMARK(BM_GmlakeSBlockHit)->Arg(2)->Arg(16)->Arg(128);

/** A pBlock stand-in for BM_BestFitScaling's pool. */
struct SizedBlock
{
    Bytes size;
    std::size_t id;
};

/** The allocator's pool order: size descending, then id. */
struct SizedBlockCmp
{
    using is_transparent = void;

    bool
    operator()(const SizedBlock *a, const SizedBlock *b) const
    {
        return a->size != b->size ? a->size > b->size : a->id < b->id;
    }
    bool operator()(const SizedBlock *a, Bytes size) const
    {
        return a->size > size;
    }
    bool operator()(Bytes size, const SizedBlock *a) const
    {
        return size > a->size;
    }
};

void
BM_BestFitScaling(benchmark::State &state)
{
    // BestFit over an inactive pool of the given size. The request
    // exceeds the pool's total, so S2 finds nothing and S3 walks
    // every block.
    Rng rng(42);
    std::vector<SizedBlock> blocks;
    Bytes total = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0));
         ++i) {
        blocks.push_back({2_MiB * rng.uniformInt(1, 256), i});
        total += blocks.back().size;
    }
    std::set<const SizedBlock *, SizedBlockCmp> pool;
    for (const SizedBlock &b : blocks)
        pool.insert(&b);
    std::vector<const SizedBlock *> candidates;
    for (auto _ : state) {
        auto r = core::bestFitOverPools(
            total + 2_MiB, pool, 0,
            [](const SizedBlock *) { return true; }, candidates);
        benchmark::DoNotOptimize(r.candidateBytes);
    }
}
BENCHMARK(BM_BestFitScaling)->Arg(64)->Arg(512)->Arg(4096);

void
BM_MappingsInScratch(benchmark::State &state)
{
    // Range queries over a deeply chunked mapping table: the
    // caller-provided scratch overload performs no allocation per
    // call, unlike the returning overload it replaced on the
    // device's hot paths.
    vmm::Device dev(bigDevice());
    const std::size_t chunks = static_cast<std::size_t>(state.range(0));
    const auto va = dev.memAddressReserve(chunks * 2_MiB);
    for (std::size_t i = 0; i < chunks; ++i) {
        const auto h = dev.memCreate(2_MiB);
        (void)dev.memMap(*va + static_cast<VirtAddr>(i) * 2_MiB, *h);
    }
    (void)dev.memSetAccess(*va, chunks * 2_MiB);

    std::vector<vmm::MappingTable::Entry> scratch;
    for (auto _ : state) {
        dev.mappings().mappingsIn(*va, chunks * 2_MiB, scratch);
        benchmark::DoNotOptimize(scratch.size());
    }
    state.counters["chunks"] = static_cast<double>(chunks);
}
BENCHMARK(BM_MappingsInScratch)->Arg(16)->Arg(256)->Arg(1024);

void
BM_CachingMultiStreamHit(benchmark::State &state)
{
    // Cache-hit allocate/free churn rotating over N streams: each
    // request walks the per-stream free sets of the pool, so the cost
    // grows with the number of stream tags holding cached blocks.
    vmm::Device dev(bigDevice());
    alloc::CachingAllocator allocator(dev);
    const StreamId streams = static_cast<StreamId>(state.range(0));
    // Warm one cached block per stream so the loop never maps.
    for (StreamId s = 0; s < streams; ++s) {
        const auto warm = allocator.allocate(2_MiB, s);
        (void)allocator.deallocate(warm->id);
    }
    StreamId s = 0;
    for (auto _ : state) {
        auto a = allocator.allocate(2_MiB, s);
        benchmark::DoNotOptimize(a.value().addr);
        (void)allocator.deallocate(a->id);
        s = (s + 1) % streams;
    }
    state.counters["streams"] = static_cast<double>(streams);
}
BENCHMARK(BM_CachingMultiStreamHit)->Arg(1)->Arg(4)->Arg(16);

void
BM_DeviceStitchTeardown(benchmark::State &state)
{
    // The device side of a stitch and its teardown: one batched map,
    // the setAccess every stitch pays, and one unmap of an
    // sBlock-shaped range. Each chunk costs one slot lookup and one
    // append; the whole-range setAccess and unmap are O(extents).
    vmm::Device dev(bigDevice());
    const std::size_t chunks = static_cast<std::size_t>(state.range(0));
    std::vector<PhysHandle> handles;
    for (std::size_t i = 0; i < chunks; ++i)
        handles.push_back(*dev.memCreate(2_MiB));
    const auto va = dev.memAddressReserve(chunks * 2_MiB);
    std::vector<std::pair<VirtAddr, PhysHandle>> batch(chunks);
    bool failed = false;
    for (auto _ : state) {
        for (std::size_t i = 0; i < chunks; ++i) {
            batch[i] = {*va + static_cast<VirtAddr>(i) * 2_MiB,
                        handles[i]};
        }
        failed |= !dev.memMapBatch(batch).ok();
        failed |= !dev.memSetAccess(*va, chunks * 2_MiB).ok();
        failed |= !dev.memUnmap(*va, chunks * 2_MiB).ok();
        benchmark::DoNotOptimize(failed);
    }
    state.counters["chunks"] = static_cast<double>(chunks);
    if (failed)
        state.SkipWithError("a device call failed");
}
BENCHMARK(BM_DeviceStitchTeardown)->Arg(64)->Arg(1024);

void
BM_DeviceChunkRun(benchmark::State &state)
{
    // Build and tear down an N-chunk pBlock-shaped block through the
    // chunk runs: one create+map run, setAccess, one unmap, one
    // release run. The simulated cost is still charged per chunk.
    vmm::Device dev(bigDevice());
    const std::size_t chunks = static_cast<std::size_t>(state.range(0));
    const auto va = dev.memAddressReserve(chunks * 2_MiB);
    std::vector<PhysHandle> handles(chunks);
    bool failed = false;
    for (auto _ : state) {
        failed |= !dev.memCreateMapRun(*va, 2_MiB, handles).ok();
        failed |= !dev.memSetAccess(*va, chunks * 2_MiB).ok();
        failed |= !dev.memUnmap(*va, chunks * 2_MiB).ok();
        failed |= !dev.memReleaseRun(handles).ok();
        benchmark::DoNotOptimize(failed);
    }
    state.counters["chunks"] = static_cast<double>(chunks);
    if (failed)
        state.SkipWithError("a device call failed");
}
BENCHMARK(BM_DeviceChunkRun)->Arg(8)->Arg(64)->Arg(512);

void
BM_TraceGeneration(benchmark::State &state)
{
    workload::TrainConfig cfg;
    cfg.model = workload::findModel("OPT-13B");
    cfg.strategies = workload::Strategies::parse("LR");
    cfg.gpus = 4;
    cfg.batchSize = 16;
    cfg.iterations = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto trace = workload::generateTrainingTrace(cfg);
        benchmark::DoNotOptimize(trace.size());
    }
}
BENCHMARK(BM_TraceGeneration)->Arg(1)->Arg(8);

/** One serving tenant as bench/suite's serve-fleet generates it. */
workload::KvServeConfig
serveFleetTenant(std::uint64_t tenant)
{
    workload::KvServeConfig cfg;
    cfg.model = workload::findModel("OPT-1.3B");
    cfg.maxBatch = 48;
    cfg.requests = 1'000;
    cfg.medianPromptTokens = 384;
    cfg.meanGenerateTokens = 160;
    cfg.maxContextTokens = 4096;
    cfg.blockTokens = 64;
    cfg.seed = deriveSeed(42, tenant);
    return cfg;
}

/**
 * Host time per event over every iteration: seconds in the JSON
 * output, shown with an SI prefix (e.g. "15.4ns") on the console.
 */
benchmark::Counter
timePerEvent(std::uint64_t events)
{
    return benchmark::Counter(static_cast<double>(events),
                              benchmark::Counter::kIsRate |
                                  benchmark::Counter::kInvert);
}

void
BM_KvServePull(benchmark::State &state)
{
    // The generator alone: drain one tenant's stream through
    // peek()/advance(), the calls the engine makes per event.
    workload::KvServeSource source(serveFleetTenant(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        source.reset();
        while (const workload::Event *e = source.peek()) {
            benchmark::DoNotOptimize(e);
            source.advance();
        }
        events += source.counters().emitted;
    }
    state.counters["time_per_event"] = timePerEvent(events);
}
BENCHMARK(BM_KvServePull)->Unit(benchmark::kMillisecond);

void
BM_EngineServeReplay(benchmark::State &state)
{
    // The engine's merge loop with the generator under it: three
    // tenants staggered 50 ms apart on a 24 GiB device, as one
    // serve-fleet row, on the caching allocator. Fails if a tenant
    // dies or leaks.
    std::uint64_t events = 0;
    bool failed = false;
    for (auto _ : state) {
        vmm::DeviceConfig deviceCfg;
        deviceCfg.capacity = 24_GiB;
        vmm::Device dev(deviceCfg);
        alloc::CachingAllocator allocator(dev);
        sim::EngineOptions options;
        options.recordSeries = false;
        sim::SimEngine engine(allocator, dev, options);
        std::vector<std::shared_ptr<workload::KvServeSource>> sources;
        for (std::uint64_t t = 0; t < 3; ++t) {
            sources.push_back(std::make_shared<workload::KvServeSource>(
                serveFleetTenant(t)));
            engine.addSession(sim::Session(
                "serve" + std::to_string(t), sources.back(),
                static_cast<Tick>(t) * Tick{50'000'000}));
        }
        const sim::MultiRunResult multi = engine.run();
        for (const auto &source : sources)
            events += source->counters().emitted;
        for (const sim::SessionResult &s : multi.sessions)
            failed |= s.oom || s.aborted || s.allocCount != s.freeCount;
        benchmark::DoNotOptimize(failed);
    }
    state.counters["time_per_event"] = timePerEvent(events);
    if (failed)
        state.SkipWithError("a tenant died or leaked");
}
BENCHMARK(BM_EngineServeReplay)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
