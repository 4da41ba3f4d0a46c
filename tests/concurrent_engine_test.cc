/**
 * @file
 * Concurrent engine tests — the suite CI runs under ThreadSanitizer.
 *
 * Deterministic mode: staged parallel replays (full and partial
 * staging, pure and impure sources, OOM kills mid-stream) must be
 * field-identical to the serial engine, and a killed session's
 * generator must stop at exactly the serial consumption point (the
 * stage-gate property).
 */

#include <gtest/gtest.h>

#include <memory>

#include "alloc/caching_allocator.hh"
#include "sim/session.hh"
#include "support/units.hh"
#include "workload/generators.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;
using namespace gmlake::workload;

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity = 1_GiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    cfg.granularity = 2_MiB;
    return cfg;
}

/** A few iterations of alloc/compute/free churn on two streams. */
Trace
tenantTrace(Bytes unit, int iterations, Tick computeNs)
{
    TraceBuilder tb;
    for (int i = 0; i < iterations; ++i) {
        tb.iterationMark();
        const auto a = tb.alloc(unit, 1);
        const auto b = tb.alloc(unit / 2, 2);
        tb.compute(computeNs);
        const auto c = tb.alloc(unit / 4, 1);
        tb.streamSync(1);
        tb.free(a);
        tb.compute(computeNs / 2);
        tb.free(b);
        tb.free(c);
    }
    return tb.take();
}

EngineOptions
engineOptions(std::size_t threads)
{
    EngineOptions opts;
    opts.engineThreads = threads;
    return opts;
}

/** Run the three-tenant trace mix at a given engine configuration. */
MultiRunResult
runTenants(const std::vector<Trace> &traces, EngineOptions opts,
           Bytes capacity = 1_GiB)
{
    vmm::Device device(smallDevice(capacity));
    alloc::CachingAllocator allocator(device);
    SimEngine engine(allocator, device, opts);
    for (std::size_t i = 0; i < traces.size(); ++i) {
        engine.addSession(Session("tenant" + std::to_string(i),
                                  &traces[i],
                                  static_cast<Tick>(i) * 250'000));
    }
    return engine.run();
}

void
expectSameCombined(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.allocator, b.allocator);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.oomAt, b.oomAt);
    EXPECT_EQ(a.iterationsDone, b.iterationsDone);
    EXPECT_EQ(a.simTime, b.simTime);
    EXPECT_EQ(a.peakActive, b.peakActive);
    EXPECT_EQ(a.peakReserved, b.peakReserved);
    EXPECT_EQ(a.allocCount, b.allocCount);
    EXPECT_EQ(a.freeCount, b.freeCount);
    EXPECT_EQ(a.deviceApiTime, b.deviceApiTime);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_EQ(a.series[i].time, b.series[i].time);
        EXPECT_EQ(a.series[i].active, b.series[i].active);
        EXPECT_EQ(a.series[i].reserved, b.series[i].reserved);
    }
}

void
expectSameSessions(const MultiRunResult &a, const MultiRunResult &b)
{
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        const SessionResult &x = a.sessions[i];
        const SessionResult &y = b.sessions[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.oom, y.oom) << x.name;
        EXPECT_EQ(x.oomAt, y.oomAt) << x.name;
        EXPECT_EQ(x.iterationsDone, y.iterationsDone) << x.name;
        EXPECT_EQ(x.allocCount, y.allocCount) << x.name;
        EXPECT_EQ(x.freeCount, y.freeCount) << x.name;
        EXPECT_EQ(x.peakLiveBytes, y.peakLiveBytes) << x.name;
        EXPECT_EQ(x.endedAt, y.endedAt) << x.name;
        EXPECT_EQ(x.oomRequestedBytes, y.oomRequestedBytes) << x.name;
        EXPECT_EQ(x.oomLargestFree, y.oomLargestFree) << x.name;
        EXPECT_EQ(x.oomEvictableBytes, y.oomEvictableBytes) << x.name;
    }
}

} // namespace

TEST(ConcurrentEngine, StagedDeterministicMatchesSerial)
{
    const std::vector<Trace> traces = {
        tenantTrace(24_MiB, 6, 1'000'000),
        tenantTrace(40_MiB, 4, 700'000),
        tenantTrace(12_MiB, 8, 1'300'000),
    };
    const MultiRunResult serial =
        runTenants(traces, engineOptions(1));
    EXPECT_EQ(serial.combined.commitStallNs, 0u);

    // 2 threads = one stager + two serial cursors (partial staging),
    // 4 and 8 = every session staged.
    for (const std::size_t threads : {2u, 4u, 8u}) {
        const MultiRunResult staged =
            runTenants(traces, engineOptions(threads));
        expectSameCombined(serial.combined, staged.combined);
        expectSameSessions(serial, staged);
    }
}

TEST(ConcurrentEngine, StagedOomKillMatchesSerial)
{
    // Tenant 1's big working set cannot fit next to tenant 0's on a
    // 256 MiB device: it is OOM-killed and reclaimed while tenant 0
    // survives — the staged abort path must replay identically.
    const std::vector<Trace> traces = {
        tenantTrace(48_MiB, 6, 900'000),
        tenantTrace(160_MiB, 4, 1'100'000),
    };
    const MultiRunResult serial =
        runTenants(traces, engineOptions(1), 256_MiB);
    ASSERT_TRUE(serial.anyOom());

    const MultiRunResult staged =
        runTenants(traces, engineOptions(4), 256_MiB);
    expectSameCombined(serial.combined, staged.combined);
    expectSameSessions(serial, staged);
}

namespace
{

KvServeConfig
serveConfig(std::uint64_t seed)
{
    KvServeConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.maxBatch = 12;
    cfg.requests = 96;
    cfg.marksEveryRounds = 16;
    cfg.seed = seed;
    return cfg;
}

/**
 * Two impure KV-serve generators co-located; returns the engine
 * results plus each generator's progress counters after the run.
 */
std::pair<MultiRunResult, std::vector<KvServeCounters>>
runServePair(EngineOptions opts, Bytes capacity)
{
    vmm::Device device(smallDevice(capacity));
    alloc::CachingAllocator allocator(device);
    SimEngine engine(allocator, device, opts);
    std::vector<const KvServeSource *> sources;
    for (std::uint64_t seed : {7u, 1234u}) {
        auto src = std::make_unique<KvServeSource>(serveConfig(seed));
        sources.push_back(src.get());
        engine.addSession(Session("serve" + std::to_string(seed),
                                  std::move(src)));
    }
    MultiRunResult result = engine.run();
    std::vector<KvServeCounters> counters;
    for (const KvServeSource *src : sources)
        counters.push_back(src->counters());
    return {std::move(result), std::move(counters)};
}

void
expectSameCounters(const std::vector<KvServeCounters> &a,
                   const std::vector<KvServeCounters> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].emitted, b[i].emitted) << i;
        EXPECT_EQ(a[i].admitted, b[i].admitted) << i;
        EXPECT_EQ(a[i].served, b[i].served) << i;
        EXPECT_EQ(a[i].preempted, b[i].preempted) << i;
        EXPECT_EQ(a[i].prefixHits, b[i].prefixHits) << i;
        EXPECT_EQ(a[i].blockAllocs, b[i].blockAllocs) << i;
    }
}

} // namespace

TEST(ConcurrentEngine, ImpureGeneratorStagedMatchesSerial)
{
    const auto [serial, serialCounters] =
        runServePair(engineOptions(1), 2_GiB);
    const auto [staged, stagedCounters] =
        runServePair(engineOptions(4), 2_GiB);
    expectSameCombined(serial.combined, staged.combined);
    expectSameSessions(serial, staged);
    // Impure sources: the staged run must consume (and therefore
    // generate) exactly the serial prefix, nothing more.
    expectSameCounters(serialCounters, stagedCounters);
}

TEST(ConcurrentEngine, ImpureGeneratorOomGateStopsLookahead)
{
    // A device too small for the serving working sets: a tenant is
    // OOM-killed mid-stream. The stager's risky-event gate must stop
    // the generator at the serial kill point — any over-pull shows
    // up as diverging generator counters.
    const auto [serial, serialCounters] =
        runServePair(engineOptions(1), 192_MiB);
    ASSERT_TRUE(serial.anyOom());
    const auto [staged, stagedCounters] =
        runServePair(engineOptions(4), 192_MiB);
    expectSameCombined(serial.combined, staged.combined);
    expectSameSessions(serial, staged);
    expectSameCounters(serialCounters, stagedCounters);
}
