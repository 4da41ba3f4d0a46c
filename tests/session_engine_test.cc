/**
 * @file
 * Multi-session engine tests: namespace isolation between co-located
 * tenants, merged-timeline semantics, tenant-scoped OOM with memory
 * reclamation, equivalence of the static trace merge helpers with the
 * event-driven engine, and single-session equivalence with the
 * classic runTrace() wrapper.
 */

#include <gtest/gtest.h>

#include "alloc/caching_allocator.hh"
#include "alloc/native_allocator.hh"
#include "sim/session.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;
using namespace gmlake::workload;

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity = 256_MiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    cfg.granularity = 2_MiB;
    return cfg;
}

/** One iteration: hold two tensors across a compute, then free. */
Trace
tenantTrace(Bytes big = 30_MiB, Bytes small = 10_MiB,
            Tick computeNs = 1'000'000)
{
    TraceBuilder tb;
    tb.iterationMark();
    const auto a = tb.alloc(big, 1);
    const auto b = tb.alloc(small, 2);
    tb.compute(computeNs);
    tb.streamSync(1);
    tb.free(a);
    tb.free(b);
    return tb.take();
}

void
expectSameRun(const RunResult &a, const RunResult &b)
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

} // namespace

TEST(Session, SingleSessionMatchesRunTrace)
{
    TrainConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.strategies = Strategies::parse("LR");
    cfg.gpus = 2;
    cfg.batchSize = 4;
    cfg.iterations = 3;
    const Trace trace = generateTrainingTrace(cfg);

    vmm::Device devA(smallDevice(8_GiB));
    alloc::CachingAllocator allocA(devA);
    const RunResult legacy = runTrace(allocA, devA, trace, &cfg);

    vmm::Device devB(smallDevice(8_GiB));
    alloc::CachingAllocator allocB(devB);
    SimEngine engine(allocB, devB);
    engine.addSession(Session("main", &trace));
    const MultiRunResult multi = engine.run(&cfg);

    expectSameRun(legacy, multi.combined);
    EXPECT_DOUBLE_EQ(legacy.samplesPerSec,
                     multi.combined.samplesPerSec);
    ASSERT_EQ(multi.sessions.size(), 1u);
    EXPECT_EQ(multi.sessions[0].iterationsDone,
              legacy.iterationsDone);
}

TEST(Session, DisjointNamespacesNoCollision)
{
    // Two tenants whose traces use identical tensor ids and stream
    // ids replay side by side without clashing.
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    SimEngine engine(alloc, dev);
    engine.addSession(Session("a", tenantTrace()));
    engine.addSession(Session("b", tenantTrace()));
    const auto multi = engine.run();

    EXPECT_FALSE(multi.anyOom());
    ASSERT_EQ(multi.sessions.size(), 2u);
    for (const auto &s : multi.sessions) {
        EXPECT_EQ(s.allocCount, 2u);
        EXPECT_EQ(s.freeCount, 2u);
        EXPECT_EQ(s.iterationsDone, 1);
        EXPECT_EQ(s.peakLiveBytes, 40_MiB);
    }
    // Compute overlaps, so both tenants hold memory simultaneously.
    EXPECT_EQ(multi.combined.peakActive, 80_MiB);
    EXPECT_EQ(multi.combined.allocCount, 4u);
    EXPECT_EQ(multi.combined.freeCount, 4u);
    EXPECT_EQ(multi.combined.iterationsDone, 2);
}

TEST(Session, ConcurrentComputeDoesNotSerialize)
{
    // N tenants computing for T each cost ~T of merged time, not
    // N*T: compute overlaps, only allocator API time serializes.
    vmm::Device dev(smallDevice());
    alloc::NativeAllocator alloc(dev);
    SimEngine engine(alloc, dev);
    engine.addSession(Session("a", tenantTrace(4_MiB, 2_MiB,
                                               10'000'000)));
    engine.addSession(Session("b", tenantTrace(4_MiB, 2_MiB,
                                               10'000'000)));
    const auto multi = engine.run();
    EXPECT_GE(multi.combined.simTime, 10'000'000);
    EXPECT_LT(multi.combined.simTime,
              20'000'000 + multi.combined.deviceApiTime);
}

TEST(Session, OomKillsOnlyThatTenantAndReclaims)
{
    vmm::Device dev(smallDevice(64_MiB));
    alloc::NativeAllocator alloc(dev);

    // Tenant a: take 40 MiB, then ask for another 40 MiB -> dies.
    TraceBuilder a;
    a.iterationMark();
    (void)a.alloc(40_MiB);
    a.compute(1'000'000);
    (void)a.alloc(40_MiB);

    // Tenant b arrives later and needs the memory a's death frees.
    TraceBuilder b;
    b.iterationMark();
    const auto t = b.alloc(48_MiB);
    b.free(t);

    SimEngine engine(alloc, dev);
    engine.addSession(Session("a", a.take()));
    engine.addSession(Session("b", b.take(), Tick{2'000'000}));
    const auto multi = engine.run();

    const auto *ra = multi.find("a");
    const auto *rb = multi.find("b");
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_TRUE(ra->oom);
    EXPECT_EQ(ra->iterationsDone, 0); // died mid-iteration
    EXPECT_FALSE(rb->oom);
    EXPECT_EQ(rb->allocCount, 1u);
    EXPECT_TRUE(multi.combined.oom);
    EXPECT_TRUE(multi.anyOom());
    // a's 40 MiB was reclaimed on death: the allocator saw that free
    // plus b's own.
    EXPECT_EQ(multi.combined.freeCount, 2u);
}

TEST(Session, SingleSessionOomLeavesMemoryLikeLegacy)
{
    // With nobody left to benefit, a dying lone session keeps its
    // allocations — exactly the historical runTrace() behaviour.
    vmm::Device dev(smallDevice(64_MiB));
    alloc::NativeAllocator alloc(dev);
    TraceBuilder tb;
    tb.iterationMark();
    (void)tb.alloc(40_MiB);
    (void)tb.alloc(40_MiB);
    SimEngine engine(alloc, dev);
    engine.addSession(Session("only", tb.take()));
    const auto multi = engine.run();
    EXPECT_TRUE(multi.combined.oom);
    EXPECT_EQ(multi.combined.freeCount, 0u);
}

TEST(Session, StartTimeStaggersArrival)
{
    vmm::Device dev(smallDevice());
    alloc::NativeAllocator alloc(dev);
    SimEngine engine(alloc, dev);
    engine.addSession(Session("early", tenantTrace()));
    engine.addSession(Session("late", tenantTrace(),
                              Tick{50'000'000}));
    const auto multi = engine.run();
    EXPECT_FALSE(multi.anyOom());
    const auto *late = multi.find("late");
    ASSERT_NE(late, nullptr);
    EXPECT_GE(late->endedAt, 50'000'000);
    // The early tenant is long gone before the late one starts.
    EXPECT_EQ(multi.combined.peakActive, 40_MiB);
}

TEST(Session, DeterministicAcrossRuns)
{
    auto runOnce = [] {
        vmm::Device dev(smallDevice());
        alloc::CachingAllocator alloc(dev);
        SimEngine engine(alloc, dev);
        engine.addSession(Session("a", tenantTrace(30_MiB, 10_MiB)));
        engine.addSession(Session("b", tenantTrace(20_MiB, 6_MiB)));
        return engine.run();
    };
    const auto first = runOnce();
    const auto second = runOnce();
    expectSameRun(first.combined, second.combined);
    ASSERT_EQ(first.sessions.size(), second.sessions.size());
    for (std::size_t i = 0; i < first.sessions.size(); ++i) {
        EXPECT_EQ(first.sessions[i].endedAt,
                  second.sessions[i].endedAt);
        EXPECT_EQ(first.sessions[i].peakLiveBytes,
                  second.sessions[i].peakLiveBytes);
    }
}

TEST(Session, EngineThreadsIsIgnoredAndNothingStalls)
{
    // The calling thread replays every run alone: the retired
    // engineThreads option changes nothing (and must not assert),
    // and no run reports a commit stall.
    auto runAt = [](std::size_t threads) {
        vmm::Device dev(smallDevice());
        alloc::CachingAllocator alloc(dev);
        EngineOptions options;
        options.engineThreads = threads;
        SimEngine engine(alloc, dev, options);
        engine.addSession(Session("a", tenantTrace(30_MiB, 10_MiB)));
        engine.addSession(Session("b", tenantTrace(20_MiB, 6_MiB)));
        return engine.run();
    };
    const auto serial = runAt(1);
    EXPECT_EQ(serial.combined.commitStallNs, 0u);
    for (const std::size_t threads : {0u, 4u}) {
        const auto other = runAt(threads);
        expectSameRun(serial.combined, other.combined);
        EXPECT_EQ(other.combined.commitStallNs, 0u);
    }
}

TEST(Session, StaticMergeMatchesEngine)
{
    const Trace traceA = tenantTrace(30_MiB, 10_MiB, 2'000'000);
    const Trace traceB = tenantTrace(20_MiB, 6_MiB, 3'000'000);

    // Engine path: two sessions, automatic namespaces.
    vmm::Device devE(smallDevice());
    alloc::CachingAllocator allocE(devE);
    SimEngine engine(allocE, devE);
    engine.addSession(Session("a", &traceA));
    engine.addSession(Session("b", &traceB));
    const auto multi = engine.run();

    // Static path: remap trace b into session 1's namespace by hand,
    // merge, replay the single merged trace.
    TraceNamespace ns;
    ns.tensorOffset = 1'000'000;
    ns.streamOffset = kSessionStreamStride;
    const Trace remapped = remapTrace(traceB, ns);
    const Trace merged = mergeTraces({&traceA, &remapped});

    vmm::Device devM(smallDevice());
    alloc::CachingAllocator allocM(devM);
    const auto flat = runTrace(allocM, devM, merged);

    EXPECT_EQ(flat.peakActive, multi.combined.peakActive);
    EXPECT_EQ(flat.peakReserved, multi.combined.peakReserved);
    EXPECT_EQ(flat.allocCount, multi.combined.allocCount);
    EXPECT_EQ(flat.freeCount, multi.combined.freeCount);
    EXPECT_EQ(flat.simTime, multi.combined.simTime);
    EXPECT_EQ(flat.iterationsDone, multi.combined.iterationsDone);
}

TEST(Session, StaticMergeMatchesEngineOnGeneratedTraces)
{
    // Real training traces carry device-wide syncs (kAnyStream);
    // mergeTraces must tenant-scope them exactly like the engine.
    TrainConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.strategies = Strategies::parse("LR");
    cfg.gpus = 2;
    cfg.batchSize = 4;
    cfg.iterations = 2;
    const Trace traceA = generateTrainingTrace(cfg);
    cfg.seed = deriveSeed(cfg.seed, 1);
    const Trace traceB = generateTrainingTrace(cfg);

    vmm::Device devE(smallDevice(16_GiB));
    alloc::CachingAllocator allocE(devE);
    SimEngine engine(allocE, devE);
    engine.addSession(Session("a", &traceA));
    engine.addSession(Session("b", &traceB));
    const auto multi = engine.run();
    EXPECT_FALSE(multi.anyOom());

    TraceNamespace ns;
    ns.tensorOffset = 10'000'000;
    ns.streamOffset = kSessionStreamStride;
    const Trace remapped = remapTrace(traceB, ns);
    const Trace merged = mergeTraces({&traceA, &remapped});

    vmm::Device devM(smallDevice(16_GiB));
    alloc::CachingAllocator allocM(devM);
    const auto flat = runTrace(allocM, devM, merged);

    EXPECT_EQ(flat.peakActive, multi.combined.peakActive);
    EXPECT_EQ(flat.peakReserved, multi.combined.peakReserved);
    EXPECT_EQ(flat.allocCount, multi.combined.allocCount);
    EXPECT_EQ(flat.freeCount, multi.combined.freeCount);
    EXPECT_EQ(flat.simTime, multi.combined.simTime);
    EXPECT_EQ(flat.deviceApiTime, multi.combined.deviceApiTime);
}

TEST(Session, RemapHelpersOffsetIdsAndKeepSentinels)
{
    TraceBuilder tb;
    const auto t = tb.alloc(1_MiB, 3);
    tb.streamSync(3);
    tb.streamSync(kAnyStream);
    tb.free(t);
    const Trace trace = tb.take();

    TraceNamespace ns;
    ns.tensorOffset = 500;
    ns.streamOffset = 100;
    const Trace out = remapTrace(trace, ns);
    ASSERT_EQ(out.size(), trace.size());
    EXPECT_EQ(out.events()[0].tensor, t + 500);
    EXPECT_EQ(out.events()[0].stream, 103u);
    EXPECT_EQ(out.events()[1].stream, 103u);
    EXPECT_EQ(out.events()[2].stream, kAnyStream);
    EXPECT_EQ(out.events()[3].tensor, t + 500);
    // Stats survive the remap.
    EXPECT_EQ(out.stats().allocCount, trace.stats().allocCount);
    EXPECT_EQ(out.stats().totalAllocBytes,
              trace.stats().totalAllocBytes);
}
