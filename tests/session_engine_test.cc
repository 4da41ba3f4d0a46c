/**
 * @file
 * Multi-session engine tests: namespace isolation between co-located
 * tenants, merged-timeline semantics, tenant-scoped OOM with memory
 * reclamation, scripted kills, injected-fault aborts (and the panic
 * on any other allocator error), equivalence of the static trace merge
 * helpers with the event-driven engine, single-session equivalence
 * with the classic runTrace() wrapper, and pinned digests of every
 * per-session result of three multi-tenant mixes.
 *
 * Re-record the pins after an *intentional* change to the replay
 * order or to a SessionResult with:
 *
 *   GMLAKE_PRINT_DIGESTS=1 ./session_engine_test
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>

#include "alloc/caching_allocator.hh"
#include "alloc/expandable_allocator.hh"
#include "alloc/native_allocator.hh"
#include "sim/runner.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/rng.hh"
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
smallDevice(Bytes capacity = 256_MiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
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

/**
 * Word-wise FNV-1a over every SessionResult field and every
 * deterministic field of the combined run (wall-clock fields left
 * out), the memory series included.
 */
std::uint64_t
digestOf(const MultiRunResult &multi)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](auto v) {
        std::uint64_t word = 0;
        if constexpr (std::is_floating_point_v<decltype(v)>)
            std::memcpy(&word, &v, sizeof v);
        else
            word = static_cast<std::uint64_t>(v);
        h = (h ^ word) * 0x100000001b3ULL;
    };
    auto mixText = [&mix](const std::string &text) {
        mix(text.size());
        for (const char c : text)
            mix(static_cast<unsigned char>(c));
    };
    mix(multi.sessions.size());
    for (const SessionResult &s : multi.sessions) {
        mixText(s.name);
        mix(s.oom);
        mix(s.oomAt);
        mix(s.aborted);
        mix(s.iterationsDone);
        mix(s.allocCount);
        mix(s.freeCount);
        mix(s.peakLiveBytes);
        mix(s.endedAt);
        mix(s.evictedBytes);
        mix(s.faultedBytes);
        mix(s.oomRequestedBytes);
        mix(s.oomLargestFree);
        mix(s.oomEvictableBytes);
    }
    const RunResult &r = multi.combined;
    mixText(r.allocator);
    mix(r.oom);
    mix(r.oomAt);
    mix(r.iterationsDone);
    mix(r.simTime);
    mix(r.peakActive);
    mix(r.peakReserved);
    mix(r.utilization);
    mix(r.fragmentation);
    mix(r.samplesPerSec);
    mix(r.allocCount);
    mix(r.freeCount);
    mix(r.deviceApiTime);
    mix(r.evictedBytes);
    mix(r.faultedBytes);
    mix(r.stallNs);
    mix(r.injectedFaults);
    mix(r.recovered);
    mix(r.rollbacks);
    mix(r.abortedSessions);
    mix(r.series.size());
    for (const SamplePoint &p : r.series) {
        mix(p.time);
        mix(p.active);
        mix(p.reserved);
    }
    return h;
}

bool
printDigests()
{
    const char *env = std::getenv("GMLAKE_PRINT_DIGESTS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** A small paged-KV serving tenant (OPT-1.3B, 12 MiB blocks). */
std::shared_ptr<KvServeSource>
kvTenant(std::uint64_t seed, int maxBatch, std::uint64_t requests,
         int prefixPoolBlocks = 48)
{
    KvServeConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.maxBatch = maxBatch;
    cfg.requests = requests;
    cfg.prefixPoolBlocks = prefixPoolBlocks;
    cfg.seed = seed;
    return std::make_shared<KvServeSource>(cfg);
}

/**
 * @p iterations rounds of alloc, compute, free, and a final compute
 * of @p tailNs, so the session's last event is compute.
 */
Trace
computeTailTrace(int iterations, Bytes bytes, Tick computeNs,
                 Tick tailNs)
{
    TraceBuilder tb;
    for (int i = 0; i < iterations; ++i) {
        tb.iterationMark();
        const auto a = tb.alloc(bytes, 1);
        const auto b = tb.alloc(bytes / 2, 2);
        tb.compute(computeNs);
        tb.free(a);
        tb.streamSync(1);
        tb.free(b);
    }
    tb.compute(tailNs);
    return tb.take();
}

/**
 * A tenant that takes @p steps allocations of @p bytes, one per
 * millisecond of compute, and frees nothing until the end.
 */
Trace
hogTrace(int steps, Bytes bytes)
{
    TraceBuilder tb;
    tb.iterationMark();
    std::vector<TensorId> held;
    for (int i = 0; i < steps; ++i) {
        held.push_back(tb.alloc(bytes, 1));
        tb.compute(1'000'000);
    }
    for (const TensorId t : held)
        tb.free(t);
    return tb.take();
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

TEST(Session, ScriptedKillAtZeroFiresBeforeTheFirstEvent)
{
    // Each tenant runs 4 x (alloc 4 MiB, compute 1 ms, free).
    const auto trace = [] {
        TraceBuilder tb;
        for (int i = 0; i < 4; ++i) {
            const auto t = tb.alloc(4_MiB, 1);
            tb.compute(1'000'000);
            tb.free(t);
        }
        return tb.take();
    };
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    EngineOptions options;
    options.tenantKills = {{0, 0}};
    SimEngine engine(alloc, dev, options);
    engine.addSession(Session("a", trace()));
    engine.addSession(Session("b", trace()));
    const auto multi = engine.run();

    const auto *ra = multi.find("a");
    const auto *rb = multi.find("b");
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_TRUE(ra->aborted);
    EXPECT_EQ(ra->allocCount, 0u);
    EXPECT_FALSE(rb->aborted);
    EXPECT_EQ(rb->allocCount, 4u);
    EXPECT_EQ(multi.combined.abortedSessions, 1u);
}

TEST(Session, InjectedFaultAbortsOnlyThatTenant)
{
    // The expandable allocator passes a failed access grant up as
    // Errc::faultInjected once its trim-and-retry fails as well, so
    // tenant a's first allocation, which hits both injected
    // failures, aborts a; b arrives later and replays on. No engine
    // option asks for this: an injected fault always aborts.
    vmm::Device dev(smallDevice());
    alloc::ExpandableSegmentsAllocator alloc(dev);
    dev.installFaultInjector(vmm::FaultPlan::parse("setaccess:n=1,n=2"),
                             1);
    SimEngine engine(alloc, dev);
    engine.addSession(Session("a", tenantTrace()));
    engine.addSession(Session("b", tenantTrace(), Tick{10'000'000}));
    const auto multi = engine.run();

    const auto *ra = multi.find("a");
    const auto *rb = multi.find("b");
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_TRUE(ra->aborted);
    EXPECT_EQ(ra->allocCount, 0u);
    EXPECT_FALSE(rb->aborted);
    EXPECT_EQ(rb->allocCount, 2u);
    EXPECT_EQ(rb->freeCount, 2u);
    EXPECT_FALSE(multi.anyOom());
    EXPECT_EQ(multi.combined.abortedSessions, 1u);
    EXPECT_EQ(multi.combined.injectedFaults, 2u);
}

TEST(Session, AllocatorBugPanicsTheRun)
{
    // A non-OOM error that no fault plan injected is an allocator
    // bug: the engine panics rather than report an aborted tenant.
    class DoubleMapAllocator : public alloc::NativeAllocator
    {
      public:
        using alloc::NativeAllocator::NativeAllocator;
        using alloc::Allocator::allocate;
        Expected<alloc::Allocation>
        allocate(Bytes, StreamId) override
        {
            return makeError(Errc::alreadyMapped, "VA mapped twice");
        }
    };
    vmm::Device dev(smallDevice());
    DoubleMapAllocator alloc(dev);
    SimEngine engine(alloc, dev);
    engine.addSession(Session("a", tenantTrace()));
    engine.addSession(Session("b", tenantTrace()));
    EXPECT_THROW(engine.run(), PanicError);
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

TEST(Session, MultiTenantResultsArePinned)
{
    // Pins recorded with GMLAKE_PRINT_DIGESTS=1 (see file header).
    auto check = [](const char *name, const MultiRunResult &multi,
                    std::uint64_t pinned) {
        const std::uint64_t got = digestOf(multi);
        if (printDigests())
            std::printf("%s: 0x%016llxULL\n", name,
                        static_cast<unsigned long long>(got));
        EXPECT_EQ(got, pinned)
            << "per-session results of mix '" << name << "' changed";
    };

    {
        // Equal start times and, for the first two tenants, one
        // seed: their keys tie at every compute, so the replay order
        // rests on the session-index tie-break.
        vmm::Device dev(smallDevice(8_GiB));
        alloc::CachingAllocator alloc(dev);
        SimEngine engine(alloc, dev);
        engine.addSession(Session("kv0", kvTenant(7, 6, 24)));
        engine.addSession(Session("kv1", kvTenant(7, 6, 24)));
        engine.addSession(Session("kv2", kvTenant(8, 6, 24)));
        const auto multi = engine.run();
        EXPECT_FALSE(multi.anyOom());
        check("kv-ties", multi, 0xac46a956d03f30bbULL);
    }
    {
        // Traces ending in compute at different local times, and a
        // late starter that arrives after the first two finished.
        vmm::Device dev(smallDevice(1_GiB));
        const auto alloc =
            makeAllocator(AllocatorKind::gmlake, dev);
        SimEngine engine(*alloc, dev);
        engine.addSession(Session(
            "short-tail",
            computeTailTrace(4, 24_MiB, 1'500'000, 2'000'000)));
        engine.addSession(Session(
            "long-tail",
            computeTailTrace(3, 40_MiB, 1'000'000, 9'000'000)));
        engine.addSession(Session(
            "late", computeTailTrace(2, 16_MiB, 700'000, 300'000),
            Tick{20'000'000}));
        engine.addSession(Session("kv", kvTenant(3, 2, 6, 4)));
        const auto multi = engine.run();
        EXPECT_FALSE(multi.anyOom());
        check("compute-tails", multi, 0x18791ca107af4db2ULL);
    }
    {
        // A hog that runs out of device memory beside two serving
        // tenants, which replay on once its memory is reclaimed.
        vmm::Device dev(smallDevice(2_GiB));
        alloc::CachingAllocator alloc(dev);
        SimEngine engine(alloc, dev);
        engine.addSession(Session("kv0", kvTenant(11, 4, 16, 8)));
        engine.addSession(
            Session("hog", hogTrace(8, 384_MiB), Tick{1'000'000}));
        engine.addSession(Session("kv1", kvTenant(12, 4, 16, 8)));
        const auto multi = engine.run();
        ASSERT_EQ(multi.sessions.size(), 3u);
        EXPECT_FALSE(multi.sessions[0].oom);
        EXPECT_TRUE(multi.sessions[1].oom);
        EXPECT_FALSE(multi.sessions[2].oom);
        check("one-oom", multi, 0xe84ffef0c9ea7b35ULL);
    }
}

TEST(Session, SharingOneSourceFailsLoudly)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    SimEngine engine(alloc, dev);
    const auto shared = kvTenant(1, 2, 4, 2);
    engine.addSession(Session("a", shared));
    engine.addSession(Session("b", shared));
    try {
        engine.run();
        ADD_FAILURE() << "two sessions on one source replayed";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("share one source"),
                  std::string::npos)
            << e.what();
    }
}
