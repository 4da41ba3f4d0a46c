/**
 * @file
 * Host-offload tier tests: HostPool accounting, eviction-policy
 * ranking, the device's async copy lanes, GMLake's spill/fault
 * cooperation (cache trims keep stitched structures; live spills
 * keep ids and VAs valid; fully spilled stitches tear down),
 * prefetch overlap, engine integration with touch/prefetch trace
 * events, determinism, a seeded fault storm over the tier's device
 * calls, and a threaded run that gives TSan real concurrency over
 * the copy-lane code paths.
 */

#include <gtest/gtest.h>

#include <vector>

#include "alloc/caching_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "offload/eviction_policy.hh"
#include "offload/host_pool.hh"
#include "offload/offload_manager.hh"
#include "sim/chaos.hh"
#include "sim/runner.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "support/units.hh"
#include "vmm/device.hh"
#include "vmm/fault_injector.hh"
#include "workload/tracegen.hh"
#include "workload/trace.hh"

using namespace gmlake;
using namespace gmlake::literals;
using offload::OffloadConfig;
using offload::OffloadManager;
using offload::PolicyKind;

// ----------------------------------------------------------- pool

TEST(HostPool, StagesWithinCapacityAndTracksPeak)
{
    offload::HostPool pool(1_GiB);
    EXPECT_TRUE(pool.tryStage(600_MiB));
    EXPECT_FALSE(pool.tryStage(600_MiB)); // would exceed capacity
    EXPECT_EQ(pool.stagedBytes(), 600_MiB);
    EXPECT_EQ(pool.refusedCount(), 1u);
    EXPECT_TRUE(pool.tryStage(400_MiB));
    EXPECT_EQ(pool.peakStagedBytes(), 1000_MiB);
    pool.unstage(600_MiB);
    EXPECT_EQ(pool.stagedBytes(), 400_MiB);
    EXPECT_EQ(pool.peakStagedBytes(), 1000_MiB);
    EXPECT_EQ(pool.stageCount(), 2u);
}

// --------------------------------------------------------- policy

TEST(EvictionPolicy, LruRanksColdestFirst)
{
    std::vector<offload::Victim> victims = {
        {1, 100, 50, 0}, {2, 10, 20, 0}, {3, 500, 20, 0}};
    offload::LruPolicy policy;
    policy.rank(victims);
    EXPECT_EQ(victims[0].id, 2u); // lastTouch 20, id tie-break
    EXPECT_EQ(victims[1].id, 3u);
    EXPECT_EQ(victims[2].id, 1u);
}

TEST(EvictionPolicy, SizeAwareRanksLargestFirst)
{
    std::vector<offload::Victim> victims = {
        {1, 100, 50, 0}, {2, 500, 99, 0}, {3, 500, 20, 0}};
    offload::SizeAwarePolicy policy;
    policy.rank(victims);
    EXPECT_EQ(victims[0].id, 3u); // size tie: colder first
    EXPECT_EQ(victims[1].id, 2u);
    EXPECT_EQ(victims[2].id, 1u);
}

TEST(EvictionPolicy, KindNamesRoundTrip)
{
    for (const PolicyKind kind :
         {PolicyKind::lru, PolicyKind::sizeAware}) {
        const auto parsed =
            offload::parsePolicyKind(offload::policyKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
        EXPECT_STREQ(offload::makePolicy(kind)->name(),
                     offload::policyKindName(kind));
    }
    EXPECT_FALSE(offload::parsePolicyKind("mru").has_value());
}

// ------------------------------------------------------ copy lanes

TEST(CopyLanes, SameDirectionSerializesAndWaitStalls)
{
    vmm::Device device;
    const Tick done1 = *device.copyD2HAsync(1_GiB);
    const Tick done2 = *device.copyD2HAsync(1_GiB);
    EXPECT_GT(done2, done1); // one lane per direction
    // The opposite direction has its own lane: it completes before
    // the second D2H despite being submitted after it.
    const Tick doneH2d = *device.copyH2DAsync(1_GiB);
    EXPECT_LT(doneH2d, done2);

    const Tick before = device.now();
    EXPECT_EQ(device.copyWait(before - 1), 0); // already past
    const Tick stalled = device.copyWait(done2);
    EXPECT_EQ(stalled, done2 - before);
    EXPECT_EQ(device.counters().copyStallNs, stalled);
    EXPECT_EQ(device.counters().d2hCopies, 2u);
    EXPECT_EQ(device.counters().h2dCopies, 1u);
    EXPECT_EQ(device.counters().d2hBytes, 2 * 1_GiB);
}

// ------------------------------------------- gmlake spill / fault

namespace
{

struct LakeRig
{
    vmm::Device device;
    core::GMLakeAllocator lake;
    OffloadManager tier;

    explicit LakeRig(Bytes capacity, OffloadConfig config = {})
        : device(vmm::DeviceConfig{capacity, 2_MiB, {}}),
          lake(device),
          tier(device, lake, config)
    {
    }

    alloc::AllocId
    alloc(Bytes bytes, std::size_t session = 0)
    {
        const auto got = lake.allocate(bytes);
        EXPECT_TRUE(got.ok());
        tier.onAllocated(got->id, bytes, session);
        return got->id;
    }

    void
    free(alloc::AllocId id)
    {
        tier.onFreed(id);
        ASSERT_TRUE(lake.deallocate(id).ok());
    }

    /**
     * Two 300 MiB blocks, freed, then stitched by a 600 MiB request
     * that is freed in turn: one cached sBlock over two inactive
     * pBlocks.
     */
    void
    cacheOneStitch()
    {
        const auto a = alloc(300_MiB);
        const auto b = alloc(300_MiB);
        free(a);
        free(b);
        lake.deviceSynchronize();
        const auto c = alloc(600_MiB);
        EXPECT_EQ(lake.strategy().stitches, 1u);
        ASSERT_EQ(lake.sBlockCount(), 1u);
        free(c);
        lake.deviceSynchronize();
    }
};

} // namespace

TEST(GmlakeOffload, OomSpillsLiveVictimAndTouchFaultsBack)
{
    LakeRig rig(1_GiB);
    const auto a = rig.alloc(600_MiB);
    // B does not fit next to A: the tier must spill A (live!) while
    // keeping its allocation id and virtual address valid.
    const auto b = rig.alloc(600_MiB);
    rig.lake.checkConsistency();
    EXPECT_EQ(rig.tier.stats().evictedBytes, 600_MiB);
    EXPECT_EQ(rig.tier.stats().evictions, 1u);
    EXPECT_EQ(rig.tier.spilledCount(), 1u);
    EXPECT_EQ(rig.lake.spilledBytes(), 600_MiB);
    EXPECT_GT(rig.device.counters().copyStallNs, 0);

    // Touching A faults it back, which must displace B.
    ASSERT_TRUE(rig.tier.touch(a).ok());
    rig.lake.checkConsistency();
    EXPECT_EQ(rig.tier.stats().faults, 1u);
    EXPECT_EQ(rig.tier.stats().faultedBytes, 600_MiB);
    EXPECT_EQ(rig.tier.stats().evictedBytes, 2 * 600_MiB);
    EXPECT_EQ(rig.tier.spilledCount(), 1u); // now B

    // Freeing the spilled B discards its host copy without traffic.
    rig.tier.onFreed(b);
    ASSERT_TRUE(rig.lake.deallocate(b).ok());
    EXPECT_EQ(rig.tier.hostPool().stagedBytes(), 0u);
    rig.tier.onFreed(a);
    ASSERT_TRUE(rig.lake.deallocate(a).ok());
    rig.lake.checkConsistency();
}

TEST(GmlakeOffload, CacheTrimKeepsStitchedStructures)
{
    LakeRig rig(1_GiB);
    ASSERT_NO_FATAL_FAILURE(rig.cacheOneStitch());

    // Trim the cache: the members' physical memory comes back, but
    // the stitched sBlock (and the pattern tape) survives.
    const Bytes trimmed = rig.lake.trimCache(600_MiB);
    EXPECT_GE(trimmed, 600_MiB);
    EXPECT_EQ(rig.lake.sBlockCount(), 1u);
    EXPECT_GE(rig.lake.spilledBytes(), 600_MiB);
    rig.lake.checkConsistency();

    // The repeat request faults the members in under the existing
    // stitched VA: an exact-match hit, zero new stitches, and — with
    // no live data spilled — zero copy traffic.
    const auto evictedBefore = rig.tier.stats().evictedBytes;
    const auto faultedBefore = rig.tier.stats().faultedBytes;
    const auto c2 = rig.alloc(600_MiB);
    EXPECT_EQ(rig.lake.strategy().stitches, 1u);
    EXPECT_EQ(rig.lake.spilledBytes(), 0u);
    EXPECT_EQ(rig.tier.stats().evictedBytes, evictedBefore);
    EXPECT_EQ(rig.tier.stats().faultedBytes, faultedBefore);
    rig.lake.checkConsistency();
    rig.tier.onFreed(c2);
    ASSERT_TRUE(rig.lake.deallocate(c2).ok());
}

TEST(GmlakeOffload, EmptyCacheDestroysAFullySpilledStitch)
{
    LakeRig rig(1_GiB);
    ASSERT_NO_FATAL_FAILURE(rig.cacheOneStitch());
    // The trim spills both members, so no chunk is mapped under the
    // cached sBlock's VA any more; destroying it must not unmap it.
    ASSERT_GE(rig.lake.trimCache(600_MiB), 600_MiB);
    ASSERT_EQ(rig.lake.sBlockCount(), 1u);
    rig.lake.emptyCache();
    rig.lake.auditInvariants();
    EXPECT_EQ(rig.lake.sBlockCount(), 0u);
    EXPECT_EQ(rig.device.phys().inUse(), 0u);
    EXPECT_EQ(rig.device.vaSpace().reservationCount(), 0u);
}

TEST(GmlakeOffload, PrefetchHidesTheFaultStall)
{
    auto runOnce = [](bool withPrefetch) {
        LakeRig rig(1_GiB);
        const auto a = rig.alloc(400_MiB);
        const auto b = rig.alloc(700_MiB); // spills A
        rig.tier.onFreed(b);
        EXPECT_TRUE(rig.lake.deallocate(b).ok());
        const Tick stallBefore = rig.device.counters().copyStallNs;
        if (withPrefetch) {
            rig.tier.prefetch(a);
            // Compute long enough for the H2D to land.
            rig.device.clock().advance(Tick{1'000'000'000});
        }
        EXPECT_TRUE(rig.tier.touch(a).ok());
        return rig.device.counters().copyStallNs - stallBefore;
    };
    const Tick coldStall = runOnce(false);
    const Tick warmStall = runOnce(true);
    EXPECT_GT(coldStall, 0);
    EXPECT_EQ(warmStall, 0);
}

TEST(GmlakeOffload, PrefetchNeverEvicts)
{
    LakeRig rig(1_GiB);
    const auto a = rig.alloc(600_MiB);
    const auto b = rig.alloc(600_MiB); // spills A
    (void)b;
    const auto statsBefore = rig.tier.stats();
    // No room for A without displacing B: the hint must be dropped.
    rig.tier.prefetch(a);
    EXPECT_EQ(rig.tier.spilledCount(), 1u);
    EXPECT_EQ(rig.tier.stats().prefetches, statsBefore.prefetches);
    EXPECT_EQ(rig.tier.stats().evictions, statsBefore.evictions);
    rig.lake.checkConsistency();
}

TEST(GmlakeOffload, FullHostPoolMeansHonestOom)
{
    OffloadConfig config;
    config.hostCapacity = 100_MiB; // cannot hold a victim
    LakeRig rig(1_GiB, config);
    const auto a = rig.alloc(600_MiB);
    (void)a;
    const auto got = rig.lake.allocate(600_MiB);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code, Errc::outOfMemory);
    EXPECT_EQ(rig.tier.spilledCount(), 0u);
    EXPECT_GE(rig.tier.stats().failedReclaims, 1u);
    rig.lake.checkConsistency();
}

// ------------------------------------------------ caching allocator

TEST(CachingOffload, TrimReleasesWholeFreeSegmentsUpToTarget)
{
    vmm::Device device(vmm::DeviceConfig{4_GiB, 2_MiB, {}});
    alloc::CachingAllocator caching(device);
    std::vector<alloc::AllocId> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(caching.allocate(200_MiB).value().id);
    for (const auto id : ids)
        ASSERT_TRUE(caching.deallocate(id).ok());
    const Bytes cached = caching.trimmableBytes();
    EXPECT_GE(cached, 4 * 200_MiB);

    const Bytes trimmed = caching.trimCache(200_MiB);
    EXPECT_GE(trimmed, 200_MiB);
    EXPECT_LT(trimmed, cached); // targeted, not emptyCache
    EXPECT_FALSE(caching.supportsLiveSpill());
    EXPECT_FALSE(caching.spillLive(1).ok());
    caching.checkConsistency();
}

// -------------------------------------------------- engine + traces

namespace
{

/** Two tenants whose combined resident sets oversubscribe 1 GiB. */
workload::Trace
tenantTrace(std::uint64_t seed)
{
    Rng rng(seed);
    workload::TraceBuilder builder;
    const auto weights = builder.alloc(600_MiB, 0);
    builder.compute(1'000'000);
    for (int round = 0; round < 6; ++round) {
        builder.prefetch(weights);
        builder.touch(weights);
        const auto scratch = builder.alloc(
            2_MiB * rng.uniformInt(8, 32), 1);
        builder.compute(5'000'000);
        builder.free(scratch);
    }
    builder.freeAll();
    return builder.take();
}

sim::MultiRunResult
runTenants(bool withOffload, PolicyKind policy = PolicyKind::lru)
{
    const workload::Trace t0 = tenantTrace(7);
    const workload::Trace t1 = tenantTrace(8);
    vmm::Device device(vmm::DeviceConfig{1_GiB, 2_MiB, {}});
    core::GMLakeAllocator lake(device);
    std::unique_ptr<OffloadManager> tier;
    sim::EngineOptions options;
    if (withOffload) {
        OffloadConfig config;
        config.policy = policy;
        tier = std::make_unique<OffloadManager>(device, lake, config);
        options.offload = tier.get();
    }
    sim::SimEngine engine(lake, device, options);
    engine.addSession(sim::Session("t0", &t0));
    engine.addSession(sim::Session("t1", &t1, Tick{2'500'000}));
    auto multi = engine.run();
    lake.checkConsistency();
    return multi;
}

} // namespace

TEST(OffloadEngine, OversubscribedTenantsSurviveOnlyWithTheTier)
{
    const auto without = runTenants(false);
    EXPECT_TRUE(without.anyOom());
    EXPECT_EQ(without.combined.evictedBytes, 0u);
    EXPECT_EQ(without.combined.stallNs, 0);

    const auto with = runTenants(true);
    EXPECT_FALSE(with.anyOom());
    EXPECT_GT(with.combined.evictedBytes, 0u);
    EXPECT_GT(with.combined.faultedBytes, 0u);
    EXPECT_GT(with.combined.stallNs, 0);
    // Tenant attribution: both tenants paid eviction traffic.
    Bytes perSession = 0;
    for (const auto &s : with.sessions) {
        perSession += s.evictedBytes;
        EXPECT_EQ(s.oomRequestedBytes, 0u);
    }
    EXPECT_GT(perSession, 0u);
    EXPECT_LE(perSession, with.combined.evictedBytes);
}

TEST(OffloadEngine, KilledTenantCarriesAnOomPostMortem)
{
    // No offload: the second tenant dies; the post-mortem must name
    // the request and the free-extent/evictable state at death.
    const auto without = runTenants(false);
    bool sawReport = false;
    for (const auto &s : without.sessions) {
        if (!s.oom)
            continue;
        sawReport = true;
        EXPECT_GT(s.oomRequestedBytes, 0u);
        EXPECT_LT(s.oomLargestFree, s.oomRequestedBytes);
    }
    EXPECT_TRUE(sawReport);
}

TEST(OffloadEngine, ReplaysAreDeterministic)
{
    for (const PolicyKind policy :
         {PolicyKind::lru, PolicyKind::sizeAware}) {
        const auto first = runTenants(true, policy);
        const auto second = runTenants(true, policy);
        EXPECT_EQ(first.combined.evictedBytes,
                  second.combined.evictedBytes);
        EXPECT_EQ(first.combined.faultedBytes,
                  second.combined.faultedBytes);
        EXPECT_EQ(first.combined.stallNs, second.combined.stallNs);
        EXPECT_EQ(first.combined.simTime, second.combined.simTime);
        ASSERT_EQ(first.sessions.size(), second.sessions.size());
        for (std::size_t i = 0; i < first.sessions.size(); ++i) {
            EXPECT_EQ(first.sessions[i].evictedBytes,
                      second.sessions[i].evictedBytes);
            EXPECT_EQ(first.sessions[i].faultedBytes,
                      second.sessions[i].faultedBytes);
        }
    }
}

// ------------------------------------------------- rig + host tier

namespace
{

/**
 * The first @p count tenants of the oversub-offload scenario (12 GiB
 * resident sets, 25 ms apart), @p iterations iterations each.
 */
std::vector<sim::Tenant>
oversubTenants(int count, int iterations)
{
    std::vector<sim::Tenant> tenants;
    for (int t = 0; t < count; ++t) {
        tenants.push_back(
            {"tenant" + std::to_string(t),
             workload::makeOffloadTenantTrace(
                 deriveSeed(42, static_cast<std::uint64_t>(t)), 12_GiB,
                 /*residentTensors=*/6, iterations,
                 /*transientsPerPhase=*/3, Tick{40'000'000},
                 /*prefetchHints=*/true),
             static_cast<Tick>(t) * Tick{25'000'000}});
    }
    return tenants;
}

/** A 32 GiB device with a host tier of @p policy. */
sim::ScenarioOptions
tieredOptions(PolicyKind policy)
{
    sim::ScenarioOptions options;
    options.device.capacity = 32_GiB;
    options.hostTier = policy;
    options.engine.recordSeries = false;
    return options;
}

/**
 * Three tenants on 32 GiB with an LRU tier spill whole stitched
 * patterns; an sBlock whose members are all spilled must be
 * destroyed without an unmap, and teardown must return everything.
 */
void
spillStitchesAndTearDown(std::size_t cachedSBlocks)
{
    const auto tenants = oversubTenants(3, 1);
    sim::ScenarioOptions options = tieredOptions(PolicyKind::lru);
    options.gmlake.maxCachedSBlocks = cachedSBlocks;
    sim::Rig rig(sim::AllocatorKind::gmlake, options);
    const auto multi = rig.run(sim::borrowSessions(tenants));
    EXPECT_FALSE(multi.anyOom());
    EXPECT_GT(multi.combined.evictedBytes, 0u);
    sim::auditTeardown(rig, /*anyDeath=*/false);
    EXPECT_EQ(rig.device().phys().inUse(), 0u);
    EXPECT_EQ(rig.device().vaSpace().reservationCount(), 0u);
}

} // namespace

TEST(OffloadRig, FullySpilledStitchesTearDown)
{
    // The default cache keeps the spilled sBlocks until emptyCache().
    spillStitchesAndTearDown(core::GMLakeConfig{}.maxCachedSBlocks);
}

TEST(OffloadRig, StitchFreeEvictsFullySpilledStitches)
{
    // A cache of 8 evicts them mid-replay (StitchFree).
    spillStitchesAndTearDown(8);
}

TEST(OffloadRig, FaultStormsLeaveTheBooksBalanced)
{
    // Seeded faults on every device call the tier's paths make —
    // chunk creates and maps of a fault-in, the remap and its access
    // grant, both copy lanes — and one capacity loss. A faulted
    // tenant is aborted (or OOM-killed: create faults carry
    // outOfMemory) and the rest replay on; after every trial the
    // audit and chaos's leak check must pass. create and map fail
    // per chunk, and a resident tensor is hundreds of chunks, so
    // their rates are per-mille: at 2% every tenant would die at its
    // first allocation.
    const char *plans[] = {
        "", // control
        "create:p=0.001",
        "map:p=0.001",
        "mapbatch:p=0.03",
        "setaccess:p=0.03",
        "copyd2h:p=0.05",
        "copyh2d:p=0.05",
        "create:p=0.0005;map:p=0.0005;mapbatch:p=0.02;"
        "setaccess:p=0.02;copyd2h:p=0.02;copyh2d:p=0.02",
        "cap:t=100000000,b=2G",
    };
    const auto tenants = oversubTenants(4, 2);
    std::uint64_t copyFaults = 0;
    for (const char *spec : plans) {
        for (const PolicyKind policy :
             {PolicyKind::lru, PolicyKind::sizeAware}) {
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                SCOPED_TRACE(std::string("plan '") + spec + "', " +
                             offload::policyKindName(policy) +
                             ", seed " + std::to_string(seed));
                sim::Rig rig(sim::AllocatorKind::gmlake,
                             tieredOptions(policy));
                vmm::FaultPlan plan = vmm::FaultPlan::parse(spec);
                if (!plan.empty()) {
                    rig.device().installFaultInjector(std::move(plan),
                                                      seed);
                }
                const auto multi =
                    rig.run(sim::borrowSessions(tenants));
                if (const auto *injector = rig.device().faultInjector()) {
                    const auto &injected = injector->counters().injected;
                    copyFaults += injected[static_cast<std::size_t>(
                                      vmm::FaultApi::copyD2H)] +
                                  injected[static_cast<std::size_t>(
                                      vmm::FaultApi::copyH2D)];
                } else {
                    EXPECT_FALSE(multi.anyOom());
                    EXPECT_GT(multi.combined.evictedBytes, 0u);
                }
                EXPECT_NO_THROW(sim::auditTeardown(
                    rig, multi.anyOom() ||
                             multi.combined.abortedSessions > 0));
            }
        }
    }
    EXPECT_GT(copyFaults, 0u);
}

// -------------------------------------------------------- threading

TEST(OffloadThreaded, ParallelRanksMatchSequential)
{
    // Each rank owns a full device + allocator + tier; the thread
    // pool only schedules them. TSan gets real concurrency over the
    // copy-lane and manager code; determinism gets cross-checked
    // against the sequential replay of the same ranks.
    constexpr std::size_t kRanks = 4;
    std::vector<sim::MultiRunResult> sequential(kRanks);
    for (std::size_t r = 0; r < kRanks; ++r) {
        sequential[r] =
            runTenants(true, r % 2 == 0 ? PolicyKind::lru
                                        : PolicyKind::sizeAware);
    }
    std::vector<sim::MultiRunResult> parallel(kRanks);
    parallelFor(kRanks, kRanks, [&](std::size_t r) {
        parallel[r] =
            runTenants(true, r % 2 == 0 ? PolicyKind::lru
                                        : PolicyKind::sizeAware);
    });
    for (std::size_t r = 0; r < kRanks; ++r) {
        EXPECT_FALSE(parallel[r].anyOom());
        EXPECT_EQ(parallel[r].combined.evictedBytes,
                  sequential[r].combined.evictedBytes);
        EXPECT_EQ(parallel[r].combined.faultedBytes,
                  sequential[r].combined.faultedBytes);
        EXPECT_EQ(parallel[r].combined.simTime,
                  sequential[r].combined.simTime);
    }
}
