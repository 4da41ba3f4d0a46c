/**
 * @file
 * Fault-injection tests: FaultPlan parsing, deterministic injector
 * behaviour, device-level injection (including scheduled capacity
 * loss and copy-lane failures), and the allocator's recovery
 * contract — reclaim-ladder retries, GMLake stitch/split
 * partial-failure rollback verified block-by-block against the
 * pre-attempt state, expandable-segment growth unwinding a failed
 * map or setAccess, and the deep invariant audit after recovery.
 */

#include <gtest/gtest.h>

#include <vector>

#include "alloc/expandable_allocator.hh"
#include "alloc/snapshot.hh"
#include "core/gmlake_allocator.hh"
#include "support/logging.hh"
#include "support/units.hh"
#include "vmm/device.hh"
#include "vmm/fault_injector.hh"

using namespace gmlake;
using namespace gmlake::literals;
using core::GMLakeAllocator;
using core::GMLakeConfig;
using vmm::Device;
using vmm::DeviceConfig;
using vmm::FaultApi;
using vmm::FaultInjector;
using vmm::FaultPlan;

namespace
{

DeviceConfig
smallDevice(Bytes capacity = 256_MiB)
{
    DeviceConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

GMLakeConfig
tightConfig()
{
    GMLakeConfig cfg;
    cfg.nearMatchTolerance = 0.0;
    cfg.fragLimit = 2_MiB;
    return cfg;
}

/** Plan that fails exactly the given ordinals of one API. */
FaultPlan
nthPlan(FaultApi api, std::vector<std::uint64_t> ordinals)
{
    FaultPlan plan;
    plan.rule(api).nthCalls = std::move(ordinals);
    return plan;
}

/** Region-by-region equality of two allocator snapshots. */
void
expectSameSnapshot(const alloc::MemorySnapshot &a,
                   const alloc::MemorySnapshot &b)
{
    EXPECT_EQ(a.activeBytes, b.activeBytes);
    EXPECT_EQ(a.reservedBytes, b.reservedBytes);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (std::size_t i = 0; i < a.regions.size(); ++i) {
        const alloc::RegionSnapshot &ra = a.regions[i];
        const alloc::RegionSnapshot &rb = b.regions[i];
        EXPECT_EQ(ra.kind, rb.kind) << "region " << i;
        EXPECT_EQ(ra.base, rb.base) << "region " << i;
        EXPECT_EQ(ra.size, rb.size) << "region " << i;
        ASSERT_EQ(ra.blocks.size(), rb.blocks.size())
            << "region " << i;
        for (std::size_t j = 0; j < ra.blocks.size(); ++j) {
            EXPECT_EQ(ra.blocks[j].addr, rb.blocks[j].addr);
            EXPECT_EQ(ra.blocks[j].size, rb.blocks[j].size);
            EXPECT_EQ(ra.blocks[j].allocated, rb.blocks[j].allocated);
            EXPECT_EQ(ra.blocks[j].stream, rb.blocks[j].stream);
        }
    }
}

} // namespace

// ------------------------------------------------------ plan parsing

TEST(FaultPlan, DefaultIsEmpty)
{
    const FaultPlan plan;
    EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, ParsesProbabilitiesOrdinalsAndCapacityLoss)
{
    const FaultPlan plan = FaultPlan::parse(
        "create:p=0.02;map:n=5,n=9;cap:t=1000000,b=2G");
    EXPECT_FALSE(plan.empty());
    EXPECT_DOUBLE_EQ(plan.rule(FaultApi::memCreate).probability,
                     0.02);
    // Injected create failures default to outOfMemory so the reclaim
    // ladder absorbs them like real capacity pressure.
    EXPECT_EQ(plan.rule(FaultApi::memCreate).code,
              Errc::outOfMemory);
    const auto &map = plan.rule(FaultApi::memMap);
    ASSERT_EQ(map.nthCalls.size(), 2u);
    EXPECT_EQ(map.nthCalls[0], 5u);
    EXPECT_EQ(map.nthCalls[1], 9u);
    EXPECT_EQ(map.code, Errc::faultInjected);
    ASSERT_EQ(plan.capacityLosses.size(), 1u);
    EXPECT_EQ(plan.capacityLosses[0].at, Tick{1'000'000});
    EXPECT_EQ(plan.capacityLosses[0].bytes, 2_GiB);
    EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlan, CodeOverrideAndSuffixes)
{
    const FaultPlan plan =
        FaultPlan::parse("mapbatch:n=3,code=oom;cap:t=5,b=16M");
    EXPECT_EQ(plan.rule(FaultApi::memMapBatch).code,
              Errc::outOfMemory);
    EXPECT_EQ(plan.capacityLosses[0].bytes, 16_MiB);
}

TEST(FaultPlan, MalformedSpecsAreFatal)
{
    EXPECT_THROW(FaultPlan::parse("launch:p=0.5"), FatalError);
    EXPECT_THROW(FaultPlan::parse("create"), FatalError);
    EXPECT_THROW(FaultPlan::parse("create:p=nope"), FatalError);
    EXPECT_THROW(FaultPlan::parse("create:p=1.5"), FatalError);
    EXPECT_THROW(FaultPlan::parse("create:n=0"), FatalError);
    EXPECT_THROW(FaultPlan::parse("cap:t=5"), FatalError);
    EXPECT_THROW(FaultPlan::parse("create:code=bogus"), FatalError);
    // Values that do not fit their field: an ordinal past 2^64, a
    // suffixed byte count whose product wraps, a NaN probability.
    EXPECT_THROW(FaultPlan::parse("map:n=18446744073709551619"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("cap:t=1000,b=17179869185G"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("create:p=nan"), FatalError);
}

// -------------------------------------------------- injector basics

TEST(FaultInjector, NthCallTriggersAreExact)
{
    FaultInjector inj(nthPlan(FaultApi::memMap, {2, 5}), 1);
    for (std::uint64_t call = 1; call <= 6; ++call) {
        const auto err = inj.onCall(FaultApi::memMap);
        if (call == 2 || call == 5) {
            ASSERT_TRUE(err.has_value()) << "call " << call;
            EXPECT_EQ(err->code, Errc::faultInjected);
        } else {
            EXPECT_FALSE(err.has_value()) << "call " << call;
        }
    }
    EXPECT_EQ(inj.counters().calls[static_cast<std::size_t>(
                  FaultApi::memMap)],
              6u);
    EXPECT_EQ(inj.counters().totalInjected(), 2u);
}

TEST(FaultInjector, SameSeedSameDecisions)
{
    FaultPlan plan;
    plan.rule(FaultApi::memCreate).probability = 0.3;
    FaultInjector a(plan, 99);
    FaultInjector b(plan, 99);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.onCall(FaultApi::memCreate).has_value(),
                  b.onCall(FaultApi::memCreate).has_value())
            << "call " << i;
    }
    EXPECT_GT(a.counters().totalInjected(), 0u);
    EXPECT_LT(a.counters().totalInjected(), 500u);
}

TEST(FaultInjector, ApisCountIndependently)
{
    FaultInjector inj(nthPlan(FaultApi::memMapBatch, {1}), 7);
    // Calls on other APIs must not advance the mapbatch ordinal.
    EXPECT_FALSE(inj.onCall(FaultApi::memCreate).has_value());
    EXPECT_FALSE(inj.onCall(FaultApi::memMap).has_value());
    EXPECT_TRUE(inj.onCall(FaultApi::memMapBatch).has_value());
}

// ----------------------------------------------- device integration

TEST(DeviceFaults, InjectedCreateFailsWithOom)
{
    Device dev(smallDevice());
    // The spec parser defaults create failures to OOM; programmatic
    // plans say so explicitly.
    FaultPlan plan = nthPlan(FaultApi::memCreate, {1});
    plan.rule(FaultApi::memCreate).code = Errc::outOfMemory;
    dev.installFaultInjector(std::move(plan), 3);
    const auto h1 = dev.memCreate(2_MiB);
    ASSERT_FALSE(h1.ok());
    EXPECT_EQ(h1.error().code, Errc::outOfMemory);
    EXPECT_EQ(dev.phys().inUse(), 0u);
    const auto h2 = dev.memCreate(2_MiB);
    ASSERT_TRUE(h2.ok());
    ASSERT_TRUE(dev.memRelease(*h2).ok());
    EXPECT_EQ(dev.faultInjector()->counters().totalInjected(), 1u);
}

TEST(DeviceFaults, ClearRestoresFaultFreeBehavior)
{
    Device dev(smallDevice());
    FaultPlan plan;
    plan.rule(FaultApi::memCreate).probability = 1.0;
    dev.installFaultInjector(plan, 3);
    EXPECT_FALSE(dev.memCreate(2_MiB).ok());
    dev.clearFaultInjector();
    EXPECT_EQ(dev.faultInjector(), nullptr);
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(dev.memRelease(*h).ok());
}

TEST(DeviceFaults, ScheduledCapacityLossCarvesOnCreate)
{
    Device dev(smallDevice(64_MiB));
    FaultPlan plan;
    plan.capacityLosses.push_back({Tick{0}, 16_MiB});
    dev.installFaultInjector(plan, 3);
    // The loss is realized lazily from the next memCreate.
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(dev.faultInjector()->counters().capacityLost, 16_MiB);
    EXPECT_EQ(dev.phys().inUse(), 18_MiB);
    // The carved chunks stay lost after the allocation is released.
    ASSERT_TRUE(dev.memRelease(*h).ok());
    EXPECT_EQ(dev.phys().inUse(), 16_MiB);
}

TEST(DeviceFaults, CapacityLossDueWithinACreateLandsInThatCreate)
{
    // A create charges its own latency before the loss check, so a
    // loss due inside that charge is realized by the same call — in
    // a single memCreate and in the middle of a chunk run alike.
    for (const std::size_t chunks : {1u, 4u}) {
        Device dev(smallDevice(64_MiB));
        const Tick each = dev.costs().memCreate(2_MiB);
        FaultPlan plan;
        plan.capacityLosses.push_back(
            {static_cast<Tick>(chunks - 1) * each + 1, 16_MiB});
        dev.installFaultInjector(plan, 3);
        std::vector<PhysHandle> out(chunks, kNullHandle);
        ASSERT_TRUE(dev.memCreateRun(2_MiB, out).ok());
        EXPECT_EQ(dev.faultInjector()->counters().capacityLost, 16_MiB)
            << chunks << " chunks";
        // The last chunk was created after the carve, the others
        // before it.
        EXPECT_EQ(*dev.phys().sizeOf(out.back()), 2_MiB);
        EXPECT_EQ(dev.phys().liveRanges().back().first,
                  chunks == 1 ? 16_MiB : (chunks - 1) * 2_MiB + 16_MiB);
    }
}

TEST(DeviceFaults, InjectedCopyLaneFailure)
{
    Device dev(smallDevice());
    dev.installFaultInjector(nthPlan(FaultApi::copyD2H, {1}), 3);
    const auto t1 = dev.copyD2HAsync(4_MiB);
    ASSERT_FALSE(t1.ok());
    EXPECT_EQ(t1.error().code, Errc::faultInjected);
    const auto t2 = dev.copyD2HAsync(4_MiB);
    ASSERT_TRUE(t2.ok());
    dev.copyWait(*t2);
    const auto h2d = dev.copyH2DAsync(4_MiB);
    ASSERT_TRUE(h2d.ok());
}

// ------------------------------------------------ allocator recovery

TEST(Recovery, ReclaimLadderAbsorbsInjectedCreateOom)
{
    Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    // Prime the cache so the retry path has something to release.
    const auto warm = lake.allocate(8_MiB);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(lake.deallocate(warm->id).ok());

    // The cached 8 MiB pBlock cannot satisfy 16 MiB, so the search
    // falls through to allocPBlock; its first memCreate fails
    // (injected OOM), the partial block is unwound, releaseCached
    // retries and the second attempt succeeds.
    dev.installFaultInjector(nthPlan(FaultApi::memCreate, {1}), 5);
    const auto a = lake.allocate(16_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(lake.recoveryCounters().recovered, 1u);
    EXPECT_GE(lake.recoveryCounters().rollbacks, 1u);
    lake.auditInvariants();
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    lake.auditInvariants();
}

TEST(Recovery, StitchPartialFailureRollsBackBlockByBlock)
{
    Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    // Two cached 8 MiB pBlocks whose sizes sum exactly to the next
    // request: BestFit reaches S3 (multiBlocks) with no trim split,
    // so the only batched map is the stitch itself.
    const auto a = lake.allocate(8_MiB);
    const auto b = lake.allocate(8_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(b->id).ok());
    ASSERT_EQ(lake.pBlockCount(), 2u);
    ASSERT_EQ(lake.sBlockCount(), 0u);

    const alloc::MemorySnapshot before = lake.snapshot();
    const Bytes physBefore = dev.phys().inUse();
    const std::size_t vaBefore = dev.vaSpace().reservationCount();
    const std::uint64_t rollbacksBefore =
        lake.recoveryCounters().rollbacks;
    const auto countersBefore = lake.strategy();

    dev.installFaultInjector(nthPlan(FaultApi::memMapBatch, {1}), 9);
    const auto stitched = lake.allocate(16_MiB);
    ASSERT_FALSE(stitched.ok());
    EXPECT_EQ(stitched.error().code, Errc::faultInjected);

    // Block-by-block: the failed stitch left every pBlock, every
    // device mapping, and every VA reservation exactly as they were
    // before the attempt.
    expectSameSnapshot(before, lake.snapshot());
    EXPECT_EQ(dev.phys().inUse(), physBefore);
    EXPECT_EQ(dev.vaSpace().reservationCount(), vaBefore);
    EXPECT_EQ(lake.pBlockCount(), 2u);
    EXPECT_EQ(lake.sBlockCount(), 0u);
    EXPECT_EQ(lake.recoveryCounters().rollbacks, rollbacksBefore + 1);
    EXPECT_EQ(lake.strategy().s3MultiBlocks,
              countersBefore.s3MultiBlocks + 1);
    lake.auditInvariants();

    // With the injector gone the identical request stitches fine.
    dev.clearFaultInjector();
    const auto retry = lake.allocate(16_MiB);
    ASSERT_TRUE(retry.ok());
    EXPECT_EQ(lake.sBlockCount(), 1u);
    lake.auditInvariants();
    ASSERT_TRUE(lake.deallocate(retry->id).ok());
    lake.auditInvariants();
}

TEST(Recovery, SplitFailureHandsOutWholeBlock)
{
    Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto big = lake.allocate(16_MiB);
    ASSERT_TRUE(big.ok());
    const VirtAddr bigVa = big->addr;
    ASSERT_TRUE(lake.deallocate(big->id).ok());

    // S2 finds the 16 MiB block for a 4 MiB request and tries to
    // split it; the injected batch-map failure unwinds the split and
    // the allocator degrades gracefully to handing out the whole
    // block at its original address.
    dev.installFaultInjector(nthPlan(FaultApi::memMapBatch, {1}), 9);
    const auto small = lake.allocate(4_MiB);
    ASSERT_TRUE(small.ok());
    EXPECT_EQ(small->addr, bigVa);
    EXPECT_GE(lake.recoveryCounters().rollbacks, 1u);
    EXPECT_EQ(lake.pBlockCount(), 1u);
    lake.auditInvariants();
    ASSERT_TRUE(lake.deallocate(small->id).ok());
    lake.auditInvariants();
}

TEST(Recovery, AuditCatchesNothingAfterFaultStorm)
{
    Device dev(smallDevice(64_MiB));
    GMLakeAllocator lake(dev, tightConfig());
    FaultPlan plan;
    plan.rule(FaultApi::memCreate).probability = 0.1;
    plan.rule(FaultApi::memMapBatch).probability = 0.05;
    dev.installFaultInjector(plan, 1234);

    std::vector<alloc::AllocId> live;
    for (int round = 0; round < 200; ++round) {
        const Bytes size =
            (round % 3 == 0) ? 12_MiB : (round % 3 == 1) ? 6_MiB
                                                         : 2_MiB;
        const auto got = lake.allocate(size);
        if (got.ok())
            live.push_back(got->id);
        if (live.size() >= 4) {
            ASSERT_TRUE(lake.deallocate(live.front()).ok());
            live.erase(live.begin());
        }
        if (round % 20 == 0)
            lake.auditInvariants();
    }
    for (const alloc::AllocId id : live)
        ASSERT_TRUE(lake.deallocate(id).ok());
    lake.auditInvariants();
    lake.deviceSynchronize();
    lake.emptyCache();
    lake.auditInvariants();
    // Everything the allocator ever held went back to the device.
    EXPECT_EQ(dev.phys().inUse(),
              dev.faultInjector()->counters().capacityLost);
    EXPECT_EQ(dev.vaSpace().reservationCount(), 0u);
}

TEST(Recovery, ExpandableGrowthUnwindsFailedMapOrSetAccess)
{
    // An 8 MiB request grows the segment's tail by four chunks. The
    // plan fails that growth and the retry after the trim round (the
    // 2nd and 4th map calls, or both setAccess calls), so the request
    // fails — and the segment and the device must be exactly as they
    // were before it.
    for (const char *spec : {"map:n=2,n=4", "setaccess:n=1,n=2"}) {
        SCOPED_TRACE(spec);
        Device dev(smallDevice(64_MiB));
        alloc::ExpandableSegmentsAllocator expandable(dev);
        const auto first = expandable.allocate(4_MiB);
        ASSERT_TRUE(first.ok());

        const alloc::MemorySnapshot before = expandable.snapshot();
        const Bytes physBefore = dev.phys().inUse();
        const std::size_t handlesBefore = dev.phys().liveHandles();
        const std::size_t mappingsBefore = dev.mappings().mappingCount();
        const std::size_t extentsBefore = dev.mappings().extentCount();

        dev.installFaultInjector(FaultPlan::parse(spec), 3);
        const auto grown = expandable.allocate(8_MiB);
        ASSERT_FALSE(grown.ok());
        EXPECT_EQ(grown.error().code, Errc::faultInjected);
        EXPECT_EQ(dev.faultInjector()->counters().totalInjected(), 2u);

        expectSameSnapshot(before, expandable.snapshot());
        EXPECT_EQ(dev.phys().inUse(), physBefore);
        EXPECT_EQ(dev.phys().liveHandles(), handlesBefore);
        EXPECT_EQ(dev.mappings().mappingCount(), mappingsBefore);
        EXPECT_EQ(dev.mappings().extentCount(), extentsBefore);
        const alloc::Allocator &audited = expandable;
        audited.auditInvariants();
        expandable.checkConsistency();

        // Fault-free again, the same request grows the tail.
        dev.clearFaultInjector();
        const auto retry = expandable.allocate(8_MiB);
        ASSERT_TRUE(retry.ok());
        EXPECT_EQ(dev.phys().inUse(), physBefore + 8_MiB);
        expandable.checkConsistency();
        ASSERT_TRUE(expandable.deallocate(retry->id).ok());
        ASSERT_TRUE(expandable.deallocate(first->id).ok());
        expandable.emptyCache();
        EXPECT_EQ(dev.phys().inUse(), 0u);
        expandable.checkConsistency();
    }
}
