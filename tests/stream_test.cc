/**
 * @file
 * Stream-awareness tests: blocks freed on one stream may not be
 * reused by another until the free event lapses or a synchronization
 * retags them — for both the caching allocator and GMLake.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "alloc/caching_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "support/units.hh"
#include "vmm/device.hh"
#include "workload/trace.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity = 256_MiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

} // namespace

// ----------------------------------------------------- caching

TEST(StreamCaching, SameStreamReuseIsImmediate)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    const auto a = alloc.allocate(30_MiB, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    const auto b = alloc.allocate(30_MiB, 1);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->addr, a->addr);
    EXPECT_EQ(dev.counters().mallocNative, 1u);
}

TEST(StreamCaching, CrossStreamReuseBlockedUntilEventLapses)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    const auto a = alloc.allocate(30_MiB, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());

    // Immediately after the free, stream 2 may not touch the block.
    const auto b = alloc.allocate(30_MiB, 2);
    ASSERT_TRUE(b.ok());
    EXPECT_NE(b->addr, a->addr);
    EXPECT_EQ(dev.counters().mallocNative, 2u);

    // After the event lag, the cached block is fair game.
    dev.clock().advance(alloc::kStreamEventLagNs);
    const auto c = alloc.allocate(30_MiB, 2);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c->addr, a->addr);
    EXPECT_EQ(dev.counters().mallocNative, 2u);
    alloc.checkConsistency();
}

TEST(StreamCaching, StreamSynchronizeRetagsImmediately)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    const auto a = alloc.allocate(30_MiB, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    alloc.streamSynchronize(1);
    const auto b = alloc.allocate(30_MiB, 2);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->addr, a->addr);
}

TEST(StreamCaching, DeviceSynchronizeRetagsEverything)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    const auto a = alloc.allocate(20_MiB, 1);
    const auto b = alloc.allocate(20_MiB, 2);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    ASSERT_TRUE(alloc.deallocate(b->id).ok());
    alloc.deviceSynchronize();
    const auto c = alloc.allocate(20_MiB, 3);
    const auto d = alloc.allocate(20_MiB, 4);
    ASSERT_TRUE(c.ok() && d.ok());
    EXPECT_EQ(dev.counters().mallocNative, 2u); // both reused
    alloc.checkConsistency();
}

TEST(StreamCaching, NeighboursFromDifferentStreamsDoNotMergeEarly)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    // Two blocks split from one segment, freed by different streams.
    const auto big = alloc.allocate(40_MiB, 1);
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(alloc.deallocate(big->id).ok());
    const auto a = alloc.allocate(20_MiB, 1);
    ASSERT_TRUE(a.ok());
    // Let stream 2 take the remainder.
    dev.clock().advance(alloc::kStreamEventLagNs);
    const auto b = alloc.allocate(20_MiB, 2);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    ASSERT_TRUE(alloc.deallocate(b->id).ok());
    // Adjacent free halves carry different stream tags: they must
    // not merge yet, so the 40 MiB block is not servable in place.
    // After a device synchronization they merge and the whole
    // segment is reused.
    alloc.deviceSynchronize();
    const auto whole = alloc.allocate(40_MiB, 3);
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(dev.counters().mallocNative, 1u);
    alloc.checkConsistency();
}

TEST(StreamCaching, SentinelStreamRejected)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    EXPECT_EQ(alloc.allocate(2_MiB, kAnyStream).code(),
              Errc::invalidValue);
}

// ------------------------------------------------------- gmlake

TEST(StreamGmlake, CrossStreamExactMatchBlockedUntilEventLapses)
{
    vmm::Device dev(smallDevice());
    core::GMLakeConfig gc;
    gc.nearMatchTolerance = 0.0;
    core::GMLakeAllocator lake(dev, gc);

    const auto a = lake.allocate(20_MiB, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());

    const Bytes before = lake.physicalBytes();
    const auto b = lake.allocate(20_MiB, 2);
    ASSERT_TRUE(b.ok());
    EXPECT_GT(lake.physicalBytes(), before); // had to grow
    lake.checkConsistency();
}

TEST(StreamGmlake, CrossStreamReuseAfterLag)
{
    vmm::Device dev(smallDevice());
    core::GMLakeConfig gc;
    gc.nearMatchTolerance = 0.0;
    core::GMLakeAllocator lake(dev, gc);

    const auto a = lake.allocate(20_MiB, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    dev.clock().advance(alloc::kStreamEventLagNs);

    const Bytes before = lake.physicalBytes();
    const auto b = lake.allocate(20_MiB, 2);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(lake.physicalBytes(), before);
    EXPECT_EQ(b->addr, a->addr);
    lake.checkConsistency();
}

TEST(StreamGmlake, StitchOnlyUsesStreamCompatibleMembers)
{
    vmm::Device dev(smallDevice(64_MiB));
    core::GMLakeConfig gc;
    gc.nearMatchTolerance = 0.0;
    core::GMLakeAllocator lake(dev, gc);

    // Two fragments freed on stream 1, one on stream 2.
    const auto a = lake.allocate(10_MiB, 1);
    const auto sp = lake.allocate(2_MiB, 1);
    const auto b = lake.allocate(10_MiB, 2);
    ASSERT_TRUE(a.ok() && sp.ok() && b.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(b->id).ok());

    // A 20 MiB request on stream 1 cannot stitch b's block yet; with
    // only 10 MiB eligible it must allocate the shortfall.
    const auto big = lake.allocate(20_MiB, 1);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(lake.physicalBytes(), 32_MiB); // 22 + 10 grown
    lake.checkConsistency();
}

TEST(StreamGmlake, DeviceSynchronizeEnablesCrossStreamStitch)
{
    vmm::Device dev(smallDevice(64_MiB));
    core::GMLakeConfig gc;
    gc.nearMatchTolerance = 0.0;
    core::GMLakeAllocator lake(dev, gc);

    const auto a = lake.allocate(10_MiB, 1);
    const auto sp = lake.allocate(2_MiB, 1);
    const auto b = lake.allocate(10_MiB, 2);
    ASSERT_TRUE(a.ok() && sp.ok() && b.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(b->id).ok());
    lake.deviceSynchronize();

    const Bytes before = lake.physicalBytes();
    const auto big = lake.allocate(20_MiB, 3);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(lake.physicalBytes(), before); // stitched, no growth
    EXPECT_GE(lake.strategy().stitches, 1u);
    lake.checkConsistency();
}

TEST(StreamGmlake, SmallPathIsStreamAwareToo)
{
    vmm::Device dev(smallDevice());
    core::GMLakeAllocator lake(dev);
    const auto a = lake.allocate(64_KiB, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    // Same stream reuses the small block in place.
    const auto b = lake.allocate(64_KiB, 1);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->addr, a->addr);
    lake.checkConsistency();
}

TEST(StreamGmlake, SentinelStreamRejected)
{
    vmm::Device dev(smallDevice());
    core::GMLakeAllocator lake(dev);
    EXPECT_EQ(lake.allocate(4_MiB, kAnyStream).code(),
              Errc::invalidValue);
}

// ----------------------------------------------- trace + engine

TEST(StreamTrace, V2RoundTripKeepsStreamsAndSyncs)
{
    workload::TraceBuilder tb;
    const auto a = tb.alloc(4_MiB, 1);
    tb.streamSync(1);
    const auto b = tb.alloc(8_MiB, 2);
    tb.streamSync(kAnyStream);
    tb.free(a);
    tb.free(b);
    const auto original = tb.take();

    std::stringstream ss;
    original.save(ss);
    const auto loaded = workload::Trace::load(ss);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.events()[0].stream, 1u);
    EXPECT_EQ(loaded.events()[1].kind,
              workload::EventKind::streamSync);
    EXPECT_EQ(loaded.events()[2].stream, 2u);
    EXPECT_EQ(loaded.events()[3].stream, kAnyStream);
}

TEST(StreamTrace, V1TracesStillLoad)
{
    std::stringstream ss("gmlake-trace-v1 3\n"
                         "a 1 1048576\n"
                         "c 500\n"
                         "f 1\n");
    const auto trace = workload::Trace::load(ss);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.events()[0].stream, kDefaultStream);
}

TEST(StreamTrace, BuilderRejectsSentinelAllocation)
{
    workload::TraceBuilder tb;
    EXPECT_THROW(tb.alloc(1_MiB, kAnyStream), std::logic_error);
}

TEST(StreamEngine, SyncEventsReachTheAllocator)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    workload::TraceBuilder tb;
    const auto a = tb.alloc(30_MiB, 1);
    tb.free(a);
    tb.streamSync(1);
    const auto b = tb.alloc(30_MiB, 2); // reuses thanks to the sync
    tb.free(b);
    const auto r = sim::runTrace(alloc, dev, tb.take());
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(dev.counters().mallocNative, 1u);
}

TEST(StreamEngine, MultiStreamTraceRaisesBaselineFragmentation)
{
    // The stream-partitioned pools are a fragmentation source of
    // their own: the same workload with multi-stream off is tighter.
    workload::TrainConfig cfg;
    cfg.model = workload::findModel("OPT-13B");
    cfg.strategies = workload::Strategies::parse("LR");
    cfg.gpus = 8;
    cfg.batchSize = 16;
    cfg.iterations = 8;

    cfg.multiStream = true;
    const auto multi =
        sim::runScenario(cfg, sim::AllocatorKind::caching);
    cfg.multiStream = false;
    const auto single =
        sim::runScenario(cfg, sim::AllocatorKind::caching);
    EXPECT_GE(multi.fragmentation + 0.02, single.fragmentation);
}
