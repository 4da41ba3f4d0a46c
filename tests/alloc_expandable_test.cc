/**
 * @file
 * Expandable-segments allocator tests: tail growth/trim, gap reuse
 * and coalescing, per-stream segments, interior-hole limitation vs
 * GMLake, and accounting invariants.
 */

#include <gtest/gtest.h>

#include "alloc/expandable_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;
using alloc::ExpandableSegmentsAllocator;

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

TEST(Expandable, GrowsMappingByChunks)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(5_MiB);
    ASSERT_TRUE(a.ok());
    // Mapped up to the 2 MiB chunk boundary: 6 MiB.
    EXPECT_EQ(allocator.stats().reservedBytes(), 6_MiB);
    EXPECT_EQ(allocator.chunkMaps(), 3u);
    EXPECT_EQ(allocator.segmentCount(), 1u);
    allocator.checkConsistency();
}

TEST(Expandable, SegmentGrowsInPlace)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(4_MiB);
    const auto b = allocator.allocate(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    // One segment, contiguous addresses.
    EXPECT_EQ(allocator.segmentCount(), 1u);
    EXPECT_EQ(b->addr, a->addr + 4_MiB);
    EXPECT_EQ(allocator.stats().reservedBytes(), 8_MiB);
    allocator.checkConsistency();
}

TEST(Expandable, FreedGapsCoalesceAndAreReused)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(4_MiB);
    const auto b = allocator.allocate(4_MiB);
    const auto c = allocator.allocate(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    ASSERT_TRUE(allocator.deallocate(a->id).ok());
    ASSERT_TRUE(allocator.deallocate(b->id).ok());
    // The two freed neighbours merged into one 8 MiB gap.
    const auto d = allocator.allocate(8_MiB);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->addr, a->addr);
    EXPECT_EQ(allocator.stats().reservedBytes(), 12_MiB); // no growth
    allocator.checkConsistency();
}

TEST(Expandable, EmptyCacheTrimsFreeTail)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(4_MiB);
    const auto b = allocator.allocate(12_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(allocator.deallocate(b->id).ok());
    allocator.emptyCache();
    // The tail unmapped down to a's end; physical memory returned.
    EXPECT_EQ(allocator.stats().reservedBytes(), 4_MiB);
    EXPECT_EQ(dev.phys().inUse(), 4_MiB);
    EXPECT_GT(allocator.chunkUnmaps(), 0u);
    allocator.checkConsistency();
}

TEST(Expandable, InteriorHolesAreNotTrimmable)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(8_MiB);
    const auto b = allocator.allocate(4_MiB); // pins the tail
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(allocator.deallocate(a->id).ok());
    allocator.emptyCache();
    // The 8 MiB interior hole stays mapped (b lives above it).
    EXPECT_EQ(allocator.stats().reservedBytes(), 12_MiB);
    allocator.checkConsistency();
}

TEST(Expandable, PerStreamSegments)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(4_MiB, 1);
    const auto b = allocator.allocate(4_MiB, 2);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(allocator.segmentCount(), 2u);
    allocator.checkConsistency();
}

TEST(Expandable, SameStreamReusesGapAtOnce)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(8_MiB, 1);
    const auto pin = allocator.allocate(2_MiB, 1);
    ASSERT_TRUE(a.ok() && pin.ok());
    ASSERT_TRUE(allocator.deallocate(a->id).ok());

    // Stream 1's own requests reuse the gap immediately.
    const auto c = allocator.allocate(8_MiB, 1);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c->addr, a->addr);
    allocator.checkConsistency();
}

TEST(Expandable, OtherStreamNeverTakesTheGap)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(8_MiB, 1);
    const auto pin = allocator.allocate(2_MiB, 1);
    ASSERT_TRUE(a.ok() && pin.ok());
    ASSERT_TRUE(allocator.deallocate(a->id).ok());

    // Stream 1's gap lives in stream 1's segment: a stream-2 request
    // grows stream 2's own segment after the free event has lapsed,
    // after a sync of stream 1, and after a device sync alike.
    dev.clock().advance(alloc::kStreamEventLagNs);
    const auto b = allocator.allocate(8_MiB, 2);
    allocator.streamSynchronize(1);
    const auto c = allocator.allocate(8_MiB, 2);
    allocator.deviceSynchronize();
    const auto d = allocator.allocate(8_MiB, 2);
    ASSERT_TRUE(b.ok() && c.ok() && d.ok());
    for (const VirtAddr addr : {b->addr, c->addr, d->addr})
        EXPECT_NE(addr, a->addr);
    EXPECT_EQ(allocator.segmentCount(), 2u);
    EXPECT_EQ(allocator.stats().reservedBytes(), 10_MiB + 24_MiB);

    // The gap still serves stream 1.
    const auto e = allocator.allocate(8_MiB, 1);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->addr, a->addr);
    allocator.checkConsistency();
}

TEST(Expandable, OomWhenPhysicalExhausted)
{
    vmm::Device dev(smallDevice(32_MiB));
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(24_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(allocator.allocate(16_MiB).code(), Errc::outOfMemory);
    allocator.checkConsistency();
}

TEST(Expandable, OomRetryTrimsOtherSegments)
{
    vmm::Device dev(smallDevice(32_MiB));
    ExpandableSegmentsAllocator allocator(dev);
    // Stream 1 maps 24 MiB then frees it (stays mapped as cache).
    const auto a = allocator.allocate(24_MiB, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(allocator.deallocate(a->id).ok());
    // Stream 2 needs 16 MiB: stream 1's free tail is trimmed back to
    // the device to make room.
    const auto b = allocator.allocate(16_MiB, 2);
    ASSERT_TRUE(b.ok());
    allocator.checkConsistency();
}

TEST(Expandable, OomRetryRegrowsFromItsOwnTrimmedTail)
{
    // The retry trims the allocating segment's own free tail too, so
    // it must regrow from the trimmed end and place the block at the
    // start of the gap that is left.
    vmm::Device dev(smallDevice(16_MiB));
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(2_MiB, 0);
    const auto b = allocator.allocate(4_MiB, 0);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(allocator.deallocate(b->id).ok());
    const auto c = allocator.allocate(8_MiB, 1);
    const auto d = allocator.allocate(2_MiB, 1);
    ASSERT_TRUE(c.ok() && d.ok());
    ASSERT_TRUE(allocator.deallocate(d->id).ok());
    // All 16 MiB are mapped; stream 0's 4 MiB tail gap is too small.
    const auto e = allocator.allocate(6_MiB, 0);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->addr, a->addr + 2_MiB);
    EXPECT_EQ(allocator.stats().reservedBytes(), 16_MiB);
    allocator.checkConsistency();
}

TEST(Expandable, UnknownIdAndZeroByteRejected)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    EXPECT_EQ(allocator.deallocate(3).code(), Errc::invalidValue);
    EXPECT_EQ(allocator.allocate(0).code(), Errc::invalidValue);
    EXPECT_EQ(allocator.allocate(1_MiB, kAnyStream).code(),
              Errc::invalidValue);
}

TEST(Expandable, SnapshotTilesSegments)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(4_MiB);
    const auto b = allocator.allocate(6_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(allocator.deallocate(a->id).ok());
    const auto snap = allocator.snapshot();
    ASSERT_EQ(snap.regions.size(), 1u);
    Bytes total = 0;
    for (const auto &blk : snap.regions[0].blocks)
        total += blk.size;
    EXPECT_EQ(total, snap.regions[0].size);
    EXPECT_EQ(snap.freeBlockBytes(),
              allocator.stats().reservedBytes() -
                  allocator.stats().activeBytes());
}

TEST(Expandable, GmlakeStitchesInteriorHolesExpandableCannot)
{
    // The design difference in one scenario: two interior holes of
    // 8 MiB each cannot serve a 16 MiB request under expandable
    // segments (fixed VA), but GMLake stitches them.
    const auto run = [](alloc::Allocator &allocator, Bytes &grown) {
        const auto a = allocator.allocate(8_MiB);
        const auto p1 = allocator.allocate(2_MiB);
        const auto b = allocator.allocate(8_MiB);
        const auto p2 = allocator.allocate(2_MiB);
        ASSERT_TRUE(a.ok() && p1.ok() && b.ok() && p2.ok());
        ASSERT_TRUE(allocator.deallocate(a->id).ok());
        ASSERT_TRUE(allocator.deallocate(b->id).ok());
        const Bytes before = allocator.stats().reservedBytes();
        const auto big = allocator.allocate(16_MiB);
        ASSERT_TRUE(big.ok());
        grown = allocator.stats().reservedBytes() - before;
    };

    Bytes expandableGrowth = 0;
    {
        vmm::Device dev(smallDevice());
        ExpandableSegmentsAllocator allocator(dev);
        run(allocator, expandableGrowth);
    }
    Bytes gmlakeGrowth = 0;
    {
        vmm::Device dev(smallDevice());
        core::GMLakeConfig gc;
        gc.nearMatchTolerance = 0.0;
        core::GMLakeAllocator allocator(dev, gc);
        run(allocator, gmlakeGrowth);
    }
    EXPECT_EQ(expandableGrowth, 16_MiB); // had to map new chunks
    EXPECT_EQ(gmlakeGrowth, 0u);         // stitched the holes
}

TEST(Expandable, RandomWalkStaysConsistent)
{
    vmm::Device dev(smallDevice(1_GiB));
    ExpandableSegmentsAllocator allocator(dev);
    std::vector<alloc::AllocId> live;
    std::uint64_t x = 77;
    auto rnd = [&x]() {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 2500; ++i) {
        if (live.empty() || rnd() % 3 != 0) {
            const auto a = allocator.allocate(
                512 + rnd() % (6_MiB), rnd() % 3);
            if (!a.ok()) {
                ASSERT_EQ(a.code(), Errc::outOfMemory);
                continue;
            }
            live.push_back(a->id);
        } else {
            const std::size_t idx = rnd() % live.size();
            ASSERT_TRUE(allocator.deallocate(live[idx]).ok());
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        }
        if (i % 250 == 0) {
            allocator.checkConsistency();
        }
        if (i % 613 == 0)
            allocator.deviceSynchronize();
    }
    allocator.checkConsistency();
    EXPECT_GE(allocator.stats().reservedBytes(),
              allocator.stats().activeBytes());
}

TEST(Expandable, EmptyCacheFreesIdleSegmentReservations)
{
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(4_MiB, 1);
    const auto b = allocator.allocate(6_MiB, 2);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(dev.vaSpace().reservationCount(), 2u);
    ASSERT_TRUE(allocator.deallocate(a->id).ok());
    ASSERT_TRUE(allocator.deallocate(b->id).ok());
    allocator.emptyCache();
    EXPECT_EQ(dev.vaSpace().reservationCount(), 0u);
    EXPECT_EQ(dev.phys().inUse(), 0u);
    EXPECT_EQ(allocator.segmentCount(), 0u);
    allocator.checkConsistency();
}

TEST(Expandable, EmptyCacheKeepsLiveSegmentsAddressable)
{
    // Dropping stream 1's idle segment shifts stream 2's down a
    // slot; its live block must still free, and stream 1 gets a
    // fresh segment on its next request.
    vmm::Device dev(smallDevice());
    ExpandableSegmentsAllocator allocator(dev);
    const auto a = allocator.allocate(4_MiB, 1);
    const auto b = allocator.allocate(6_MiB, 2);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(allocator.deallocate(a->id).ok());
    allocator.emptyCache();
    EXPECT_EQ(allocator.segmentCount(), 1u);
    EXPECT_EQ(dev.vaSpace().reservationCount(), 1u);
    allocator.checkConsistency();

    ASSERT_TRUE(allocator.deallocate(b->id).ok());
    const auto c = allocator.allocate(2_MiB, 1);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(allocator.segmentCount(), 2u);
    allocator.checkConsistency();
}

TEST(Expandable, DestructorReturnsChunksAndReservations)
{
    vmm::Device dev(smallDevice());
    {
        ExpandableSegmentsAllocator allocator(dev);
        ASSERT_TRUE(allocator.allocate(4_MiB, 1).ok());
        ASSERT_TRUE(allocator.allocate(6_MiB, 2).ok());
        ASSERT_GT(dev.phys().inUse(), 0u);
    }
    EXPECT_EQ(dev.vaSpace().reservationCount(), 0u);
    EXPECT_EQ(dev.phys().inUse(), 0u);
    EXPECT_EQ(dev.mappings().mappingCount(), 0u);
}
