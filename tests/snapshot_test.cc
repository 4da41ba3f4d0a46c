/**
 * @file
 * Tests for the memory-snapshot introspection API and the physical
 * address-space renderer.
 */

#include <gtest/gtest.h>

#include "alloc/caching_allocator.hh"
#include "alloc/native_allocator.hh"
#include "alloc/snapshot.hh"
#include "core/gmlake_allocator.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity = 128_MiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

} // namespace

TEST(Snapshot, CachingInventoriesSegmentsAndBlocks)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator allocator(dev);
    const auto a = allocator.allocate(30_MiB);
    const auto b = allocator.allocate(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(allocator.deallocate(b->id).ok());

    const auto snap = allocator.snapshot();
    EXPECT_EQ(snap.allocator, "caching");
    EXPECT_EQ(snap.activeBytes, allocator.stats().activeBytes());
    EXPECT_EQ(snap.reservedBytes, allocator.stats().reservedBytes());
    EXPECT_EQ(snap.regionCount("segment"), 2u);
    // The freed 4 MiB block plus the 20 MiB segment's remainder.
    EXPECT_EQ(snap.freeBlockBytes(),
              allocator.stats().reservedBytes() -
                  allocator.stats().activeBytes());
    EXPECT_GE(snap.freeBlockCount(), 1u);
    EXPECT_FALSE(snap.summary().empty());

    // Blocks tile each region exactly.
    for (const auto &region : snap.regions) {
        Bytes total = 0;
        VirtAddr cursor = region.base;
        for (const auto &block : region.blocks) {
            EXPECT_EQ(block.addr, cursor);
            cursor += block.size;
            total += block.size;
        }
        EXPECT_EQ(total, region.size);
    }
}

TEST(Snapshot, GmlakeListsPBlocksAndSBlocks)
{
    vmm::Device dev(smallDevice());
    core::GMLakeConfig gc;
    gc.nearMatchTolerance = 0.0;
    core::GMLakeAllocator lake(dev, gc);
    const auto a = lake.allocate(12_MiB);
    const auto sp = lake.allocate(4_MiB);
    const auto c = lake.allocate(8_MiB);
    ASSERT_TRUE(a.ok() && sp.ok() && c.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(c->id).ok());
    const auto big = lake.allocate(20_MiB);
    ASSERT_TRUE(big.ok());

    const auto snap = lake.snapshot();
    EXPECT_EQ(snap.allocator, "gmlake");
    EXPECT_EQ(snap.regionCount("pblock"), lake.pBlockCount());
    EXPECT_EQ(snap.regionCount("sblock"), lake.sBlockCount());
    EXPECT_GE(snap.regionCount("sblock"), 1u);

    // sBlock regions list their members, whose sizes sum up.
    for (const auto &region : snap.regions) {
        if (region.kind != "sblock")
            continue;
        Bytes total = 0;
        for (const auto &m : region.blocks)
            total += m.size;
        EXPECT_EQ(total, region.size);
    }
    EXPECT_FALSE(snap.summary().empty());
}

TEST(Snapshot, NativeUsesTheDefaultSummary)
{
    vmm::Device dev(smallDevice());
    alloc::NativeAllocator allocator(dev);
    const auto a = allocator.allocate(10_MiB);
    ASSERT_TRUE(a.ok());
    const auto snap = allocator.snapshot();
    EXPECT_EQ(snap.allocator, "native");
    EXPECT_EQ(snap.activeBytes, 10_MiB);
    EXPECT_TRUE(snap.regions.empty());
}

TEST(PhysicalMap, EmptyDeviceIsAllFree)
{
    vmm::Device dev(smallDevice());
    const auto map = alloc::renderPhysicalMap(dev.phys(), 16);
    EXPECT_EQ(map, "[................]");
}

TEST(PhysicalMap, FullDeviceIsAllUsed)
{
    vmm::Device dev(smallDevice(32_MiB));
    ASSERT_TRUE(dev.mallocNative(32_MiB).ok());
    const auto map = alloc::renderPhysicalMap(dev.phys(), 8);
    EXPECT_EQ(map, "[########]");
}

TEST(PhysicalMap, HoleShowsInTheMiddle)
{
    vmm::Device dev(smallDevice(32_MiB));
    const auto a = dev.mallocNative(8_MiB);
    const auto b = dev.mallocNative(8_MiB);
    const auto c = dev.mallocNative(16_MiB);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    ASSERT_TRUE(dev.freeNative(*b).ok());
    // 8 used, 8 free, 16 used -> quarters: # . # #
    const auto map = alloc::renderPhysicalMap(dev.phys(), 4);
    EXPECT_EQ(map, "[#.##]");
}

TEST(PhysicalMap, PartialCellsMarked)
{
    vmm::Device dev(smallDevice(32_MiB));
    ASSERT_TRUE(dev.mallocNative(4_MiB).ok());
    // One cell covering 32 MiB, only 4 MiB used -> '+'.
    const auto map = alloc::renderPhysicalMap(dev.phys(), 1);
    EXPECT_EQ(map, "[+]");
}
