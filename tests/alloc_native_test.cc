/**
 * @file
 * Native allocator tests: direct cudaMalloc/cudaFree with sync
 * penalties, plus stats accounting.
 */

#include <gtest/gtest.h>

#include "alloc/native_allocator.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;
using alloc::NativeAllocator;

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity = 64_MiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

} // namespace

TEST(NativeAllocator, AllocateAndFree)
{
    vmm::Device dev(smallDevice());
    NativeAllocator alloc(dev);
    const auto a = alloc.allocate(5_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->requested, 5_MiB);
    EXPECT_NE(a->addr, kNullAddr);
    EXPECT_EQ(alloc.stats().activeBytes(), 5_MiB);
    EXPECT_EQ(alloc.stats().reservedBytes(), 6_MiB); // granularity
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    EXPECT_EQ(alloc.stats().activeBytes(), 0u);
    EXPECT_EQ(alloc.stats().reservedBytes(), 0u);
    EXPECT_EQ(dev.phys().inUse(), 0u);
}

TEST(NativeAllocator, EveryAllocationHitsTheDevice)
{
    vmm::Device dev(smallDevice());
    NativeAllocator alloc(dev);
    for (int i = 0; i < 5; ++i) {
        const auto a = alloc.allocate(2_MiB);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(alloc.deallocate(a->id).ok());
    }
    // No caching: 5 mallocs and 5 frees reached the device.
    EXPECT_EQ(dev.counters().mallocNative, 5u);
    EXPECT_EQ(dev.counters().freeNative, 5u);
}

TEST(NativeAllocator, OutOfMemoryPropagates)
{
    vmm::Device dev(smallDevice(8_MiB));
    NativeAllocator alloc(dev);
    EXPECT_EQ(alloc.allocate(16_MiB).code(), Errc::outOfMemory);
}

TEST(NativeAllocator, ZeroByteAllocationRejected)
{
    vmm::Device dev(smallDevice());
    NativeAllocator alloc(dev);
    EXPECT_EQ(alloc.allocate(0).code(), Errc::invalidValue);
}

TEST(NativeAllocator, UnknownIdRejected)
{
    vmm::Device dev(smallDevice());
    NativeAllocator alloc(dev);
    EXPECT_EQ(alloc.deallocate(777).code(), Errc::invalidValue);
}

TEST(NativeAllocator, PeaksTrackHighWater)
{
    vmm::Device dev(smallDevice());
    NativeAllocator alloc(dev);
    const auto a = alloc.allocate(8_MiB);
    const auto b = alloc.allocate(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    EXPECT_EQ(alloc.stats().peakActiveBytes(), 12_MiB);
    EXPECT_EQ(alloc.stats().activeBytes(), 4_MiB);
    EXPECT_DOUBLE_EQ(alloc.stats().utilizationRatio(), 1.0);
}
