/**
 * @file
 * BFC caching allocator tests: rounding, pool selection, split and
 * coalesce behaviour, segment caching, emptyCache, OOM retry, and
 * the accounting used for the paper's fragmentation metric.
 */

#include <gtest/gtest.h>

#include "alloc/caching_allocator.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;
using alloc::CachingAllocator;

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

TEST(CachingAllocator, SmallRequestUsesSmallSegment)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(100_KiB);
    ASSERT_TRUE(a.ok());
    // One 2 MiB small-pool segment was reserved.
    EXPECT_EQ(alloc.stats().reservedBytes(), 2_MiB);
    EXPECT_EQ(alloc.segmentCount(), 1u);
    alloc.checkConsistency();
}

TEST(CachingAllocator, MidRequestUses20MiBSegment)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(3_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(alloc.stats().reservedBytes(), 20_MiB);
    alloc.checkConsistency();
}

TEST(CachingAllocator, LargeRequestUsesExactRoundedSegment)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(33_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(alloc.stats().reservedBytes(), 34_MiB);
    alloc.checkConsistency();
}

TEST(CachingAllocator, RequestsRoundTo512)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(1);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(alloc.stats().activeBytes(), 512u);
    alloc.checkConsistency();
}

TEST(CachingAllocator, FreeDoesNotReturnMemoryToDevice)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(30_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    // The segment stays cached (that is the whole point).
    EXPECT_EQ(alloc.stats().reservedBytes(), 30_MiB);
    EXPECT_EQ(alloc.stats().activeBytes(), 0u);
    EXPECT_EQ(dev.counters().freeNative, 0u);
    alloc.checkConsistency();
}

TEST(CachingAllocator, CachedBlockIsReused)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(30_MiB);
    ASSERT_TRUE(a.ok());
    const VirtAddr addr = a->addr;
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    const auto b = alloc.allocate(30_MiB);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->addr, addr);
    EXPECT_EQ(dev.counters().mallocNative, 1u); // only one segment
    alloc.checkConsistency();
}

TEST(CachingAllocator, SplitLeavesRemainderInPool)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto big = alloc.allocate(60_MiB);
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(alloc.deallocate(big->id).ok());

    // A smaller allocation splits the cached 60 MiB block.
    const auto small = alloc.allocate(24_MiB);
    ASSERT_TRUE(small.ok());
    EXPECT_EQ(alloc.stats().reservedBytes(), 60_MiB);
    EXPECT_EQ(alloc.cachedBytes(), 36_MiB);
    alloc.checkConsistency();

    // The remainder serves the next request without device traffic.
    const auto next = alloc.allocate(36_MiB);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(dev.counters().mallocNative, 1u);
    alloc.checkConsistency();
}

TEST(CachingAllocator, NeighboursCoalesceOnFree)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto big = alloc.allocate(60_MiB);
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(alloc.deallocate(big->id).ok());

    const auto a = alloc.allocate(20_MiB);
    const auto b = alloc.allocate(20_MiB);
    const auto c = alloc.allocate(20_MiB);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    ASSERT_TRUE(alloc.deallocate(c->id).ok());
    ASSERT_TRUE(alloc.deallocate(b->id).ok()); // merges all three
    // The whole segment is one free block again and can be reused.
    const auto whole = alloc.allocate(60_MiB);
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(dev.counters().mallocNative, 1u);
    alloc.checkConsistency();
}

TEST(CachingAllocator, EmptyCacheReleasesWholeFreeSegments)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(30_MiB);
    const auto b = alloc.allocate(12_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    alloc.emptyCache();
    // a's segment went back to the device; b's exact-size 12 MiB
    // segment stays (occupied).
    EXPECT_EQ(alloc.stats().reservedBytes(), 12_MiB);
    EXPECT_EQ(dev.counters().freeNative, 1u);
    alloc.checkConsistency();
}

TEST(CachingAllocator, EmptyCacheKeepsPartiallyUsedSegments)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    // Two allocations inside one 20 MiB segment; free only one.
    const auto a = alloc.allocate(4_MiB);
    const auto b = alloc.allocate(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    alloc.emptyCache();
    // The pinned segment cannot be released: fragmentation.
    EXPECT_EQ(alloc.stats().reservedBytes(), 20_MiB);
    alloc.checkConsistency();
}

TEST(CachingAllocator, OomRetriesAfterReleasingCache)
{
    vmm::Device dev(smallDevice(64_MiB));
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(40_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    // 40 MiB is cached; a 60 MiB request does not fit next to it,
    // but succeeds after the allocator flushes its cache.
    const auto b = alloc.allocate(60_MiB);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(alloc.stats().reservedBytes(), 60_MiB);
    alloc.checkConsistency();
}

TEST(CachingAllocator, HardOomPropagates)
{
    vmm::Device dev(smallDevice(32_MiB));
    CachingAllocator alloc(dev);
    const auto a = alloc.allocate(24_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(alloc.allocate(24_MiB).code(), Errc::outOfMemory);
    alloc.checkConsistency();
}

TEST(CachingAllocator, UnknownIdRejected)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    EXPECT_EQ(alloc.deallocate(42).code(), Errc::invalidValue);
}

TEST(CachingAllocator, ZeroByteRejected)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    EXPECT_EQ(alloc.allocate(0).code(), Errc::invalidValue);
}

TEST(CachingAllocator, FragmentationMetricReflectsWaste)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev);
    // Allocate two large blocks, free one, then request a larger
    // block: the freed 40 MiB segment cannot serve it, so reserved
    // grows past the active peak -> fragmentation.
    const auto a = alloc.allocate(40_MiB);
    const auto b = alloc.allocate(40_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    const auto c = alloc.allocate(50_MiB);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(alloc.stats().peakReservedBytes(), 130_MiB);
    EXPECT_EQ(alloc.stats().peakActiveBytes(), 90_MiB);
    EXPECT_GT(alloc.stats().fragmentationRatio(), 0.25);
    alloc.checkConsistency();
}

TEST(CachingAllocator, ManyMixedOpsStayConsistent)
{
    vmm::Device dev(smallDevice(1_GiB));
    CachingAllocator alloc(dev);
    std::vector<alloc::AllocId> live;
    std::uint64_t x = 99;
    auto rnd = [&x]() {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 4000; ++i) {
        if (live.empty() || rnd() % 3 != 0) {
            const Bytes size = 512 + rnd() % (8_MiB);
            const auto a = alloc.allocate(size);
            if (!a.ok()) {
                // The random walk outgrew the device; trim and go on.
                ASSERT_EQ(a.code(), Errc::outOfMemory);
                for (std::size_t k = 0; k < live.size() / 2; ++k) {
                    ASSERT_TRUE(alloc.deallocate(live[k]).ok());
                }
                live.erase(live.begin(),
                           live.begin() + static_cast<std::ptrdiff_t>(
                                              live.size() / 2));
                continue;
            }
            live.push_back(a->id);
        } else {
            const std::size_t idx = rnd() % live.size();
            ASSERT_TRUE(alloc.deallocate(live[idx]).ok());
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        }
        if (i % 512 == 0)
            alloc.checkConsistency();
    }
    alloc.checkConsistency();
    EXPECT_GE(alloc.stats().reservedBytes(),
              alloc.stats().activeBytes());
}
