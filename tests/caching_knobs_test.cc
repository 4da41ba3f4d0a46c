/**
 * @file
 * Tests for the PyTorch allocator tuning knobs: max_split_size,
 * roundup_power2_divisions and garbage_collection_threshold.
 */

#include <gtest/gtest.h>

#include "alloc/caching_allocator.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;
using alloc::CachingAllocator;
using alloc::CachingConfig;

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

TEST(MaxSplitSize, OversizeBlocksAreNeverSplit)
{
    CachingConfig cfg;
    cfg.maxSplitSize = 32_MiB;
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev, cfg);

    const auto big = alloc.allocate(60_MiB);
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(alloc.deallocate(big->id).ok());

    // A 50 MiB request leaves only 10 MiB <= largeBuffer: the whole
    // 60 MiB block is handed out unsplit.
    const auto a = alloc.allocate(50_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->addr, big->addr);
    EXPECT_EQ(alloc.stats().activeBytes(), 60_MiB); // whole block
    EXPECT_EQ(alloc.cachedBytes(), 0u);
    alloc.checkConsistency();
}

TEST(MaxSplitSize, OversizeBlocksRejectSmallRequests)
{
    CachingConfig cfg;
    cfg.maxSplitSize = 32_MiB;
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev, cfg);

    const auto big = alloc.allocate(60_MiB);
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(alloc.deallocate(big->id).ok());

    // 12 MiB would waste 48 MiB of an unsplittable block: the
    // allocator grows a fresh segment instead of nibbling it.
    const auto small = alloc.allocate(12_MiB);
    ASSERT_TRUE(small.ok());
    EXPECT_NE(small->addr, big->addr);
    EXPECT_EQ(dev.counters().mallocNative, 2u);
    alloc.checkConsistency();
}

TEST(MaxSplitSize, BelowLimitSplitsNormally)
{
    CachingConfig cfg;
    cfg.maxSplitSize = 128_MiB;
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev, cfg);
    const auto big = alloc.allocate(60_MiB);
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(alloc.deallocate(big->id).ok());
    const auto small = alloc.allocate(12_MiB);
    ASSERT_TRUE(small.ok());
    EXPECT_EQ(small->addr, big->addr); // split as usual
    EXPECT_EQ(dev.counters().mallocNative, 1u);
    alloc.checkConsistency();
}

TEST(RoundupPower2, CollapsesNearMissSizes)
{
    CachingConfig cfg;
    cfg.roundupPower2Divisions = 4;
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev, cfg);

    // 33 MiB rounds to the next 1/4-of-64MiB step: 48 MiB.
    const auto a = alloc.allocate(33_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(alloc.stats().activeBytes(), 48_MiB);
    ASSERT_TRUE(alloc.deallocate(a->id).ok());

    // A 35 MiB request lands in the same size class and reuses it.
    const auto b = alloc.allocate(35_MiB);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->addr, a->addr);
    alloc.checkConsistency();
}

TEST(RoundupPower2, DisabledKeepsFineRounding)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev); // divisions = 0
    const auto a = alloc.allocate(33_MiB);
    ASSERT_TRUE(a.ok());
    // The 34 MiB segment (33 rounded to the 2 MiB segment unit) is
    // handed out whole because the 1 MiB leftover is below the
    // large-pool split threshold — but no power-of-two inflation.
    EXPECT_EQ(alloc.stats().activeBytes(), 34_MiB);
}

TEST(GcThreshold, TrimsCacheBeforeGrowing)
{
    CachingConfig cfg;
    cfg.gcThreshold = 0.25; // 64 MiB of the 256 MiB device
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev, cfg);

    // Cache 80 MiB of freed segments (over the threshold).
    std::vector<alloc::AllocId> ids;
    for (int i = 0; i < 4; ++i) {
        const auto a = alloc.allocate(20_MiB);
        ASSERT_TRUE(a.ok());
        ids.push_back(a->id);
    }
    for (const auto id : ids)
        ASSERT_TRUE(alloc.deallocate(id).ok());
    EXPECT_EQ(alloc.stats().reservedBytes(), 80_MiB);

    // The next growth trims the cache first.
    const auto b = alloc.allocate(40_MiB);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(alloc.stats().reservedBytes(), 40_MiB);
    alloc.checkConsistency();
}

TEST(GcThreshold, DisabledKeepsCache)
{
    vmm::Device dev(smallDevice());
    CachingAllocator alloc(dev); // threshold 0
    const auto a = alloc.allocate(20_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(alloc.deallocate(a->id).ok());
    const auto b = alloc.allocate(40_MiB);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(alloc.stats().reservedBytes(), 60_MiB);
}
