/**
 * @file
 * Tests for the compaction-based defragmentation baseline: slab
 * placement, compaction correctness (no overlaps, accounting holds),
 * copy-cost charging, slab draining.
 */

#include <gtest/gtest.h>

#include "alloc/compacting_allocator.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;
using alloc::CompactingAllocator;
using alloc::CompactingConfig;

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity = 256_MiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

CompactingConfig
smallSlabs()
{
    CompactingConfig cfg;
    cfg.slabSize = 32_MiB;
    return cfg;
}

} // namespace

TEST(Compacting, AllocateAndFreeRoundTrip)
{
    vmm::Device dev(smallDevice());
    CompactingAllocator allocator(dev, smallSlabs());
    const auto a = allocator.allocate(10_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(allocator.stats().reservedBytes(), 32_MiB);
    EXPECT_EQ(allocator.slabCount(), 1u);
    ASSERT_TRUE(allocator.deallocate(a->id).ok());
    EXPECT_EQ(allocator.stats().activeBytes(), 0u);
    allocator.checkConsistency();
}

TEST(Compacting, ReusesGapsFirstFit)
{
    vmm::Device dev(smallDevice());
    CompactingAllocator allocator(dev, smallSlabs());
    const auto a = allocator.allocate(10_MiB);
    const auto b = allocator.allocate(10_MiB);
    const auto c = allocator.allocate(10_MiB);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    ASSERT_TRUE(allocator.deallocate(b->id).ok());
    const auto d = allocator.allocate(8_MiB);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->addr, b->addr); // the gap
    EXPECT_EQ(allocator.slabCount(), 1u);
    allocator.checkConsistency();
}

TEST(Compacting, CompactionMergesScatteredSpace)
{
    vmm::Device dev(smallDevice());
    CompactingAllocator allocator(dev, smallSlabs());
    // Fill a slab with 8 x 4 MiB, free every other one: 16 MiB free
    // but the largest gap is 4 MiB.
    std::vector<alloc::AllocId> ids;
    for (int i = 0; i < 8; ++i) {
        const auto a = allocator.allocate(4_MiB);
        ASSERT_TRUE(a.ok());
        ids.push_back(a->id);
    }
    for (int i = 0; i < 8; i += 2)
        ASSERT_TRUE(allocator.deallocate(ids[static_cast<std::size_t>(
                        i)]).ok());

    // A 12 MiB request does not fit any gap; compaction makes room
    // without growing a new slab.
    const auto big = allocator.allocate(12_MiB);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(allocator.slabCount(), 1u);
    EXPECT_EQ(allocator.compactions(), 1u);
    EXPECT_GT(allocator.bytesMoved(), 0u);
    allocator.checkConsistency();
}

TEST(Compacting, CompactionChargesCopyTime)
{
    vmm::Device dev(smallDevice());
    CompactingAllocator allocator(dev, smallSlabs());
    std::vector<alloc::AllocId> ids;
    for (int i = 0; i < 8; ++i) {
        const auto a = allocator.allocate(4_MiB);
        ASSERT_TRUE(a.ok());
        ids.push_back(a->id);
    }
    for (int i = 0; i < 8; i += 2)
        ASSERT_TRUE(allocator.deallocate(ids[static_cast<std::size_t>(
                        i)]).ok());

    const Tick before = dev.now();
    const auto big = allocator.allocate(12_MiB);
    ASSERT_TRUE(big.ok());
    // At least the sync plus the copy of the moved bytes.
    EXPECT_GT(dev.now() - before, 100'000);
}

TEST(Compacting, MigrationDrainsSlabsBackToDevice)
{
    vmm::Device dev(smallDevice());
    CompactingAllocator allocator(dev, smallSlabs());
    // Two slabs, each mostly empty after frees.
    std::vector<alloc::AllocId> keep;
    std::vector<alloc::AllocId> drop;
    for (int i = 0; i < 14; ++i) {
        const auto a = allocator.allocate(4_MiB);
        ASSERT_TRUE(a.ok());
        // Keep one block in each slab (8 x 4 MiB fill slab 0).
        ((i == 0 || i == 13) ? keep : drop).push_back(a->id);
    }
    EXPECT_EQ(allocator.slabCount(), 2u);
    for (const auto id : drop)
        ASSERT_TRUE(allocator.deallocate(id).ok());

    // A request larger than any gap triggers compaction; migration
    // packs the two survivors into one slab and the other drains.
    const auto big = allocator.allocate(30_MiB);
    ASSERT_TRUE(big.ok());
    allocator.checkConsistency();
    EXPECT_GE(allocator.compactions(), 1u);
    // All three allocations fit in two slabs after migration.
    EXPECT_LE(allocator.slabCount(), 2u);
}

TEST(Compacting, BigRequestGetsExactSlab)
{
    vmm::Device dev(smallDevice());
    CompactingAllocator allocator(dev, smallSlabs());
    const auto big = allocator.allocate(100_MiB);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(allocator.stats().reservedBytes(), 100_MiB);
    allocator.checkConsistency();
}

TEST(Compacting, OomWhenDeviceExhausted)
{
    vmm::Device dev(smallDevice(64_MiB));
    CompactingAllocator allocator(dev, smallSlabs());
    const auto a = allocator.allocate(60_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(allocator.allocate(32_MiB).code(), Errc::outOfMemory);
    allocator.checkConsistency();
}

TEST(Compacting, EmptyCacheReleasesIdleSlabs)
{
    vmm::Device dev(smallDevice());
    CompactingAllocator allocator(dev, smallSlabs());
    const auto a = allocator.allocate(10_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(allocator.deallocate(a->id).ok());
    allocator.emptyCache();
    EXPECT_EQ(allocator.slabCount(), 0u);
    EXPECT_EQ(allocator.stats().reservedBytes(), 0u);
    EXPECT_EQ(dev.phys().inUse(), 0u);
}

TEST(Compacting, UnknownIdAndZeroByteRejected)
{
    vmm::Device dev(smallDevice());
    CompactingAllocator allocator(dev, smallSlabs());
    EXPECT_EQ(allocator.deallocate(9).code(), Errc::invalidValue);
    EXPECT_EQ(allocator.allocate(0).code(), Errc::invalidValue);
}

TEST(Compacting, RandomWalkStaysConsistent)
{
    vmm::Device dev(smallDevice(1_GiB));
    CompactingAllocator allocator(dev, smallSlabs());
    std::vector<alloc::AllocId> live;
    std::uint64_t x = 4242;
    auto rnd = [&x]() {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 2500; ++i) {
        if (live.empty() || rnd() % 3 != 0) {
            const auto a =
                allocator.allocate(512 + rnd() % (6_MiB));
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
        if (i % 300 == 0)
            allocator.checkConsistency();
    }
    allocator.checkConsistency();
    EXPECT_GE(allocator.stats().reservedBytes(),
              allocator.stats().activeBytes());
}
