/**
 * @file
 * Physical memory manager tests: capacity accounting, granularity
 * checks, mapping refcounts.
 */

#include <gtest/gtest.h>

#include "support/units.hh"
#include "vmm/phys_memory.hh"

using namespace gmlake;
using namespace gmlake::literals;
using vmm::PhysMemory;

TEST(PhysMemory, CreateAndRelease)
{
    PhysMemory phys(16_MiB);
    const auto h = phys.create(4_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(phys.inUse(), 4_MiB);
    EXPECT_EQ(phys.available(), 12_MiB);
    EXPECT_TRUE(phys.isLive(*h));
    EXPECT_TRUE(phys.release(*h).ok());
    EXPECT_EQ(phys.inUse(), 0u);
    EXPECT_FALSE(phys.isLive(*h));
}

TEST(PhysMemory, PeakTracksHighWaterMark)
{
    PhysMemory phys(16_MiB);
    const auto a = phys.create(8_MiB);
    const auto b = phys.create(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(phys.release(*a).ok());
    EXPECT_EQ(phys.inUse(), 4_MiB);
    EXPECT_EQ(phys.peakInUse(), 12_MiB);
}

TEST(PhysMemory, RejectsUnalignedSize)
{
    PhysMemory phys(16_MiB);
    EXPECT_EQ(phys.create(3_MiB).code(), Errc::invalidValue);
    EXPECT_EQ(phys.create(0).code(), Errc::invalidValue);
}

TEST(PhysMemory, OutOfMemoryAtCapacity)
{
    PhysMemory phys(8_MiB);
    const auto a = phys.create(6_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(phys.create(4_MiB).code(), Errc::outOfMemory);
    // Exactly filling the device is allowed.
    EXPECT_TRUE(phys.create(2_MiB).ok());
}

TEST(PhysMemory, ReleaseUnknownHandleFails)
{
    PhysMemory phys(8_MiB);
    EXPECT_EQ(phys.release(1234).code(), Errc::invalidValue);
}

TEST(PhysMemory, MapRefsBlockRelease)
{
    PhysMemory phys(8_MiB);
    const auto h = phys.create(2_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(phys.addMapRef(*h).ok());
    EXPECT_TRUE(phys.addMapRef(*h).ok());
    EXPECT_EQ(phys.mapRefs(*h), 2u);
    EXPECT_EQ(phys.release(*h).code(), Errc::handleInUse);
    EXPECT_TRUE(phys.dropMapRef(*h).ok());
    EXPECT_EQ(phys.release(*h).code(), Errc::handleInUse);
    EXPECT_TRUE(phys.dropMapRef(*h).ok());
    EXPECT_TRUE(phys.release(*h).ok());
}

TEST(PhysMemory, DropRefWithoutMapFails)
{
    PhysMemory phys(8_MiB);
    const auto h = phys.create(2_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(phys.dropMapRef(*h).code(), Errc::notMapped);
    EXPECT_EQ(phys.dropMapRef(999).code(), Errc::invalidValue);
}

TEST(PhysMemory, SizeOf)
{
    PhysMemory phys(8_MiB);
    const auto h = phys.create(6_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*phys.sizeOf(*h), 6_MiB);
    EXPECT_EQ(phys.sizeOf(77).code(), Errc::invalidValue);
}

TEST(PhysMemory, HandlesAreUnique)
{
    PhysMemory phys(8_MiB);
    const auto a = phys.create(2_MiB);
    const auto b = phys.create(2_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NE(*a, *b);
    // Released ids are not recycled.
    EXPECT_TRUE(phys.release(*a).ok());
    const auto c = phys.create(2_MiB);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(*c, *a);
}
