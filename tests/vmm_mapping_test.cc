/**
 * @file
 * Mapping table tests: VA->PA mapping semantics, the multi-VA
 * aliasing that virtual memory stitching relies on, and the error
 * paths for malformed map/unmap requests.
 */

#include <gtest/gtest.h>

#include "support/units.hh"
#include "vmm/mapping_table.hh"
#include "vmm/phys_memory.hh"

using namespace gmlake;
using namespace gmlake::literals;
using vmm::MappingTable;
using vmm::PhysMemory;

namespace
{

class MappingTest : public ::testing::Test
{
  protected:
    MappingTest() : phys(64_MiB, 2_MiB), table(phys) {}

    PhysHandle
    chunk()
    {
        const auto h = phys.create(2_MiB);
        EXPECT_TRUE(h.ok());
        return *h;
    }

    PhysMemory phys;
    MappingTable table;
    static constexpr VirtAddr base = 0x100000000ULL;
};

} // namespace

TEST_F(MappingTest, MapAndTranslate)
{
    const PhysHandle h = chunk();
    ASSERT_TRUE(table.map(base, h).ok());
    EXPECT_EQ(*table.translate(base), h);
    EXPECT_EQ(*table.translate(base + 2_MiB - 1), h);
    EXPECT_EQ(table.translate(base + 2_MiB).code(), Errc::notMapped);
    EXPECT_EQ(phys.mapRefs(h), 1u);
}

TEST_F(MappingTest, OverlapRejected)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base, h1).ok());
    EXPECT_EQ(table.map(base, h2).code(), Errc::alreadyMapped);
    EXPECT_EQ(table.map(base + 1_MiB, h2).code(), Errc::alreadyMapped);
    // Adjacent is fine.
    EXPECT_TRUE(table.map(base + 2_MiB, h2).ok());
}

TEST_F(MappingTest, SameHandleAtTwoAddresses)
{
    // The core trick of VMS: one physical chunk, several VAs.
    const PhysHandle h = chunk();
    ASSERT_TRUE(table.map(base, h).ok());
    ASSERT_TRUE(table.map(base + 64_MiB, h).ok());
    EXPECT_EQ(phys.mapRefs(h), 2u);
    EXPECT_EQ(*table.translate(base), h);
    EXPECT_EQ(*table.translate(base + 64_MiB), h);
}

TEST_F(MappingTest, UnmapExactRange)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base, h1).ok());
    ASSERT_TRUE(table.map(base + 2_MiB, h2).ok());
    ASSERT_TRUE(table.unmap(base, 4_MiB).ok());
    EXPECT_EQ(phys.mapRefs(h1), 0u);
    EXPECT_EQ(phys.mapRefs(h2), 0u);
    EXPECT_EQ(table.mappingCount(), 0u);
}

TEST_F(MappingTest, UnmapCannotSplitAMapping)
{
    const PhysHandle h = chunk();
    ASSERT_TRUE(table.map(base, h).ok());
    EXPECT_EQ(table.unmap(base, 1_MiB).code(), Errc::invalidValue);
    EXPECT_EQ(table.unmap(base + 1_MiB, 1_MiB).code(),
              Errc::invalidValue);
}

TEST_F(MappingTest, UnmapUnmappedRangeFails)
{
    EXPECT_EQ(table.unmap(base, 2_MiB).code(), Errc::notMapped);
}

TEST_F(MappingTest, SetAccessAndAccessible)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base, h1).ok());
    ASSERT_TRUE(table.map(base + 2_MiB, h2).ok());
    EXPECT_FALSE(table.accessible(base, 4_MiB));
    ASSERT_TRUE(table.setAccess(base, 4_MiB).ok());
    EXPECT_TRUE(table.accessible(base, 4_MiB));
    EXPECT_TRUE(table.accessible(base + 1_MiB, 2_MiB));
    // Beyond the mapped range there is a gap.
    EXPECT_FALSE(table.accessible(base, 6_MiB));
}

TEST_F(MappingTest, SetAccessOnUnmappedFails)
{
    EXPECT_EQ(table.setAccess(base, 2_MiB).code(), Errc::notMapped);
}

TEST_F(MappingTest, MappingsInReportsOrderedEntries)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base + 2_MiB, h2).ok());
    ASSERT_TRUE(table.map(base, h1).ok());
    const auto entries = table.mappingsIn(base, 4_MiB);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].va, base);
    EXPECT_EQ(entries[0].handle, h1);
    EXPECT_EQ(entries[1].va, base + 2_MiB);
    EXPECT_EQ(entries[1].handle, h2);
}

TEST_F(MappingTest, MapUnknownHandleFails)
{
    EXPECT_EQ(table.map(base, 4242).code(), Errc::invalidValue);
}

// ------------------------------------------------- batched entry points

TEST_F(MappingTest, MapRangeCoalescesIntoOneExtent)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const PhysHandle h3 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}, {base + 4_MiB, h3}};
    ASSERT_TRUE(table.mapRange(batch).ok());
    // Three chunk-level mappings, one coalesced extent.
    EXPECT_EQ(table.mappingCount(), 3u);
    EXPECT_EQ(table.extentCount(), 1u);
    EXPECT_EQ(phys.mapRefs(h1), 1u);
    EXPECT_EQ(phys.mapRefs(h2), 1u);
    EXPECT_EQ(phys.mapRefs(h3), 1u);
    // translate resolves each chunk across the coalesced extent.
    EXPECT_EQ(*table.translate(base), h1);
    EXPECT_EQ(*table.translate(base + 2_MiB), h2);
    EXPECT_EQ(*table.translate(base + 4_MiB + 1), h3);
    EXPECT_EQ(*table.translate(base + 6_MiB - 1), h3);
    EXPECT_EQ(table.translate(base + 6_MiB).code(), Errc::notMapped);
    const auto entries = table.mappingsIn(base, 6_MiB);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].handle, h1);
    EXPECT_EQ(entries[1].va, base + 2_MiB);
    EXPECT_EQ(entries[2].handle, h3);
}

TEST_F(MappingTest, MapRangeOverlapLeavesTableUntouched)
{
    const PhysHandle mid = chunk();
    ASSERT_TRUE(table.map(base + 2_MiB, mid).ok());

    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    // The second target collides with the pre-existing mapping.
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}};
    EXPECT_EQ(table.mapRange(batch).code(), Errc::alreadyMapped);
    // Partial-failure atomicity: nothing from the batch landed.
    EXPECT_EQ(table.mappingCount(), 1u);
    EXPECT_EQ(phys.mapRefs(h1), 0u);
    EXPECT_EQ(phys.mapRefs(h2), 0u);
    EXPECT_EQ(table.translate(base).code(), Errc::notMapped);
}

TEST_F(MappingTest, MapRangeUnknownHandleLeavesTableUntouched)
{
    const PhysHandle h1 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, 424242}};
    EXPECT_EQ(table.mapRange(batch).code(), Errc::invalidValue);
    EXPECT_EQ(table.mappingCount(), 0u);
    EXPECT_EQ(phys.mapRefs(h1), 0u);
}

TEST_F(MappingTest, MapRangeRejectsUnsortedBatch)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base + 2_MiB, h1}, {base, h2}};
    EXPECT_EQ(table.mapRange(batch).code(), Errc::invalidValue);
    EXPECT_EQ(table.mappingCount(), 0u);
}

TEST_F(MappingTest, UnmapSplitsCoalescedExtentAtChunkBoundary)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const PhysHandle h3 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}, {base + 4_MiB, h3}};
    ASSERT_TRUE(table.mapRange(batch).ok());

    // Carve the middle chunk out of the coalesced extent.
    ASSERT_TRUE(table.unmap(base + 2_MiB, 2_MiB).ok());
    EXPECT_EQ(table.mappingCount(), 2u);
    EXPECT_EQ(table.extentCount(), 2u);
    EXPECT_EQ(phys.mapRefs(h2), 0u);
    EXPECT_EQ(*table.translate(base), h1);
    EXPECT_EQ(table.translate(base + 2_MiB).code(), Errc::notMapped);
    EXPECT_EQ(*table.translate(base + 4_MiB), h3);

    // Mid-chunk cuts are still rejected.
    EXPECT_EQ(table.unmap(base + 1_MiB, 1_MiB).code(),
              Errc::invalidValue);
    EXPECT_EQ(table.unmap(base, 1_MiB).code(), Errc::invalidValue);
}

TEST_F(MappingTest, SetAccessSplitsMixedStateExtent)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const PhysHandle h3 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}, {base + 4_MiB, h3}};
    ASSERT_TRUE(table.mapRange(batch).ok());

    // Grant access to the middle chunk only: the extent splits so
    // chunk-level access state is preserved exactly.
    ASSERT_TRUE(table.setAccess(base + 2_MiB, 2_MiB).ok());
    EXPECT_FALSE(table.accessible(base, 2_MiB));
    EXPECT_TRUE(table.accessible(base + 2_MiB, 2_MiB));
    EXPECT_FALSE(table.accessible(base + 4_MiB, 2_MiB));
    EXPECT_FALSE(table.accessible(base, 6_MiB));
    // Chunk count is unchanged; the extents multiplied.
    EXPECT_EQ(table.mappingCount(), 3u);
    EXPECT_EQ(table.extentCount(), 3u);

    ASSERT_TRUE(table.setAccess(base, 6_MiB).ok());
    EXPECT_TRUE(table.accessible(base, 6_MiB));
}

TEST_F(MappingTest, RangeStatsMatchMappingsIn)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const auto big = phys.create(4_MiB);
    ASSERT_TRUE(big.ok());
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}, {base + 4_MiB, *big}};
    ASSERT_TRUE(table.mapRange(batch).ok());

    for (const auto &[va, size] :
         {std::pair<VirtAddr, Bytes>{base, 8_MiB},
          {base, 2_MiB},
          {base + 2_MiB, 4_MiB},
          {base + 1_MiB, 2_MiB},
          {base + 6_MiB, 2_MiB}}) {
        const auto stats = table.rangeStats(va, size);
        const auto entries = table.mappingsIn(va, size);
        EXPECT_EQ(stats.chunks, entries.size()) << va;
        Bytes bytes = 0;
        for (const auto &e : entries)
            bytes += e.size;
        EXPECT_EQ(stats.bytes, bytes) << va;
        EXPECT_EQ(table.hasMappingsIn(va, size), !entries.empty())
            << va;
    }

    // The scratch-filling overload agrees with the allocating one.
    std::vector<MappingTable::Entry> scratch;
    table.mappingsIn(base, 8_MiB, scratch);
    const auto fresh = table.mappingsIn(base, 8_MiB);
    ASSERT_EQ(scratch.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(scratch[i].va, fresh[i].va);
        EXPECT_EQ(scratch[i].handle, fresh[i].handle);
    }
}
