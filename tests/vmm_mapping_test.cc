/**
 * @file
 * Mapping table tests: VA->PA mapping semantics, the multi-VA
 * aliasing that virtual memory stitching relies on, the error
 * paths for malformed map/unmap requests, and a seeded lockstep run
 * against a naive per-chunk reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

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
    MappingTest() : phys(64_MiB), table(phys) {}

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

// ------------------------------------------------- reference model

namespace
{

/**
 * Naive per-chunk model of the mapping table: one map entry per
 * mapped chunk plus per-handle refcounts, with every rule written
 * out chunk by chunk. The extent table must agree with it after
 * every operation of a seeded random script.
 */
class ChunkModel
{
  public:
    struct Chunk
    {
        PhysHandle handle;
        Bytes size;
        bool accessible;
    };

    std::map<VirtAddr, Chunk> chunks;
    std::map<PhysHandle, std::uint32_t> refs;

    /** The chunk covering byte @p va, or end(). */
    std::map<VirtAddr, Chunk>::const_iterator
    covering(VirtAddr va) const
    {
        auto it = chunks.upper_bound(va);
        if (it == chunks.begin())
            return chunks.end();
        --it;
        return va < it->first + it->second.size ? it : chunks.end();
    }

    /** True when a chunk starts at or after @p va and before @p end. */
    bool
    startsIn(VirtAddr va, VirtAddr end) const
    {
        const auto it = chunks.lower_bound(va);
        return it != chunks.end() && it->first < end;
    }

    /** True when a chunk covers a byte of [va, end). */
    bool
    overlaps(VirtAddr va, VirtAddr end) const
    {
        return covering(va) != chunks.end() || startsIn(va, end);
    }

    /** True when @p va falls strictly inside a chunk. */
    bool
    splits(VirtAddr va) const
    {
        const auto it = covering(va);
        return it != chunks.end() && it->first != va;
    }

    Errc
    mapRange(const std::vector<std::pair<VirtAddr, PhysHandle>> &batch,
             const std::map<PhysHandle, Bytes> &live)
    {
        // Per entry: handle, then order; then overlap.
        VirtAddr prevEnd = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const auto size = live.find(batch[i].second);
            if (size == live.end())
                return Errc::invalidValue;
            if (i > 0 && batch[i].first < prevEnd)
                return Errc::invalidValue;
            prevEnd = batch[i].first + size->second;
        }
        for (const auto &[va, handle] : batch) {
            if (overlaps(va, va + live.at(handle)))
                return Errc::alreadyMapped;
        }
        for (const auto &[va, handle] : batch) {
            chunks.emplace(va, Chunk{handle, live.at(handle), false});
            ++refs[handle];
        }
        return Errc::ok;
    }

    Errc
    unmap(VirtAddr va, Bytes size)
    {
        const VirtAddr end = va + size;
        if (splits(va) || splits(end))
            return Errc::invalidValue;
        if (!startsIn(va, end))
            return Errc::notMapped;
        auto it = chunks.lower_bound(va);
        while (it != chunks.end() && it->first < end) {
            --refs[it->second.handle];
            it = chunks.erase(it);
        }
        return Errc::ok;
    }

    Errc
    setAccess(VirtAddr va, Bytes size)
    {
        const VirtAddr end = va + size;
        if (!startsIn(va, end))
            return Errc::notMapped;
        for (auto it = chunks.lower_bound(va);
             it != chunks.end() && it->first < end; ++it)
            it->second.accessible = true;
        return Errc::ok;
    }

    bool
    accessible(VirtAddr va, Bytes size) const
    {
        VirtAddr cursor = va;
        while (cursor < va + size) {
            const auto it = covering(cursor);
            if (it == chunks.end() || !it->second.accessible)
                return false;
            cursor = it->first + it->second.size;
        }
        return true;
    }
};

class MappingModelTest : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static constexpr VirtAddr base = 0x100000000ULL;
    static constexpr Bytes span = 96_MiB;

    MappingModelTest()
        : phys(256_MiB), table(phys), rng(GetParam())
    {
        for (int i = 0; i < 4; ++i) {
            for (const Bytes size : {2_MiB, 4_MiB, 6_MiB}) {
                const auto h = phys.create(size);
                EXPECT_TRUE(h.ok());
                handles.push_back(*h);
                live.emplace(*h, size);
            }
        }
        const auto dead = phys.create(4_MiB);
        EXPECT_TRUE(dead.ok());
        stale = *dead;
        EXPECT_TRUE(phys.release(stale).ok());
    }

    std::size_t
    pick(std::size_t n)
    {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    }

    /** A VA in [base, base + span) on a @p step boundary. */
    VirtAddr
    anyVa(Bytes step)
    {
        return base + pick(span / step) * step;
    }

    PhysHandle anyHandle() { return handles[pick(handles.size())]; }

    /** Start of a random mapped chunk, or a random VA when none. */
    VirtAddr
    anyChunkVa()
    {
        if (model.chunks.empty())
            return anyVa(2_MiB);
        auto it = model.chunks.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             pick(model.chunks.size())));
        return it->first;
    }

    /**
     * [lo, hi) of the maximal run of virtually-adjacent chunks in one
     * access state around the chunk at @p va: the extent the table
     * keeps, or a union of adjacent ones.
     */
    std::pair<VirtAddr, VirtAddr>
    runAround(VirtAddr va) const
    {
        auto it = model.chunks.find(va);
        const bool state = it->second.accessible;
        auto first = it;
        while (first != model.chunks.begin()) {
            auto prev = std::prev(first);
            if (prev->first + prev->second.size != first->first ||
                prev->second.accessible != state)
                break;
            first = prev;
        }
        auto last = it;
        for (auto next = std::next(last);
             next != model.chunks.end() &&
             last->first + last->second.size == next->first &&
             next->second.accessible == state;
             ++next)
            last = next;
        return {first->first, last->first + last->second.size};
    }

    std::vector<std::pair<VirtAddr, PhysHandle>>
    randomBatch()
    {
        std::vector<std::pair<VirtAddr, PhysHandle>> batch;
        const std::size_t n = 1 + pick(6);
        VirtAddr va = anyVa(2_MiB);
        for (std::size_t i = 0; i < n; ++i) {
            const PhysHandle h = anyHandle();
            batch.emplace_back(va, h);
            va += live.at(h);
            if (pick(3) == 0)
                va += 2_MiB * (1 + pick(2)); // a gap
        }
        switch (pick(5)) {
          case 0: // unsorted
            std::shuffle(batch.begin(), batch.end(), rng);
            break;
          case 1: // two targets overlap
            if (n > 1) {
                const std::size_t i = 1 + pick(n - 1);
                batch[i].first = batch[i - 1].first + 2_MiB * pick(2);
            }
            break;
          case 2: // a stale handle
            batch[pick(n)].second = stale;
            break;
          default: // sorted
            break;
        }
        return batch;
    }

    void
    expectAgree()
    {
        const auto entries =
            table.mappingsIn(base - 64_MiB, span + 128_MiB);
        ASSERT_EQ(entries.size(), model.chunks.size());
        ASSERT_EQ(table.mappingCount(), model.chunks.size());
        auto it = model.chunks.begin();
        for (const auto &e : entries) {
            EXPECT_EQ(e.va, it->first);
            EXPECT_EQ(e.size, it->second.size);
            EXPECT_EQ(e.handle, it->second.handle);
            EXPECT_EQ(e.accessible, it->second.accessible);
            ++it;
        }
        for (const PhysHandle h : handles) {
            const auto refs = model.refs.find(h);
            EXPECT_EQ(phys.mapRefs(h),
                      refs == model.refs.end() ? 0u : refs->second);
        }
        EXPECT_EQ(phys.mapRefs(stale), 0u);

        for (int w = 0; w < 12; ++w) {
            VirtAddr va;
            Bytes size;
            switch (pick(3)) {
              case 0: { // a whole run: starts on an extent base
                  if (model.chunks.empty()) {
                      va = anyVa(1_MiB);
                      size = 2_MiB;
                      break;
                  }
                  const auto [lo, hi] = runAround(anyChunkVa());
                  va = lo;
                  size = hi - lo;
                  break;
              }
              case 1: // from a chunk start
                va = anyChunkVa();
                size = 1_MiB * (1 + pick(24));
                break;
              default:
                va = anyVa(1_MiB);
                size = 1_MiB * (1 + pick(24));
                break;
            }
            SCOPED_TRACE("window " + std::to_string(va - base) + "+" +
                         std::to_string(size));
            std::size_t count = 0;
            Bytes bytes = 0;
            for (auto c = model.chunks.lower_bound(va);
                 c != model.chunks.end() && c->first < va + size; ++c) {
                ++count;
                bytes += c->second.size;
            }
            const auto stats = table.rangeStats(va, size);
            EXPECT_EQ(stats.chunks, count);
            EXPECT_EQ(stats.bytes, bytes);
            EXPECT_EQ(table.hasMappingsIn(va, size), count > 0);
            EXPECT_EQ(table.mappingsIn(va, size).size(), count);
            EXPECT_EQ(table.accessible(va, size),
                      model.accessible(va, size));
            for (const VirtAddr probe : {va, va + size - 1}) {
                const auto c = model.covering(probe);
                const auto got = table.translate(probe);
                if (c == model.chunks.end()) {
                    EXPECT_EQ(got.code(), Errc::notMapped);
                } else {
                    ASSERT_TRUE(got.ok());
                    EXPECT_EQ(*got, c->second.handle);
                }
            }
        }
    }

    PhysMemory phys;
    MappingTable table;
    ChunkModel model;
    std::mt19937_64 rng;
    std::vector<PhysHandle> handles;
    std::map<PhysHandle, Bytes> live;
    PhysHandle stale = kNullHandle;
};

} // namespace

TEST_P(MappingModelTest, LockstepWithPerChunkModel)
{
    for (int op = 0; op < 1000; ++op) {
        std::string what;
        Errc want = Errc::ok;
        Errc got = Errc::ok;
        switch (pick(12)) {
          case 0:
          case 1: { // map
              const VirtAddr va = anyVa(2_MiB);
              const PhysHandle h = pick(8) == 0 ? stale : anyHandle();
              what = "map";
              want = model.mapRange({{va, h}}, live);
              got = table.map(va, h).code();
              break;
          }
          case 2:
          case 3:
          case 4:
          case 5:
          case 6: { // mapRange
              const auto batch = randomBatch();
              what = "mapRange of " + std::to_string(batch.size());
              want = model.mapRange(batch, live);
              got = table.mapRange(batch).code();
              break;
          }
          case 7: { // unmap a whole run
              const auto [lo, hi] = model.chunks.empty()
                                        ? std::pair{base, base + 2_MiB}
                                        : runAround(anyChunkVa());
              what = "unmap run";
              want = model.unmap(lo, hi - lo);
              got = table.unmap(lo, hi - lo).code();
              break;
          }
          case 8: { // unmap chunk-aligned: one chunk's start to
                    // another's end
              VirtAddr lo = anyChunkVa();
              VirtAddr last = anyChunkVa();
              if (last < lo)
                  std::swap(lo, last);
              const auto c = model.chunks.find(last);
              const VirtAddr hi =
                  last + (c == model.chunks.end() ? 2_MiB
                                                  : c->second.size);
              what = "unmap chunks";
              want = model.unmap(lo, hi - lo);
              got = table.unmap(lo, hi - lo).code();
              break;
          }
          case 9: { // unmap with a cut that may land mid-chunk
              const VirtAddr lo = anyChunkVa() + 1_MiB * pick(4);
              const Bytes size = 1_MiB * (1 + pick(12));
              what = "unmap cut";
              want = model.unmap(lo, size);
              got = table.unmap(lo, size).code();
              break;
          }
          default: { // setAccess
              const VirtAddr lo =
                  pick(2) == 0 ? anyChunkVa() : anyVa(1_MiB);
              const Bytes size = 1_MiB * (1 + pick(16));
              what = "setAccess";
              want = model.setAccess(lo, size);
              got = table.setAccess(lo, size).code();
              break;
          }
        }
        SCOPED_TRACE("op " + std::to_string(op) + ": " + what);
        ASSERT_EQ(got, want);
        expectAgree();
        if (HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingModelTest,
                         ::testing::Values(1u, 7u, 42u, 2024u));
