#include "vmm/mapping_table.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"
#include "vmm/phys_memory.hh"

namespace gmlake::vmm
{

namespace
{
constexpr std::size_t kNoBoundary =
    std::numeric_limits<std::size_t>::max();
} // namespace

MappingTable::MappingTable(PhysMemory &phys)
    : mPhys(phys)
{
}

bool
MappingTable::overlaps(VirtAddr va, Bytes size) const
{
    auto it = mExtents.upper_bound(va);
    if (it != mExtents.end() && it->first < va + size)
        return true;
    if (it != mExtents.begin()) {
        --it;
        if (it->first + it->second.size > va)
            return true;
    }
    return false;
}

std::size_t
MappingTable::chunkBoundary(VirtAddr extentVa, const Extent &extent,
                            VirtAddr va)
{
    if (va == extentVa)
        return 0;
    VirtAddr cursor = extentVa;
    for (std::size_t i = 0; i < extent.chunks.size(); ++i) {
        cursor += extent.chunks[i].size;
        if (cursor == va)
            return i + 1;
        if (cursor > va)
            return kNoBoundary; // inside chunk i
    }
    return kNoBoundary; // beyond the extent
}

std::map<VirtAddr, MappingTable::Extent>::iterator
MappingTable::splitExtent(std::map<VirtAddr, Extent>::iterator it,
                          std::size_t at)
{
    Extent &head = it->second;
    GMLAKE_ASSERT(at > 0 && at < head.chunks.size(),
                  "split must leave two non-empty extents");
    Bytes headSize = 0;
    for (std::size_t i = 0; i < at; ++i)
        headSize += head.chunks[i].size;
    const VirtAddr tailVa = it->first + headSize;

    Extent tail;
    tail.accessible = head.accessible;
    tail.size = head.size - headSize;
    tail.chunks.assign(
        head.chunks.begin() + static_cast<std::ptrdiff_t>(at),
        head.chunks.end());
    head.chunks.resize(at);
    head.size = headSize;
    return mExtents.emplace_hint(std::next(it), tailVa,
                                 std::move(tail));
}

// ------------------------------------------------------------- map

std::map<VirtAddr, MappingTable::Extent>::iterator
MappingTable::installChunk(VirtAddr va, PhysHandle handle, Bytes size,
                           std::size_t room)
{
    auto it = mExtents.upper_bound(va);
    if (it != mExtents.begin()) {
        auto prev = std::prev(it);
        // Coalesce with a virtually-adjacent extent that is still
        // being assembled (same pre-setAccess state).
        if (!prev->second.accessible &&
            prev->first + prev->second.size == va) {
            prev->second.chunks.push_back(Chunk{handle, size});
            prev->second.size += size;
            ++mChunkCount;
            return prev;
        }
    }
    Extent extent;
    extent.size = size;
    extent.accessible = false;
    extent.chunks.reserve(room);
    extent.chunks.push_back(Chunk{handle, size});
    const auto inserted =
        mExtents.emplace_hint(it, va, std::move(extent));
    ++mChunkCount;
    return inserted;
}

Status
MappingTable::map(VirtAddr va, PhysHandle handle)
{
    const std::pair<VirtAddr, PhysHandle> entry{va, handle};
    PhysMemory::Slot *const slot = mPhys.slot(handle);
    return mapSlots({&entry, 1}, {&slot, 1});
}

Status
MappingTable::mapRange(
    std::span<const std::pair<VirtAddr, PhysHandle>> batch)
{
    std::vector<PhysMemory::Slot *> slots;
    slots.reserve(batch.size());
    for (const auto &entry : batch)
        slots.push_back(mPhys.slot(entry.second));
    return mapSlots(batch, slots);
}

Status
MappingTable::mapSlots(
    std::span<const std::pair<VirtAddr, PhysHandle>> batch,
    std::span<PhysMemory::Slot *const> slots)
{
    GMLAKE_ASSERT(slots.size() == batch.size(),
                  "one resolved slot per batch entry");
    if (batch.empty())
        return Status::success();

    // Validate everything first: handle liveness, batch ordering,
    // and overlap against the existing extents. Nothing below this
    // block may fail.
    VirtAddr prevEnd = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (slots[i] == nullptr)
            return PhysMemory::unknownHandle();
        if (i > 0 && batch[i].first < prevEnd) {
            return makeError(Errc::invalidValue,
                             "cuMemMap batch targets overlap or are "
                             "unsorted");
        }
        prevEnd = batch[i].first + slots[i]->size;
    }
    {
        // One merge-walk over the extents covering the batch span
        // replaces a per-chunk overlap probe.
        const VirtAddr lo = batch.front().first;
        const VirtAddr hi = prevEnd;
        auto it = mExtents.upper_bound(lo);
        if (it != mExtents.begin())
            --it; // may end after lo
        std::size_t i = 0;
        for (; it != mExtents.end() && it->first < hi; ++it) {
            const VirtAddr extentLo = it->first;
            const VirtAddr extentHi = extentLo + it->second.size;
            while (i < batch.size() &&
                   batch[i].first + slots[i]->size <= extentLo)
                ++i;
            if (i < batch.size() && batch[i].first < extentHi) {
                return makeError(
                    Errc::alreadyMapped,
                    "cuMemMap target VA range already mapped");
            }
        }
    }

    // Apply: append chunks, keeping the tail extent iterator so a
    // contiguous batch skips the tree probe on every entry but the
    // first (installChunk handles the general case).
    auto cur = mExtents.end();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const VirtAddr va = batch[i].first;
        const PhysHandle handle = batch[i].second;
        const Bytes size = slots[i]->size;
        ++slots[i]->mapRefs;
        if (cur != mExtents.end() && !cur->second.accessible &&
            cur->first + cur->second.size == va) {
            cur->second.chunks.push_back(Chunk{handle, size});
            cur->second.size += size;
            ++mChunkCount;
            continue;
        }
        cur = installChunk(va, handle, size, batch.size() - i);
    }
    return Status::success();
}

// ----------------------------------------------------------- unmap

Status
MappingTable::unmap(VirtAddr va, Bytes size)
{
    // Validate every boundary before touching the table.
    const VirtAddr end = va + size;
    auto it = mExtents.lower_bound(va);
    if (it != mExtents.begin()) {
        auto prev = std::prev(it); // prev->first < va
        const VirtAddr prevEnd = prev->first + prev->second.size;
        if (prevEnd > va) {
            // The range begins inside an extent: legal only on a
            // chunk boundary (the coalesced pieces were separate
            // mappings).
            if (chunkBoundary(prev->first, prev->second, va) ==
                kNoBoundary) {
                return makeError(Errc::invalidValue,
                                 "cuMemUnmap range splits a mapping");
            }
            if (prevEnd > end &&
                chunkBoundary(prev->first, prev->second, end) ==
                    kNoBoundary) {
                return makeError(Errc::invalidValue,
                                 "cuMemUnmap range splits a mapping");
            }
        }
    }
    for (auto probe = it; probe != mExtents.end() && probe->first < end;
         ++probe) {
        if (probe->first + probe->second.size > end &&
            chunkBoundary(probe->first, probe->second, end) ==
                kNoBoundary) {
            return makeError(Errc::invalidValue,
                             "cuMemUnmap range splits a mapping");
        }
    }
    if (!hasMappingsIn(va, size))
        return makeError(Errc::notMapped,
                         "cuMemUnmap of an unmapped range");

    if (it != mExtents.begin()) {
        auto prev = std::prev(it); // prev->first < va, so at >= 1
        if (prev->first + prev->second.size > va) {
            const std::size_t at =
                chunkBoundary(prev->first, prev->second, va);
            it = splitExtent(prev, at); // tail starts at va
        }
    }
    while (it != mExtents.end() && it->first < end) {
        if (it->first + it->second.size > end) {
            const std::size_t at =
                chunkBoundary(it->first, it->second, end);
            splitExtent(it, at); // keep [it->first, end) as victim
        }
        for (const Chunk &chunk : it->second.chunks) {
            const Status s = mPhys.dropMapRef(chunk.handle);
            GMLAKE_ASSERT(s.ok(), "mapping refers to a dead handle");
        }
        mChunkCount -= it->second.chunks.size();
        it = mExtents.erase(it);
    }
    return Status::success();
}

// ------------------------------------------------------- setAccess

Status
MappingTable::setAccess(VirtAddr va, Bytes size)
{
    if (!hasMappingsIn(va, size))
        return makeError(Errc::notMapped,
                         "cuMemSetAccess over an unmapped range");

    const VirtAddr end = va + size;
    auto it = mExtents.lower_bound(va);
    if (it != mExtents.begin()) {
        auto prev = std::prev(it); // prev->first < va
        if (prev->first + prev->second.size > va &&
            !prev->second.accessible) {
            // Only the chunks *starting* at or after va flip (CUDA
            // semantics are per mapping); split the suffix off.
            VirtAddr cursor = prev->first;
            std::size_t at = 0;
            while (cursor < va) {
                cursor += prev->second.chunks[at].size;
                ++at;
            }
            if (at < prev->second.chunks.size())
                it = splitExtent(prev, at);
        }
    }
    while (it != mExtents.end() && it->first < end) {
        Extent &extent = it->second;
        if (extent.accessible) {
            ++it;
            continue;
        }
        if (it->first + extent.size > end) {
            // A chunk straddling the range end still flips whole
            // (its start is inside); chunks starting at or beyond
            // the end do not.
            VirtAddr cursor = it->first;
            std::size_t at = 0;
            while (at < extent.chunks.size() && cursor < end) {
                cursor += extent.chunks[at].size;
                ++at;
            }
            // at = number of chunks whose start is < end.
            if (at < extent.chunks.size())
                splitExtent(it, at);
        }
        it->second.accessible = true;
        ++it;
    }
    return Status::success();
}

// --------------------------------------------------------- queries

bool
MappingTable::hasMappingsIn(VirtAddr va, Bytes size) const
{
    const VirtAddr end = va + size;
    auto it = mExtents.upper_bound(va);
    if (it != mExtents.end() && it->first < end)
        return true;
    if (it != mExtents.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.size > va) {
            bool found = false;
            forEachChunkStartingIn(
                prev->first, prev->second, va, end,
                [&](VirtAddr, const Chunk &) {
                    found = true;
                    return false;
                });
            if (found)
                return true;
        }
    }
    return false;
}

void
MappingTable::mappingsIn(VirtAddr va, Bytes size,
                         std::vector<Entry> &out) const
{
    out.clear();
    const VirtAddr end = va + size;
    auto it = mExtents.upper_bound(va);
    if (it != mExtents.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.size > va) {
            forEachChunkStartingIn(
                prev->first, prev->second, va, end,
                [&](VirtAddr chunkVa, const Chunk &chunk) {
                    out.push_back(Entry{chunkVa, chunk.size,
                                        chunk.handle,
                                        prev->second.accessible});
                    return true;
                });
        }
    }
    for (; it != mExtents.end() && it->first < end; ++it) {
        forEachChunkStartingIn(
            it->first, it->second, va, end,
            [&](VirtAddr chunkVa, const Chunk &chunk) {
                out.push_back(Entry{chunkVa, chunk.size,
                                    chunk.handle,
                                    it->second.accessible});
                return true;
            });
    }
}

std::vector<MappingTable::Entry>
MappingTable::mappingsIn(VirtAddr va, Bytes size) const
{
    std::vector<Entry> out;
    mappingsIn(va, size, out);
    return out;
}

MappingTable::RangeStats
MappingTable::rangeStats(VirtAddr va, Bytes size) const
{
    RangeStats stats;
    const VirtAddr end = va + size;
    auto tally = [&](VirtAddr, const Chunk &chunk) {
        ++stats.chunks;
        stats.bytes += chunk.size;
        return true;
    };
    // Only an extent straddling va or the range end is walked; one
    // that starts at or after va and ends inside the range (a whole
    // block's) counts in O(1).
    auto it = mExtents.lower_bound(va);
    if (it != mExtents.begin()) {
        auto prev = std::prev(it); // prev->first < va
        if (prev->first + prev->second.size > va) {
            forEachChunkStartingIn(prev->first, prev->second, va,
                                   end, tally);
        }
    }
    for (; it != mExtents.end() && it->first < end; ++it) {
        if (it->first + it->second.size <= end) {
            stats.chunks += it->second.chunks.size();
            stats.bytes += it->second.size;
            continue;
        }
        forEachChunkStartingIn(it->first, it->second, va, end,
                               tally);
    }
    return stats;
}

bool
MappingTable::accessible(VirtAddr va, Bytes size) const
{
    VirtAddr cursor = va;
    auto it = mExtents.upper_bound(va);
    if (it != mExtents.begin())
        --it;
    for (; it != mExtents.end() && cursor < va + size; ++it) {
        if (it->first > cursor)
            return false; // gap
        if (!it->second.accessible)
            return false;
        cursor = it->first + it->second.size;
    }
    return cursor >= va + size;
}

Expected<PhysHandle>
MappingTable::translate(VirtAddr va) const
{
    auto it = mExtents.upper_bound(va);
    if (it == mExtents.begin())
        return makeError(Errc::notMapped, "translate of unmapped VA");
    --it;
    if (va >= it->first + it->second.size)
        return makeError(Errc::notMapped, "translate of unmapped VA");
    VirtAddr cursor = it->first;
    for (const Chunk &chunk : it->second.chunks) {
        cursor += chunk.size;
        if (va < cursor)
            return chunk.handle;
    }
    GMLAKE_PANIC("extent size out of sync with its chunks");
}

} // namespace gmlake::vmm
