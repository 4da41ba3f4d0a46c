#include "alloc/expandable_allocator.hh"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "alloc/caching_allocator.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/units.hh"

namespace gmlake::alloc
{

namespace
{

/**
 * Virtual address range reserved per segment; physical chunks are
 * mapped into it on demand. 128 GiB: the device capacity bounds
 * actual usage.
 */
constexpr Bytes kSegmentVaSize = Bytes{128} * 1024 * 1024 * 1024;

} // namespace

/**
 * Checkpoint payload: segments keep their vector order (segmentFor
 * scans linearly and mLive addresses by segment index), including
 * their chunk handle vectors and free/live maps.
 */
struct ExpandableSegmentsAllocator::State : AllocatorState
{
    std::vector<Segment> segments;
    std::unordered_map<AllocId, std::pair<std::size_t, Bytes>> live;
    AllocId nextId = 1;
    std::uint64_t chunkMaps = 0;
    std::uint64_t chunkUnmaps = 0;
    AllocatorStats::Snapshot stats;
};

Checkpoint
ExpandableSegmentsAllocator::saveState() const
{
    auto state = std::make_shared<State>();
    state->segments = mSegments;
    state->live = mLive;
    state->nextId = mNextId;
    state->chunkMaps = mChunkMaps;
    state->chunkUnmaps = mChunkUnmaps;
    state->stats = mStats.capture();
    return Checkpoint{name(), mDevice.saveState(),
                      std::move(state)};
}

void
ExpandableSegmentsAllocator::restoreState(const Checkpoint &checkpoint)
{
    GMLAKE_ASSERT(checkpoint.allocator == name(),
                  "checkpoint from allocator '",
                  checkpoint.allocator,
                  "' restored into expandable");
    const auto *state =
        dynamic_cast<const State *>(checkpoint.state.get());
    GMLAKE_ASSERT(state != nullptr,
                  "malformed expandable checkpoint");
    mDevice.restoreState(checkpoint.device);
    mSegments = state->segments;
    mLive = state->live;
    mNextId = state->nextId;
    mChunkMaps = state->chunkMaps;
    mChunkUnmaps = state->chunkUnmaps;
    mStats.restore(state->stats);
}

ExpandableSegmentsAllocator::ExpandableSegmentsAllocator(
    vmm::Device &device)
    : mDevice(device)
{
}

ExpandableSegmentsAllocator::~ExpandableSegmentsAllocator()
{
    // Hand the device back everything the segments hold, live blocks
    // included: their chunks, then their reservations.
    try {
        for (Segment &segment : mSegments) {
            if (segment.mapped > 0)
                unmapFrom(segment, 0);
            const Status s = mDevice.memAddressFree(segment.base);
            GMLAKE_ASSERT(s.ok(), "segment VA free failed");
        }
    } catch (const PanicError &) {
        // Already reported on stderr; a destructor must not throw,
        // and it may be running while another panic unwinds.
    }
}

ExpandableSegmentsAllocator::Segment &
ExpandableSegmentsAllocator::segmentFor(StreamId stream)
{
    for (auto &segment : mSegments) {
        if (segment.stream == stream)
            return segment;
    }
    const auto va = mDevice.memAddressReserve(kSegmentVaSize);
    GMLAKE_ASSERT(va.ok(), "segment VA reservation failed: ",
                  va.ok() ? "" : va.error().message);
    Segment segment;
    segment.base = *va;
    segment.vaSize = kSegmentVaSize;
    segment.stream = stream;
    mSegments.push_back(std::move(segment));
    return mSegments.back();
}

Status
ExpandableSegmentsAllocator::growMapping(Segment &segment, Bytes upTo)
{
    const Bytes target = roundUp(upTo, vmm::kGranularity);
    GMLAKE_ASSERT(target <= segment.vaSize,
                  "segment VA reservation exhausted");
    if (target <= segment.mapped)
        return Status::success();

    // One device call creates and maps the new tail chunks; it
    // unwinds itself when a create or map fails, and a failed
    // setAccess unwinds the fresh mapping here, so a failed growth
    // leaves the segment and the device as they were.
    const Bytes growStart = segment.mapped;
    const VirtAddr growVa = segment.base + growStart;
    const std::size_t had = segment.chunks.size();
    const std::size_t count = (target - growStart) / vmm::kGranularity;
    segment.chunks.resize(had + count);
    const auto fresh = std::span(segment.chunks).subspan(had);
    Status grown =
        mDevice.memCreateMapRun(growVa, vmm::kGranularity, fresh);
    if (grown.ok()) {
        grown = mDevice.memSetAccess(growVa, target - growStart);
        if (!grown.ok())
            mDevice.memUnmapReleaseRun(growVa, vmm::kGranularity, fresh);
    }
    if (!grown.ok()) {
        segment.chunks.resize(had);
        return grown;
    }
    mChunkMaps += count;
    segment.mapped = target;
    mStats.onReserve(target - growStart);
    return Status::success();
}

void
ExpandableSegmentsAllocator::trimTail(Segment &segment)
{
    // The tail is trimmable when the last gap of the mapped range is
    // free: unmap the chunk-aligned part of that gap.
    if (segment.free.empty())
        return;
    auto last = std::prev(segment.free.end());
    const Bytes gapStart = last->first;
    if (gapStart + last->second != segment.mapped)
        return; // the tail is live
    const Bytes keep = roundUp(gapStart, vmm::kGranularity);
    if (keep >= segment.mapped)
        return; // less than one chunk to give back
    unmapFrom(segment, keep);

    // Shrink or drop the tail gap.
    if (gapStart == keep) {
        segment.free.erase(last);
    } else {
        last->second = keep - gapStart;
    }
}

void
ExpandableSegmentsAllocator::unmapFrom(Segment &segment, Bytes keep)
{
    const Bytes dropBytes = segment.mapped - keep;
    const std::size_t dropChunks = dropBytes / vmm::kGranularity;
    const Status s = mDevice.memUnmap(segment.base + keep, dropBytes);
    GMLAKE_ASSERT(s.ok(), "tail unmap failed");
    // Released last chunk first, as the tail shrinks.
    const auto tail = segment.chunks.end() -
                      static_cast<std::ptrdiff_t>(dropChunks);
    std::reverse(tail, segment.chunks.end());
    const vmm::RunStatus released =
        mDevice.memReleaseRun(std::span(tail, segment.chunks.end()));
    GMLAKE_ASSERT(released.ok(), "tail release failed");
    segment.chunks.erase(tail, segment.chunks.end());
    mChunkUnmaps += dropChunks;
    segment.mapped = keep;
    mStats.onRelease(dropBytes);
}

void
ExpandableSegmentsAllocator::insertFree(Segment &segment, Bytes offset,
                                        Bytes size)
{
    // Coalesce with the following gap.
    auto next = segment.free.lower_bound(offset);
    if (next != segment.free.end() && offset + size == next->first) {
        size += next->second;
        segment.free.erase(next);
    }
    // Coalesce with the preceding gap.
    auto prev = segment.free.lower_bound(offset);
    if (prev != segment.free.begin()) {
        --prev;
        if (prev->first + prev->second == offset) {
            offset = prev->first;
            size += prev->second;
            segment.free.erase(prev);
        }
    }
    segment.free.emplace(offset, size);
}

VirtAddr
ExpandableSegmentsAllocator::place(std::size_t segIndex, Bytes offset,
                                   Bytes size, AllocId id)
{
    Segment &segment = mSegments[segIndex];
    const auto gap = segment.free.find(offset);
    GMLAKE_ASSERT(gap != segment.free.end() && gap->second >= size,
                  "place target is not a sufficient gap");
    const Bytes rest = gap->second - size;
    segment.free.erase(gap);
    if (rest > 0)
        segment.free.emplace(offset + size, rest);
    segment.live.emplace(offset, std::make_pair(size, id));
    mLive.emplace(id, std::make_pair(segIndex, offset));
    mStats.onAllocate(size);
    return segment.base + offset;
}

Expected<Allocation>
ExpandableSegmentsAllocator::allocate(Bytes size, StreamId stream)
{
    if (size == 0)
        return makeError(Errc::invalidValue, "allocate of zero bytes");
    if (stream == kAnyStream)
        return makeError(Errc::invalidValue,
                         "cannot allocate on the sentinel stream");
    mDevice.chargeCachedOp();

    const Bytes rounded = roundUp(std::max(size, kMinBlockSize),
                                  kMinBlockSize);
    Segment &segment = segmentFor(stream);
    const std::size_t segIndex = static_cast<std::size_t>(
        &segment - mSegments.data());

    // 1. Best fit over the free gaps of this stream's segment.
    Bytes bestOffset = 0;
    Bytes bestSize = ~Bytes{0};
    bool found = false;
    for (const auto &[offset, gap] : segment.free) {
        if (gap >= rounded && gap < bestSize) {
            bestOffset = offset;
            bestSize = gap;
            found = true;
        }
    }
    if (found) {
        const AllocId id = mNextId++;
        return Allocation{id, size,
                          place(segIndex, bestOffset, rounded, id)};
    }

    // 2. Extend the tail. If the mapped range ends in a free gap, the
    // growth only needs the difference.
    auto tailGapStart = [&segment] {
        if (!segment.free.empty()) {
            const auto last = std::prev(segment.free.end());
            if (last->first + last->second == segment.mapped)
                return last->first;
        }
        return segment.mapped;
    };
    Bytes tailStart = tailGapStart();
    Bytes oldMapped = segment.mapped;
    Status grown = growMapping(segment, tailStart + rounded);
    if (!grown.ok()) {
        // Give back every segment's free tail, this one's included,
        // and retry from where this tail ends now.
        for (auto &other : mSegments)
            trimTail(other);
        tailStart = tailGapStart();
        oldMapped = segment.mapped;
        grown = growMapping(segment, tailStart + rounded);
        if (!grown.ok())
            return grown.error();
    }
    // The newly mapped range joins (or forms) the tail gap.
    if (segment.mapped > oldMapped)
        insertFree(segment, oldMapped, segment.mapped - oldMapped);

    const AllocId id = mNextId++;
    return Allocation{id, size,
                      place(segIndex, tailStart, rounded, id)};
}

Status
ExpandableSegmentsAllocator::deallocate(AllocId id)
{
    const auto it = mLive.find(id);
    if (it == mLive.end())
        return makeError(Errc::invalidValue, "unknown allocation id");
    mDevice.chargeCachedOp();

    Segment &segment = mSegments[it->second.first];
    const auto blk = segment.live.find(it->second.second);
    GMLAKE_ASSERT(blk != segment.live.end(), "live map out of sync");
    mStats.onDeallocate(blk->second.first);
    insertFree(segment, blk->first, blk->second.first);
    segment.live.erase(blk);
    mLive.erase(it);
    return Status::success();
}

void
ExpandableSegmentsAllocator::streamSynchronize(StreamId stream)
{
    // Every gap is already reusable by the one stream that scans its
    // segment, so a synchronization only costs its time.
    (void)stream;
    mDevice.syncPenalty();
}

void
ExpandableSegmentsAllocator::deviceSynchronize()
{
    streamSynchronize(kAnyStream);
}

void
ExpandableSegmentsAllocator::emptyCache()
{
    for (auto &segment : mSegments)
        trimTail(segment);

    // Give back the reservation of every idle segment and drop it;
    // mLive addresses segments by index, so re-point it afterwards.
    const auto idle = [](const Segment &segment) {
        return segment.live.empty() && segment.mapped == 0;
    };
    for (const Segment &segment : mSegments) {
        if (idle(segment)) {
            const Status s = mDevice.memAddressFree(segment.base);
            GMLAKE_ASSERT(s.ok(), "segment VA free failed");
        }
    }
    std::erase_if(mSegments, idle);
    for (std::size_t i = 0; i < mSegments.size(); ++i) {
        for (const auto &[offset, blk] : mSegments[i].live)
            mLive.at(blk.second) = {i, offset};
    }
}

MemorySnapshot
ExpandableSegmentsAllocator::snapshot() const
{
    MemorySnapshot snap;
    snap.allocator = name();
    snap.activeBytes = mStats.activeBytes();
    snap.reservedBytes = mStats.reservedBytes();
    for (const auto &segment : mSegments) {
        RegionSnapshot region;
        region.kind = "segment";
        region.base = segment.base;
        region.size = segment.mapped;
        for (const auto &[offset, blk] : segment.live) {
            region.blocks.push_back(
                BlockSnapshot{segment.base + offset, blk.first, true,
                              segment.stream});
        }
        for (const auto &[offset, gap] : segment.free) {
            region.blocks.push_back(
                BlockSnapshot{segment.base + offset, gap, false,
                              segment.stream});
        }
        std::sort(region.blocks.begin(), region.blocks.end(),
                  [](const BlockSnapshot &a, const BlockSnapshot &b) {
                      return a.addr < b.addr;
                  });
        snap.regions.push_back(std::move(region));
    }
    return snap;
}

void
ExpandableSegmentsAllocator::checkConsistency() const
{
    Bytes active = 0;
    Bytes mapped = 0;
    for (const auto &segment : mSegments) {
        mapped += segment.mapped;
        GMLAKE_ASSERT(segment.chunks.size() * vmm::kGranularity ==
                      segment.mapped,
                      "chunk count / mapped bytes mismatch");
        // live and free must tile [0, mapped) exactly.
        Bytes cursor = 0;
        auto liveIt = segment.live.begin();
        auto freeIt = segment.free.begin();
        while (liveIt != segment.live.end() ||
               freeIt != segment.free.end()) {
            if (liveIt != segment.live.end() &&
                liveIt->first == cursor) {
                active += liveIt->second.first;
                cursor += liveIt->second.first;
                ++liveIt;
            } else if (freeIt != segment.free.end() &&
                       freeIt->first == cursor) {
                cursor += freeIt->second;
                ++freeIt;
            } else {
                GMLAKE_PANIC("gap in segment tiling at ", cursor);
            }
        }
        GMLAKE_ASSERT(cursor == segment.mapped,
                      "segment tiling does not reach mapped end");
    }
    GMLAKE_ASSERT(active == mStats.activeBytes(),
                  "active accounting drifted");
    GMLAKE_ASSERT(mapped == mStats.reservedBytes(),
                  "reserved accounting drifted");
    // mLive and the segments' live maps must agree entry for entry.
    std::size_t liveBlocks = 0;
    for (const auto &segment : mSegments)
        liveBlocks += segment.live.size();
    GMLAKE_ASSERT(mLive.size() == liveBlocks, "stray live entries");
    for (const auto &[id, where] : mLive) {
        GMLAKE_ASSERT(where.first < mSegments.size(),
                      "live entry names a dropped segment");
        const auto &live = mSegments[where.first].live;
        const auto blk = live.find(where.second);
        GMLAKE_ASSERT(blk != live.end() && blk->second.second == id,
                      "live entry out of sync");
    }
}

} // namespace gmlake::alloc
