#include "vmm/phys_memory.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/strings.hh"
#include "support/units.hh"

namespace gmlake::vmm
{

PhysMemory::PhysMemory(Bytes capacity) : mCapacity(capacity)
{
    GMLAKE_ASSERT(isAligned(capacity, kGranularity),
                  "capacity must be a granularity multiple");
    mHoles.insert(0, capacity);
}

Error
PhysMemory::unknownHandle()
{
    return makeError(Errc::invalidValue, "sizeOf unknown handle");
}

PhysHandle
PhysMemory::newHandle(Bytes base, Bytes size)
{
    std::uint32_t index;
    if (!mFreeSlots.empty()) {
        index = mFreeSlots.back();
        mFreeSlots.pop_back();
    } else {
        index = static_cast<std::uint32_t>(mSlots.size());
        mSlots.emplace_back();
        // Generation 0 is reserved so a packed handle is never 0
        // (kNullHandle) and raw small integers never resolve.
        mSlots.back().generation = 0;
    }
    Slot &s = mSlots[index];
    ++s.generation;
    s.base = base;
    s.size = size;
    s.mapRefs = 0;
    s.live = true;
    ++mLiveHandles;
    return pack(index, s.generation);
}

Expected<PhysHandle>
PhysMemory::create(Bytes size)
{
    PhysHandle handle = kNullHandle;
    const RunStatus run = createRun(size, {&handle, 1});
    if (!run.ok())
        return run.status.error();
    return handle;
}

RunStatus
PhysMemory::createRun(Bytes size, std::span<PhysHandle> out)
{
    RunStatus run;
    if (out.empty())
        return run;
    if (size == 0 || !isAligned(size, kGranularity)) {
        run.status = makeError(Errc::invalidValue,
                               "cuMemCreate size " + formatBytes(size) +
                               " is not a positive multiple of " +
                               formatBytes(kGranularity));
        return run;
    }
    while (run.done < out.size()) {
        // First fit over the free holes: physical allocations must
        // be contiguous, exactly like real device memory. The extent
        // map answers "lowest-base hole with size >= request" in
        // O(log n).
        const auto hole = mHoles.firstFit(size);
        if (!hole) {
            // Both diagnostics are O(1) maintained aggregates, and
            // the message is only assembled on this error path.
            run.status = makeError(
                Errc::outOfMemory,
                "cuMemCreate " + formatBytes(size) +
                " has no contiguous space (free " +
                formatBytes(mCapacity - mInUse) + ", largest hole " +
                formatBytes(largestHole()) + ")");
            return run;
        }
        // Every lower hole is too small and stays so, so single
        // creates keep answering this hole while it has room: carve
        // all of them in one update.
        const std::size_t take = std::min<std::size_t>(
            out.size() - run.done, hole->size / size);
        const Bytes carved = static_cast<Bytes>(take) * size;
        if (carved == hole->size)
            mHoles.erase(hole->base);
        else
            mHoles.shrinkFront(hole->base, carved);
        for (std::size_t i = 0; i < take; ++i) {
            out[run.done + i] =
                newHandle(hole->base + static_cast<Bytes>(i) * size, size);
        }
        run.done += take;
        mInUse += carved;
        if (mInUse > mPeakInUse)
            mPeakInUse = mInUse;
    }
    return run;
}

std::size_t
PhysMemory::fitCount(Bytes size, std::size_t limit) const
{
    if (size == 0 || !isAligned(size, kGranularity))
        return 0;
    // createRun() fills the lowest-base fitting hole until what is
    // left of it is too small, then moves on to the next fitting
    // hole above it.
    std::size_t fits = 0;
    for (auto hole = mHoles.firstFit(size); hole && fits < limit;
         hole = mHoles.nextFit(hole->base, size))
        fits += static_cast<std::size_t>(hole->size / size);
    return std::min(fits, limit);
}

Status
PhysMemory::releasable(const Slot *slot) const
{
    if (slot == nullptr)
        return makeError(Errc::invalidValue, "release of unknown handle");
    if (slot->mapRefs != 0)
        return makeError(Errc::handleInUse,
                         "release of a handle with live mappings");
    return Status::success();
}

Status
PhysMemory::release(PhysHandle handle)
{
    return releaseRun({&handle, 1}).status;
}

RunStatus
PhysMemory::releaseRun(std::span<const PhysHandle> handles)
{
    RunStatus run;
    while (run.done < handles.size()) {
        const Slot *first = slot(handles[run.done]);
        run.status = releasable(first);
        if (!run.ok())
            return run;
        // Extend the stretch over the handles that continue it on
        // one side. Bases move strictly one way along it, so no
        // handle repeats inside and checking each one up front
        // equals checking it after its predecessors' releases.
        Bytes lo = first->base;
        Bytes hi = first->base + first->size;
        int direction = 0; // +1 ascending, -1 descending
        std::size_t end = run.done + 1;
        for (; end < handles.size(); ++end) {
            const Slot *s = slot(handles[end]);
            if (!releasable(s).ok())
                break;
            if (direction >= 0 && s->base == hi) {
                direction = 1;
                hi += s->size;
            } else if (direction <= 0 && s->base + s->size == lo) {
                direction = -1;
                lo = s->base;
            } else {
                break;
            }
        }
        for (std::size_t i = run.done; i < end; ++i) {
            Slot *s = slot(handles[i]);
            mInUse -= s->size;
            s->live = false;
            --mLiveHandles;
            mFreeSlots.push_back(
                static_cast<std::uint32_t>(s - mSlots.data()));
        }
        // Return the stretch to the hole map, merging with its
        // neighbours. Released one by one, the hole count peaks right
        // after the first release (every later one merges with the
        // hole its predecessor left), where only the neighbour on the
        // first handle's outer side can have merged.
        const std::size_t before = mHoles.count();
        const auto merged = mHoles.insertCoalescing(lo, hi - lo);
        std::size_t peak = mHoles.count();
        if (direction != 0) {
            const bool outerMerged =
                direction > 0 ? merged.prev : merged.next;
            peak = outerMerged ? before : before + 1;
        }
        if (peak > mPeakHoles)
            mPeakHoles = peak;
        run.done = end;
    }
    return run;
}

Status
PhysMemory::addMapRef(PhysHandle handle)
{
    Slot *s = slot(handle);
    if (s == nullptr)
        return makeError(Errc::invalidValue, "map of unknown handle");
    ++s->mapRefs;
    return Status::success();
}

Status
PhysMemory::dropMapRef(PhysHandle handle)
{
    Slot *s = slot(handle);
    if (s == nullptr)
        return makeError(Errc::invalidValue, "unmap of unknown handle");
    if (s->mapRefs == 0)
        return makeError(Errc::notMapped,
                         "unmap of a handle with no mappings");
    --s->mapRefs;
    return Status::success();
}

Expected<Bytes>
PhysMemory::sizeOf(PhysHandle handle) const
{
    const Slot *s = slot(handle);
    if (s == nullptr)
        return unknownHandle();
    return s->size;
}

bool
PhysMemory::isLive(PhysHandle handle) const
{
    return slot(handle) != nullptr;
}

std::uint32_t
PhysMemory::mapRefs(PhysHandle handle) const
{
    const Slot *s = slot(handle);
    return s == nullptr ? 0 : s->mapRefs;
}

PhysMemory::State
PhysMemory::saveState() const
{
    State state;
    state.inUse = mInUse;
    state.peakInUse = mPeakInUse;
    state.peakHoles = mPeakHoles;
    state.liveHandles = mLiveHandles;
    state.slots = mSlots;
    state.freeSlots = mFreeSlots;
    state.holes = mHoles.extents();
    return state;
}

void
PhysMemory::restoreState(const State &state)
{
    mInUse = state.inUse;
    mPeakInUse = state.peakInUse;
    mPeakHoles = state.peakHoles;
    mLiveHandles = state.liveHandles;
    mSlots = state.slots;
    mFreeSlots = state.freeSlots;
    mHoles.clear();
    for (const auto &hole : state.holes)
        mHoles.insert(hole.base, hole.size);
}

std::vector<std::pair<Bytes, Bytes>>
PhysMemory::liveRanges() const
{
    std::vector<std::pair<Bytes, Bytes>> out;
    out.reserve(mLiveHandles);
    for (const Slot &s : mSlots) {
        if (s.live)
            out.emplace_back(s.base, s.size);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace gmlake::vmm
