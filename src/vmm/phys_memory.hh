/**
 * @file
 * Physical memory manager of the simulated GPU.
 *
 * Physical allocations occupy *contiguous* ranges of the device
 * address space, carved first-fit from the free holes — exactly like
 * real device memory. This matters: a cudaMalloc of a large segment
 * can fail even when enough total bytes are free, because no hole is
 * big enough (physical external fragmentation), while GMLake's
 * uniform 2 MB chunks always fit as long as any free bytes remain.
 * That asymmetry is the mechanism behind the paper's Fig 13 OOMs.
 *
 * Handles carry a mapping reference count so a handle cannot be
 * released while any virtual mapping still points at it — the
 * property GMLake relies on when several sBlocks share one pBlock's
 * chunks.
 *
 * Bookkeeping is extent-based: holes live in a FreeExtentMap
 * (first-fit in O(log holes) with identical placement to a linear
 * scan, largest hole in O(1)), and handles are slots in a
 * freelist-backed vector — a handle value packs (generation, slot),
 * so slots recycle in O(1) while handle *values* stay unique and
 * stale handles are rejected.
 *
 * Run calls (createRun / releaseRun) stand for a loop of single
 * create() / release() calls with bit-identical handles, placement,
 * holes and aggregates, but touch the hole map once per physically
 * contiguous stretch instead of once per handle. create() and
 * release() are their one-element case.
 */

#ifndef GMLAKE_VMM_PHYS_MEMORY_HH
#define GMLAKE_VMM_PHYS_MEMORY_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/expected.hh"
#include "support/types.hh"
#include "vmm/extent_map.hh"

namespace gmlake::vmm
{

/**
 * Physical allocation granularity: 2 MiB, what real devices report
 * (cuMemGetAllocationGranularity). Reservations, chunks and mappings
 * are multiples of it.
 */
inline constexpr Bytes kGranularity = Bytes{2} * 1024 * 1024;

/**
 * Outcome of a run call: the first @c done elements succeeded, and
 * when the run stopped early @c status holds the error of element
 * @c done — exactly where the equivalent loop of single calls would
 * have stopped.
 */
struct RunStatus
{
    std::size_t done = 0;
    Status status;

    bool ok() const { return status.ok(); }
};

class PhysMemory
{
  public:
    /**
     * One handle slot. Slots are recycled through a freelist; the
     * generation increments each time create() (re)acquires the
     * slot, so a stale handle to a recycled slot never resolves
     * (release only clears the live flag). Generation 0 is never
     * issued, so a packed handle is never 0.
     */
    struct Slot
    {
        Bytes base = 0;
        Bytes size = 0;
        std::uint32_t mapRefs = 0;
        std::uint32_t generation = 0;
        bool live = false;
    };

    /**
     * Checkpoint of the full manager state (vmm/device.hh Device
     * checkpoints). Dead slots and the freelist order are part of it:
     * future handle *values* depend on which slot create() recycles
     * next and on its generation counter, so a restore that dropped
     * them would hand out different handles than the uninterrupted
     * run.
     */
    struct State
    {
        Bytes inUse = 0;
        Bytes peakInUse = 0;
        std::size_t peakHoles = 1;
        std::size_t liveHandles = 0;
        std::vector<Slot> slots;
        std::vector<std::uint32_t> freeSlots;
        std::vector<FreeExtentMap::Extent> holes;
    };

    /**
     * @param capacity device memory size in bytes, a multiple of
     *        kGranularity; so must every handle size be
     */
    explicit PhysMemory(Bytes capacity);

    /** Deep-copy the current state into a value object. */
    State saveState() const;

    /**
     * Replace the current state with @p state (captured from a
     * manager of the same capacity). Handle values issued
     * after the restore are identical to those the checkpointed
     * manager would have issued.
     */
    void restoreState(const State &state);

    /**
     * Allocate a physical handle of @p size contiguous bytes.
     * Fails with outOfMemory when no free hole is large enough.
     */
    Expected<PhysHandle> create(Bytes size);

    /**
     * Allocate out.size() handles of @p size bytes each into @p out,
     * in order, as that many create() calls would. Every handle that
     * fits the current first-fit hole is carved from it with one
     * hole-map update. Stops at the first failure (out[done..] are
     * left untouched).
     */
    RunStatus createRun(Bytes size, std::span<PhysHandle> out);

    /**
     * How many of @p limit create(@p size) calls in a row would
     * succeed: what createRun() would create, without creating
     * anything. Walks the same holes createRun() would carve.
     */
    std::size_t fitCount(Bytes size, std::size_t limit) const;

    /** Release a handle; fails with handleInUse while mapped. */
    Status release(PhysHandle handle);

    /**
     * Release @p handles in order, as that many release() calls
     * would. Consecutive handles whose ranges abut (ascending or
     * descending) go back to the hole map as one extent, with the
     * peak hole count the single releases would have reached. Stops
     * at the first unknown, stale, repeated or mapped handle.
     */
    RunStatus releaseRun(std::span<const PhysHandle> handles);

    /** Increment / decrement the mapping refcount of a handle. */
    Status addMapRef(PhysHandle handle);
    Status dropMapRef(PhysHandle handle);

    /** Size of a live handle; invalidValue for unknown handles. */
    Expected<Bytes> sizeOf(PhysHandle handle) const;

    /**
     * The live slot of @p handle — an array index and a generation
     * compare — or nullptr for an unknown or stale handle. The
     * pointer stays valid only until the next create(), which may
     * grow the slot vector.
     */
    const Slot *
    slot(PhysHandle handle) const
    {
        const auto index = static_cast<std::uint32_t>(handle);
        const auto generation =
            static_cast<std::uint32_t>(handle >> 32);
        if (index >= mSlots.size())
            return nullptr;
        const Slot &s = mSlots[index];
        return s.live && s.generation == generation ? &s : nullptr;
    }
    Slot *
    slot(PhysHandle handle)
    {
        return const_cast<Slot *>(
            static_cast<const PhysMemory *>(this)->slot(handle));
    }

    /** The error sizeOf() returns for a handle that does not resolve. */
    static Error unknownHandle();

    bool isLive(PhysHandle handle) const;
    std::uint32_t mapRefs(PhysHandle handle) const;

    Bytes capacity() const { return mCapacity; }
    /** Physical bytes currently allocated (sum of live handles). */
    Bytes inUse() const { return mInUse; }
    /** High-water mark of inUse(). */
    Bytes peakInUse() const { return mPeakInUse; }
    Bytes available() const { return mCapacity - mInUse; }
    std::size_t liveHandles() const { return mLiveHandles; }

    /** Size of the largest free contiguous range; O(1). */
    Bytes largestHole() const { return mHoles.largest(); }

    /** Live (base, size) ranges, sorted by base address. */
    std::vector<std::pair<Bytes, Bytes>> liveRanges() const;
    /** Free holes (base, size), sorted by base; O(holes). */
    std::vector<FreeExtentMap::Extent> holeExtents() const
    {
        return mHoles.extents();
    }
    /** Number of free holes (physical fragmentation indicator). */
    std::size_t holeCount() const { return mHoles.count(); }
    /** High-water mark of holeCount(). */
    std::size_t peakHoleCount() const { return mPeakHoles; }

  private:
    Bytes mCapacity;
    Bytes mInUse = 0;
    Bytes mPeakInUse = 0;
    std::size_t mPeakHoles = 1;
    std::size_t mLiveHandles = 0;

    std::vector<Slot> mSlots;
    std::vector<std::uint32_t> mFreeSlots;
    /** Free holes of the physical address space. */
    FreeExtentMap mHoles;

    /**
     * Why the handle that resolved to @p slot (nullptr: unknown or
     * stale) cannot be released; success when it can.
     */
    Status releasable(const Slot *slot) const;

    /** Take a slot for a fresh handle at [base, base+size). */
    PhysHandle newHandle(Bytes base, Bytes size);

    static PhysHandle
    pack(std::uint32_t slot, std::uint32_t generation)
    {
        return (static_cast<PhysHandle>(generation) << 32) | slot;
    }
};

} // namespace gmlake::vmm

#endif // GMLAKE_VMM_PHYS_MEMORY_HH
