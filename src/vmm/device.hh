/**
 * @file
 * Simulated GPU device: the single authority for physical capacity,
 * VA space, mappings, and simulated time.
 *
 * The API mirrors the CUDA driver entry points GMLake uses:
 *
 *   memAddressReserve / memAddressFree   (cuMemAddressReserve/Free)
 *   memCreate / memRelease               (cuMemCreate/Release)
 *   memMap / memUnmap                    (cuMemMap/Unmap)
 *   memSetAccess                         (cuMemSetAccess)
 *   mallocNative / freeNative            (cudaMalloc/cudaFree)
 *
 * Every call advances the simulated clock according to the calibrated
 * cost model, and semantics (overlap, capacity, refcounts) are
 * enforced exactly so allocator bugs surface as hard errors. Under an
 * obs recorder every call writes one device span, named after itself
 * and covering everything it charged.
 *
 * Chunk runs (memCreateRun, memCreateMapRun, memReleaseRun,
 * memUnmapReleaseRun) stand for the per-chunk CUDA call loops GMLake
 * and the expandable allocator run over their 2 MiB chunks: every
 * chunk is counted, charged and fault-checked exactly as a loop of
 * single calls would, but the run enters the device once, the
 * physical memory manager carves or returns each contiguous stretch
 * in one step and the mapping table takes one splice. A fault plan
 * draws the run's calls in one go, the fates a loop would have
 * drawn; the run splits only at its first failing call and at a
 * chunk a scheduled capacity loss falls due at. Its one span
 * carries the chunk count and covers the loop's calls back to back,
 * an unwind included.
 *
 * Nothing here locks: one thread owns a device and the allocator on
 * it, as one training process drives one GPU. Parallel runs give
 * each thread its own device.
 */

#ifndef GMLAKE_VMM_DEVICE_HH
#define GMLAKE_VMM_DEVICE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "support/expected.hh"
#include "support/types.hh"
#include "vmm/clock.hh"
#include "vmm/cost_model.hh"
#include "vmm/fault_injector.hh"
#include "vmm/mapping_table.hh"
#include "vmm/phys_memory.hh"
#include "vmm/va_space.hh"

namespace gmlake::vmm
{

struct DeviceConfig
{
    /** Device memory capacity; default mirrors the A100-80GB. */
    Bytes capacity = Bytes{80} * 1024 * 1024 * 1024;
    CostParams cost{};
};

/** Per-API invocation counters, for overhead analysis. */
struct ApiCounters
{
    std::uint64_t addressReserve = 0;
    std::uint64_t addressFree = 0;
    std::uint64_t create = 0;
    std::uint64_t release = 0;
    std::uint64_t map = 0;
    std::uint64_t unmap = 0;
    std::uint64_t setAccess = 0;
    std::uint64_t mallocNative = 0;
    std::uint64_t freeNative = 0;
    /** Async copy-lane traffic (host offload tier). */
    std::uint64_t d2hCopies = 0;
    std::uint64_t h2dCopies = 0;
    std::uint64_t d2hBytes = 0;
    std::uint64_t h2dBytes = 0;
    /** Simulated ns the clock stalled waiting on copy completions. */
    Tick copyStallNs = 0;
    /** Simulated nanoseconds spent inside device API calls. */
    Tick apiTime = 0;
    /**
     * Host wall-clock nanoseconds spent inside the device's
     * memory-management entry points (everything touching the VA
     * space, physical memory, or the mapping table; pure cost
     * charges like syncPenalty/chargeCachedOp are excluded). One
     * timing scope per device entry, so a chunk run is timed once,
     * not once per chunk. Unlike apiTime this measures the
     * *simulator's* bookkeeping cost, not simulated latency — it
     * feeds the vmm_wall_ns perf trajectory.
     */
    std::uint64_t vmmWallNs = 0;
};

class Device
{
  public:
    explicit Device(DeviceConfig config = {});

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    // --- low-level virtual memory management -------------------------

    /** Reserve a VA range; size is rounded up to the granularity. */
    Expected<VirtAddr> memAddressReserve(Bytes size);

    /** Free a VA reservation; fails while mappings remain inside. */
    Status memAddressFree(VirtAddr va);

    /** Create a physical chunk handle of @p size bytes. */
    Expected<PhysHandle> memCreate(Bytes size);

    /**
     * Create out.size() chunks of @p size bytes into @p out: one
     * memCreate() call per chunk, up to and including the first
     * failing one, where the run stops.
     */
    RunStatus memCreateRun(Bytes size, std::span<PhysHandle> out);

    /**
     * Create out.size() chunks of @p size bytes and map chunk i at
     * va + i * size: a memCreate() then a memMap() call per chunk,
     * like the loop building a block. The target must be unmapped,
     * granularity-aligned space inside one reservation (a panic
     * otherwise). Atomic: on a failed create or map, the run unwinds
     * what it built with the loop's own teardown calls
     * (memUnmapReleaseRun over the mapped chunks, then a memRelease
     * of a created but unmapped one) and returns the error.
     */
    Status memCreateMapRun(VirtAddr va, Bytes size,
                           std::span<PhysHandle> out);

    /** Release a chunk handle; fails while it is mapped anywhere. */
    Status memRelease(PhysHandle handle);

    /**
     * Release @p handles in order: one memRelease() call per handle,
     * up to and including the first failing one, where the run stops.
     */
    RunStatus memReleaseRun(std::span<const PhysHandle> handles);

    /**
     * Undo a successful memCreateMapRun(@p va, @p size, @p handles):
     * a memUnmap() of each chunk's own range, then its memRelease().
     * Teardown of state the caller built, so any failure is a
     * simulator bug and panics.
     */
    void memUnmapReleaseRun(VirtAddr va, Bytes size,
                            std::span<const PhysHandle> handles);

    /** Map the whole of @p handle at @p va (inside a reservation). */
    Status memMap(VirtAddr va, PhysHandle handle);

    /**
     * Batched cuMemMap: map every (va, handle) pair of @p batch
     * (sorted by va, disjoint). Models one driver call per chunk —
     * on success the map counter and the simulated latency are
     * charged per entry, identically to a loop of memMap() calls;
     * a bad handle or misaligned target counts and charges entries
     * up to and including the failing one, again like the loop —
     * but the simulator resolves each handle once (its size prices
     * the entry, and the table maps from the same slot), prices a
     * run of equal chunk sizes once, validates once and splices the
     * mapping table once, so the host-side cost is
     * O(batch + log extents) instead of O(batch x log chunks).
     * Unlike the loop it is atomic: on any error no mapping is
     * installed (reservation or overlap failures charge the whole
     * batch, which models one rejected vectored submission rather
     * than a partial loop).
     */
    Status memMapBatch(
        std::span<const std::pair<VirtAddr, PhysHandle>> batch);

    /** Unmap every mapping within [va, va+size). */
    Status memUnmap(VirtAddr va, Bytes size);

    /** Make [va, va+size) accessible; charged per covered chunk. */
    Status memSetAccess(VirtAddr va, Bytes size);

    // --- native (cudaMalloc-style) path -------------------------------

    /** cudaMalloc: one synchronous contiguous allocation. */
    Expected<VirtAddr> mallocNative(Bytes size);

    /** cudaFree of a pointer returned by mallocNative(). */
    Status freeNative(VirtAddr va);

    /** Extra stall modeling stream synchronization (see CostParams). */
    void syncPenalty();

    /** Host-side bookkeeping charge for pool-hit operations. */
    void chargeCachedOp();

    // --- async copy lanes (host offload tier) --------------------------

    /**
     * Submit an asynchronous device-to-host (resp. host-to-device)
     * copy of @p bytes on that direction's DMA lane. Only the enqueue
     * cost is charged to the simulated clock; the transfer occupies
     * the lane from max(now, lane free) and the returned Tick is its
     * completion time. The two directions are independent lanes (two
     * copy engines), so D2H and H2D overlap each other and compute;
     * same-direction copies serialize. Use copyWait() at the point a
     * consumer must observe the transferred data. Fails only under an
     * installed FaultPlan targeting the copy lanes.
     */
    Expected<Tick> copyD2HAsync(Bytes bytes);
    Expected<Tick> copyH2DAsync(Bytes bytes);

    /**
     * Stall the simulated clock until @p completion (no-op when it is
     * already past). Returns the stall charged, which also accumulates
     * in ApiCounters::copyStallNs.
     */
    Tick copyWait(Tick completion);

    // --- introspection -------------------------------------------------

    const PhysMemory &phys() const { return mPhys; }
    const VaSpace &vaSpace() const { return mVa; }
    const MappingTable &mappings() const { return mMap; }
    const CostModel &costs() const { return mCost; }
    const ApiCounters &counters() const { return mCounters; }

    SimClock &clock() { return mClock; }
    const SimClock &clock() const { return mClock; }
    Tick now() const { return mClock.now(); }

    Bytes capacity() const { return mPhys.capacity(); }

    /** Largest free contiguous physical range (OOM post-mortems). */
    Bytes largestFreeExtent() const { return mPhys.largestHole(); }

    /**
     * Physical-fragmentation snapshot — what the observability
     * MemorySampler polls on its cadence. O(holes).
     */
    struct FragStats
    {
        Bytes inUse = 0;
        Bytes capacity = 0;
        Bytes largestHole = 0;
        std::uint64_t holeCount = 0;
        /** Power-of-two histogram: bucket i counts free holes of
         *  size in [2^i, 2^(i+1)); trailing zero buckets trimmed. */
        std::vector<std::uint64_t> holeBuckets;
    };
    FragStats fragStats() const;

    // --- fault injection ----------------------------------------------

    /**
     * Install a seeded fault injector; every subsequent targeted entry
     * point consults it before performing the real operation. Replaces
     * any previous injector. Scheduled capacity losses are realized
     * lazily from memCreate() and are permanent: the carved extents
     * are never returned, surviving even clearFaultInjector().
     */
    void installFaultInjector(FaultPlan plan, std::uint64_t seed);

    /** Remove the injector; behavior reverts to fault-free. */
    void clearFaultInjector();

    /** The installed injector, or nullptr (read-only introspection). */
    const FaultInjector *faultInjector() const { return mFaults.get(); }

    // --- checkpoint / restore ------------------------------------------

    /** Native allocations: va -> (handle, reserved size). */
    struct NativeAlloc
    {
        PhysHandle handle;
        Bytes size;
    };

    /**
     * Deep copy of everything that decides future device behaviour:
     * clock, counters, native allocations, copy-lane horizons, and
     * the three memory managers. Capacity is recorded for
     * validation — a checkpoint only restores into a device of the
     * same capacity.
     */
    struct State
    {
        Bytes capacity = 0;
        Tick clock = 0;
        ApiCounters counters;
        std::map<VirtAddr, NativeAlloc> native;
        Tick d2hLaneFree = 0;
        Tick h2dLaneFree = 0;
        PhysMemory::State phys;
        VaSpace::State va;
        MappingTable::State map;
    };

    /** Checkpoint the device. */
    State saveState() const;

    /**
     * Restore a checkpoint taken from this device or any device with
     * the same capacity. After the restore every entry point behaves
     * exactly as it would have on the checkpointed device — same
     * addresses, same handles, same simulated time.
     */
    void restoreState(const State &state);

  private:
    CostModel mCost;
    SimClock mClock;
    PhysMemory mPhys;
    VaSpace mVa;
    MappingTable mMap;
    ApiCounters mCounters;

    std::map<VirtAddr, NativeAlloc> mNative;

    /** Per-direction DMA lanes: simulated time each is next free. */
    Tick mD2hLaneFree = 0;
    Tick mH2dLaneFree = 0;

    /**
     * Optional fault injector (null in every fault-free run: the only
     * cost the subsystem adds then is one pointer test per targeted
     * entry point). Not part of State — checkpoints capture the
     * device, not the sabotage plan.
     */
    std::unique_ptr<FaultInjector> mFaults;

    /** Reusable (va, handle) buffer of a batched create+map step. */
    std::vector<std::pair<VirtAddr, PhysHandle>> mRunBatch;
    /**
     * Reusable slots of a batch's handles, resolved once by the
     * device and mapped from by the table (MappingTable::mapSlots).
     */
    std::vector<PhysMemory::Slot *> mSlotBatch;

    void charge(Tick t);
    /** Realize any capacity loss that has come due by @p at. */
    void applyCapacityLoss(Tick at);

    // Bodies of the run entry points, without the wall-clock scope
    // and the span, so runs compose them and are still timed and
    // traced once.
    /** memCreateRun, and with @p map memCreateMapRun at @p va. */
    RunStatus buildChunks(VirtAddr va, Bytes size,
                          std::span<PhysHandle> out, bool map);
    RunStatus releaseChunks(std::span<const PhysHandle> handles);
    void unmapReleaseChunks(VirtAddr va, Bytes size,
                            std::span<const PhysHandle> handles);
};

} // namespace gmlake::vmm

#endif // GMLAKE_VMM_DEVICE_HH
