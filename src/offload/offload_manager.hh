/**
 * @file
 * OffloadManager: the host-offload tier's brain, sitting between the
 * replay engine, one allocator, and the simulated device.
 *
 * Lifecycle of a spill (all simulated):
 *
 *   allocator OOM -> reclaimOnOom(): trim the allocator's caches
 *   (free memory, no copy), then walk the eviction policy's victim
 *   ranking and spill live allocations — the allocator releases the
 *   physical backing while keeping the id and virtual address valid,
 *   the manager charges the D2H transfer on the device's copy lane
 *   and stages the bytes in the HostPool.
 *
 *   next touch -> touch(): fault the allocation back — the allocator
 *   restores the physical backing at the original VA (evicting more
 *   victims if the device is full), the manager charges the H2D
 *   transfer and stalls the clock until the data has landed.
 *
 *   prefetch hint -> prefetch(): same as touch but submitted early
 *   and without stalling; a later touch only waits out whatever is
 *   still in flight. This is what lets transfers overlap compute on
 *   the async copy lanes.
 *
 * The manager registers itself as the allocator's OffloadHook on
 * construction and detaches on destruction. One manager serves one
 * (device, allocator) pair; multi-tenant attribution happens via the
 * session tag the engine passes at registration. Everything here is
 * deterministic simulated state except offloadWallNs, which measures
 * the manager's own host-side bookkeeping cost.
 */

#ifndef GMLAKE_OFFLOAD_OFFLOAD_MANAGER_HH
#define GMLAKE_OFFLOAD_OFFLOAD_MANAGER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "alloc/allocator.hh"
#include "offload/eviction_policy.hh"
#include "offload/host_pool.hh"
#include "vmm/device.hh"

namespace gmlake::offload
{

/**
 * Live allocations below this size are never spill victims: small
 * tensors reclaim little per transfer, and the sub-2MB paths of the
 * allocators cannot spill them anyway. Every resident allocation at
 * or above it qualifies, however recently touched.
 */
inline constexpr Bytes kMinVictimBytes = Bytes{2} * 1024 * 1024;

struct OffloadConfig
{
    /** Host staging-tier capacity (bounds total spilled bytes). */
    Bytes hostCapacity = Bytes{512} * 1024 * 1024 * 1024;

    /** Victim-selection policy for live spills. */
    PolicyKind policy = PolicyKind::lru;
};

/** Cumulative manager counters; all deterministic but the wallclock. */
struct OffloadStats
{
    /** Live bytes spilled to the host tier (D2H traffic). */
    Bytes evictedBytes = 0;
    /** Cached free bytes released via allocator cache trims. */
    Bytes trimmedBytes = 0;
    /** Live bytes faulted back from the host tier (H2D traffic). */
    Bytes faultedBytes = 0;
    std::uint64_t evictions = 0;
    std::uint64_t faults = 0;
    /** Prefetch hints that actually started an early H2D. */
    std::uint64_t prefetches = 0;
    /** reclaimOnOom calls that could not free a single byte. */
    std::uint64_t failedReclaims = 0;
    /** Host wallclock ns spent inside the manager (bookkeeping). */
    std::uint64_t offloadWallNs = 0;
};

/** Per-session slice of the eviction traffic (tenant attribution). */
struct SessionOffloadStats
{
    Bytes evictedBytes = 0;
    Bytes faultedBytes = 0;
};

class OffloadManager : public alloc::OffloadHook
{
  public:
    /**
     * Attaches itself as @p allocator's offload hook. The device and
     * the allocator must outlive the manager.
     */
    OffloadManager(vmm::Device &device, alloc::Allocator &allocator,
                   OffloadConfig config = {});
    ~OffloadManager() override;

    OffloadManager(const OffloadManager &) = delete;
    OffloadManager &operator=(const OffloadManager &) = delete;

    // --- engine-facing lifecycle ---------------------------------------

    /** Register a live allocation (recency starts at now). */
    void onAllocated(alloc::AllocId id, Bytes bytes,
                     std::size_t session = 0);

    /** Forget a live allocation; staged host bytes die with it. */
    void onFreed(alloc::AllocId id);

    /**
     * The owner touched the allocation: recency is refreshed and, if
     * it was spilled, its backing is faulted in (stalling until the
     * H2D lands). Fails with outOfMemory when the device cannot hold
     * the allocation even after evicting everything else — the
     * touching tenant dies, exactly like an allocation OOM.
     */
    Status touch(alloc::AllocId id);

    /**
     * Best-effort hint that the allocation will be touched soon
     * (known-next streams): if it is spilled and the device has room
     * without displacing other live data, the H2D starts now and a
     * later touch only waits out the remainder. Never evicts.
     */
    void prefetch(alloc::AllocId id);

    // --- allocator-facing hook -----------------------------------------

    Bytes reclaimOnOom(Bytes needed, StreamId stream) override;

    // --- introspection --------------------------------------------------

    const OffloadStats &stats() const { return mStats; }
    const HostPool &hostPool() const { return mHostPool; }

    /** Session-attributed eviction traffic (empty tag -> zeroes). */
    SessionOffloadStats sessionStats(std::size_t session) const;

    /**
     * Bytes an OOM could currently reclaim: trimmable caches plus
     * resident live victims above the size floor.
     */
    Bytes evictableBytes() const;

    /** Registered live allocations currently spilled. */
    std::size_t spilledCount() const;

  private:
    struct Entry
    {
        Bytes bytes = 0;
        Tick lastTouch = 0;
        std::size_t session = 0;
        bool spilled = false;
        /** Completion time of an in-flight prefetch H2D. */
        Tick dataReadyAt = 0;
    };

    vmm::Device &mDevice;
    alloc::Allocator &mAllocator;
    OffloadConfig mConfig;
    std::unique_ptr<EvictionPolicy> mPolicy;
    HostPool mHostPool;
    OffloadStats mStats;

    /**
     * Live registry, keyed by allocation id. Ordered map: victim
     * candidate enumeration must be deterministic.
     */
    std::map<alloc::AllocId, Entry> mEntries;
    std::vector<SessionOffloadStats> mSessionStats;

    /** Reusable victim-candidate scratch. */
    std::vector<Victim> mCandidates;

    /** Reentrancy guard: a prefetch must never trigger eviction. */
    bool mPrefetching = false;
    /** Depth guard so nested calls do not double-count wallclock. */
    int mWallDepth = 0;

    /** Spill ranked live victims until @p needed bytes are freed. */
    Bytes spillVictims(Bytes needed);

    SessionOffloadStats &sessionSlot(std::size_t session);
};

} // namespace gmlake::offload

#endif // GMLAKE_OFFLOAD_OFFLOAD_MANAGER_HH
