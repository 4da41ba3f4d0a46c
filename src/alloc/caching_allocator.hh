/**
 * @file
 * Best-fit-with-coalescing (BFC) caching allocator, modeled on the
 * PyTorch CUDACachingAllocator (the paper's baseline, Fig 2b).
 *
 * Requests are rounded to 512 B; small requests (<= 1 MiB) are served
 * from 2 MiB segments, mid-size ones from 20 MiB segments, large ones
 * from exact-size segments rounded to 2 MiB. Free blocks are kept in
 * per-pool best-fit sets, split on allocation when the remainder is
 * worth keeping, and coalesced with free neighbours on deallocation.
 * Segments are obtained with cudaMalloc and returned only by
 * emptyCache() — which is why unusable free space inside segments
 * shows up as reserved-but-not-active memory, i.e. fragmentation.
 */

#ifndef GMLAKE_ALLOC_CACHING_ALLOCATOR_HH
#define GMLAKE_ALLOC_CACHING_ALLOCATOR_HH

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hh"
#include "vmm/device.hh"

namespace gmlake::alloc
{

/**
 * Pool geometry: PyTorch's CUDACachingAllocator constants of the
 * same names. Requests round up to kMinBlockSize. Those up to
 * kSmallSize use the small pool, served from kSmallBuffer segments;
 * larger ones use the large pool, served from kLargeBuffer segments
 * below kMinLargeAlloc and from segments rounded up to kRoundLarge
 * above it.
 */
inline constexpr Bytes kMinBlockSize = 512;
inline constexpr Bytes kSmallSize = Bytes{1} * 1024 * 1024;
inline constexpr Bytes kSmallBuffer = Bytes{2} * 1024 * 1024;
inline constexpr Bytes kLargeBuffer = Bytes{20} * 1024 * 1024;
inline constexpr Bytes kMinLargeAlloc = Bytes{10} * 1024 * 1024;
inline constexpr Bytes kRoundLarge = Bytes{2} * 1024 * 1024;

/** PyTorch's three allocator settings; defaults mirror PyTorch. */
struct CachingConfig
{
    /**
     * PyTorch's max_split_size_mb: blocks larger than this are never
     * split, and may only serve requests whose leftover would stay
     * below the large-buffer size (prevents big cached blocks from
     * being nibbled into unusable pieces). Unlimited by default.
     */
    Bytes maxSplitSize = ~Bytes{0};

    /**
     * PyTorch's roundup_power2_divisions: when non-zero, request
     * sizes round up to the next 1/N fraction of a power of two,
     * collapsing near-miss sizes into shared size classes.
     */
    unsigned roundupPower2Divisions = 0;

    /**
     * PyTorch's garbage_collection_threshold: when reserved memory
     * exceeds this fraction of device capacity, fully-free cached
     * segments are returned to the device before growing a new one.
     * Disabled at 0.
     */
    double gcThreshold = 0.0;
};

class CachingAllocator : public Allocator
{
  public:
    CachingAllocator(vmm::Device &device, CachingConfig config = {});
    ~CachingAllocator() override;

    using Allocator::allocate;
    Expected<Allocation> allocate(Bytes size,
                                  StreamId stream) override;
    Status deallocate(AllocId id) override;
    void streamSynchronize(StreamId stream) override;
    void deviceSynchronize() override;
    void emptyCache() override;
    const AllocatorStats &stats() const override { return mStats; }
    std::string name() const override { return "caching"; }

    /** Free bytes currently cached in the pools (reserved - active). */
    Bytes cachedBytes() const;
    std::size_t segmentCount() const;

    // --- host-offload cooperation (src/offload) ------------------------

    /**
     * Release fully-free cached segments until @p target bytes are
     * freed (a targeted emptyCache). Live spilling stays unsupported:
     * segments are cudaMalloc-backed, so releasing one would tear
     * down the virtual addresses live tensors hold — the VA/physical
     * decoupling GMLake gets from the VMM API is exactly what this
     * allocator lacks.
     */
    Bytes trimCache(Bytes target) override;
    Bytes trimmableBytes() const override;

    MemorySnapshot snapshot() const override;

    // --- checkpoint / restore ------------------------------------------

    /**
     * Value checkpoint of the pool/segment/live bookkeeping — the
     * allocator half only, no device state. Segment block lists are
     * stored in address order, so restoring rebuilds the exact
     * prev/next chains; free-pool membership is implied (free blocks
     * re-insert into their stream's free set). GMLakeAllocator embeds one
     * of these for its small path.
     */
    struct State
    {
        struct BlockRec
        {
            VirtAddr addr = kNullAddr;
            Bytes size = 0;
            bool allocated = false;
            StreamId stream = kDefaultStream;
            Tick freedAt = 0;
            AllocId liveId = 0; //!< 0 for free blocks
        };
        struct SegmentRec
        {
            VirtAddr base = kNullAddr;
            Bytes size = 0;
            bool smallPool = false;
            std::vector<BlockRec> blocks; //!< address order
        };
        std::vector<SegmentRec> segments; //!< base order
        AllocId nextId = 1;
        AllocatorStats::Snapshot stats;
    };

    /** Capture the internal bookkeeping (device not included). */
    State captureState() const;
    /** Inverse of captureState(); replaces all bookkeeping. */
    void restoreInternal(const State &state);

    Checkpoint saveState() const override;
    void restoreState(const Checkpoint &checkpoint) override;

    /** Internal invariant check used by tests; panics on violation. */
    void checkConsistency() const;

  private:
    struct Block;
    /** Heterogeneous probe for free-set lookups: no Block construction. */
    struct SizeKey
    {
        Bytes size = 0;
        VirtAddr addr = kNullAddr;
    };
    struct BlockCmp
    {
        using is_transparent = void;

        bool operator()(const Block *a, const Block *b) const;
        bool operator()(const Block *a, const SizeKey &k) const;
        bool operator()(const SizeKey &k, const Block *b) const;
    };
    /** One stream tag's free blocks, ordered by (size, addr). */
    using FreeSet = std::set<Block *, BlockCmp>;

    /**
     * Free pool: one FreeSet per stream tag. The map is ordered, so
     * walking it ascending visits blocks in (stream, size, addr)
     * order, kAnyStream (~0) last — the order findFit breaks ties
     * and releaseStream merges in, so it is an allocation decision.
     * Sets are created on demand and kept when they empty.
     */
    struct Pool
    {
        std::map<StreamId, FreeSet> byStream;

        void insert(Block *block);
        /** Remove @p block, which must be in the pool. */
        void erase(Block *block);
    };

    struct Block
    {
        VirtAddr addr = kNullAddr;
        Bytes size = 0;
        bool allocated = false;
        Block *prev = nullptr;   //!< address-adjacent within segment
        Block *next = nullptr;
        VirtAddr segment = kNullAddr;
        Pool *pool = nullptr;
        /** Stream that may reuse this block (kAnyStream after sync). */
        StreamId stream = kDefaultStream;
        /** Simulated time of the last free (for the event lag). */
        Tick freedAt = 0;
    };

    vmm::Device &mDevice;
    CachingConfig mConfig;
    AllocatorStats mStats;
    AllocId mNextId = 1;

    Pool mSmallPool;
    Pool mLargePool;
    /** Segment base address -> segment size. */
    std::unordered_map<VirtAddr, Bytes> mSegments;
    /** Ownership of all block nodes. */
    std::unordered_map<Block *, std::unique_ptr<Block>> mBlocks;
    /** Live allocations. */
    std::unordered_map<AllocId, Block *> mLive;

    Bytes roundSize(Bytes size) const;
    Bytes allocationSize(Bytes rounded) const;
    Pool &poolFor(Bytes rounded);
    bool shouldSplit(const Block &block, Bytes rounded) const;

    Block *newBlock(VirtAddr addr, Bytes size, VirtAddr segment,
                    Pool *pool, StreamId stream);
    void destroyBlock(Block *block);

    /** Acquire a fresh segment from the device. */
    Expected<Block *> growSegment(Bytes rounded, StreamId stream);

    /**
     * Best-fit lookup restricted to blocks reusable by @p stream;
     * the returned block has been removed from its free set.
     */
    Block *findFit(Pool &pool, Bytes rounded, StreamId stream);

    /**
     * Release whole-segment free blocks of @p pool back to the
     * device until @p budget bytes are freed; returns bytes freed.
     * The one segment-release sweep emptyCache()/trimCache() share.
     */
    Bytes sweepSegments(Pool &pool, Bytes budget);

    /**
     * Merge @p block (free, out of the pool) with its free
     * same-stream neighbours; returns the merged block, still out of
     * the pool.
     */
    Block *coalesce(Block *block);

    /** Retag free blocks of @p stream (kAnyStream = all) and merge. */
    void releaseStream(StreamId stream);
};

} // namespace gmlake::alloc

#endif // GMLAKE_ALLOC_CACHING_ALLOCATOR_HH
