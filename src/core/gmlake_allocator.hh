/**
 * @file
 * The GMLake allocator: virtual memory stitching (VMS) on top of the
 * low-level VMM device API (paper Sections 3 and 4).
 *
 * Structure mirrors the paper:
 *  - pBlock / pPool: primitive blocks, each owning physical chunks and
 *    a contiguous VA mapping of its own;
 *  - sBlock / sPool: stitched blocks, a second VA that maps the chunks
 *    of several pBlocks back-to-back (the chunks are never duplicated,
 *    one physical chunk may be visible through several VAs);
 *  - Alloc / Split / Stitch: the only three mutators of the pools;
 *  - BestFit: Algorithm 1, producing states S1..S4 (S1 from a
 *    per-size recency index, S2..S4 from the sorted pools);
 *  - Update: deallocation only flips active flags;
 *  - StitchFree: LRU eviction of cached sBlocks.
 *
 * Requests below the 2 MB threshold are served by an embedded
 * splitting-based caching allocator, exactly as GMLake delegates
 * small allocations to the original PyTorch path.
 */

#ifndef GMLAKE_CORE_GMLAKE_ALLOCATOR_HH
#define GMLAKE_CORE_GMLAKE_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/allocator.hh"
#include "alloc/caching_allocator.hh"
#include "core/best_fit.hh"
#include "core/gmlake_config.hh"
#include "obs/recorder.hh"
#include "support/object_pool.hh"
#include "vmm/device.hh"

namespace gmlake::core
{

/** Counters for the allocation strategy states (Fig 9), for tests. */
struct StrategyCounters
{
    std::uint64_t s1ExactMatch = 0;
    std::uint64_t s2SingleBlock = 0;
    std::uint64_t s3MultiBlocks = 0;
    std::uint64_t s4Insufficient = 0;
    std::uint64_t s5Oom = 0;
    std::uint64_t stitches = 0;
    std::uint64_t splits = 0;
    std::uint64_t stitchFrees = 0;
    std::uint64_t smallPath = 0;
};

class GMLakeAllocator : public alloc::Allocator
{
  public:
    GMLakeAllocator(vmm::Device &device, GMLakeConfig config = {});
    ~GMLakeAllocator() override;

    using alloc::Allocator::allocate;
    Expected<alloc::Allocation> allocate(Bytes size,
                                         StreamId stream) override;
    Status deallocate(alloc::AllocId id) override;
    void streamSynchronize(StreamId stream) override;
    void deviceSynchronize() override;
    void emptyCache() override;
    const alloc::AllocatorStats &stats() const override
    {
        return mStats;
    }
    std::string name() const override { return "gmlake"; }

    const StrategyCounters &strategy() const { return mCounters; }

    /**
     * Object-pool node counters: `created` counts slab slots ever
     * constructed, `reused` counts freelist recycles. On the
     * steady-state churn path `created` must stand still — asserted
     * by tests.
     */
    struct PoolCounters
    {
        std::uint64_t pCreated = 0;
        std::uint64_t pReused = 0;
        std::uint64_t sCreated = 0;
        std::uint64_t sReused = 0;
    };
    PoolCounters
    poolCounters() const
    {
        return PoolCounters{mPPool.created(), mPPool.reused(),
                            mSPool.created(), mSPool.reused()};
    }

    /** Pool introspection for tests and traces. */
    std::size_t pBlockCount() const { return mPPool.liveCount(); }
    std::size_t sBlockCount() const { return mSPool.liveCount(); }
    std::size_t inactivePBlockCount() const { return mInactiveP.size(); }
    /** Physical bytes held by resident pBlocks (reserved memory). */
    Bytes physicalBytes() const { return mPhysicalBytes; }
    /** Total VA bytes held by live sBlocks. */
    Bytes stitchedVaBytes() const { return mStitchedVaBytes; }
    /** Bytes of pBlocks whose backing is spilled to the host tier. */
    Bytes spilledBytes() const { return mSpilledBytes; }

    // --- host-offload cooperation (src/offload) ------------------------

    Bytes trimCache(Bytes target) override;
    Bytes trimmableBytes() const override;
    bool supportsLiveSpill() const override { return true; }
    Expected<Bytes> spillLive(alloc::AllocId id) override;
    Status faultLive(alloc::AllocId id) override;

    alloc::MemorySnapshot snapshot() const override;

    alloc::Checkpoint saveState() const override;
    void restoreState(const alloc::Checkpoint &checkpoint) override;

    /** Internal invariant check used by tests; panics on violation. */
    void checkConsistency() const;

    /**
     * checkConsistency() plus cross-checks against the device:
     * reservation geometry for every block VA, chunk liveness, chunk
     * size, mapRefs == 1 + sharers for every resident chunk, and the
     * chunk each block VA maps: a pBlock's range holds its chunks in
     * order (nothing when spilled), an sBlock's its members' chunks
     * at their running offsets.
     */
    void auditInvariants() const override;

    alloc::Allocator::RecoveryCounters
    recoveryCounters() const override
    {
        return {mRollbacks, mRecovered};
    }

  private:
    struct PBlock;
    struct SBlock;
    struct SizeClass;
    struct State;

    /**
     * Descending size order; ties broken by id for determinism.
     * Transparent: lower_bound(Bytes) finds the first block whose
     * size is <= the key without building a probe block.
     */
    struct PBlockCmp
    {
        using is_transparent = void;

        bool
        operator()(const PBlock *a, const PBlock *b) const
        {
            if (a->size != b->size)
                return a->size > b->size;
            return a->id < b->id;
        }
        bool
        operator()(const PBlock *a, Bytes size) const
        {
            return a->size > size;
        }
        bool
        operator()(Bytes size, const PBlock *a) const
        {
            return size > a->size;
        }
    };
    struct SBlockCmp
    {
        using is_transparent = void;

        bool
        operator()(const SBlock *a, const SBlock *b) const
        {
            if (a->size != b->size)
                return a->size > b->size;
            return a->id < b->id;
        }
        bool
        operator()(const SBlock *a, Bytes size) const
        {
            return a->size > size;
        }
        bool
        operator()(Bytes size, const SBlock *a) const
        {
            return size > a->size;
        }
    };

    /** The inactive pools' types (see mInactiveP). */
    using PIndex = std::set<PBlock *, PBlockCmp>;
    using SIndex = std::set<SBlock *, SBlockCmp>;

    /**
     * A block's own node in one inactive index, kept for the block's
     * whole life (the resource-allocator caches of McKenney's "Is
     * Parallel Programming Hard", ch. 6). While the block is indexed,
     * `pos` is its position; while it is out, `parked` holds the node
     * extract() returned. Leaving the index is then an unlink with no
     * search and no free, and re-entering it one descent with no
     * allocation. ObjectPool recycling keeps the parked node, as it
     * keeps a block's vectors.
     */
    template <typename Index>
    struct IndexSlot
    {
        typename Index::iterator pos{};
        typename Index::node_type parked;
        bool indexed = false;

        void
        insert(Index &index, typename Index::value_type block)
        {
            GMLAKE_ASSERT(!indexed, "block indexed twice");
            if (parked.empty())
                pos = index.insert(block).first;
            else
                pos = index.insert(std::move(parked)).position;
            indexed = true;
        }
        void
        erase(Index &index)
        {
            GMLAKE_ASSERT(indexed, "erase of a block that is not indexed");
            parked = index.extract(pos);
            indexed = false;
        }
    };

    /** Primitive block: owns physical chunks and a VA of its own. */
    struct PBlock
    {
        std::uint64_t id = 0;
        VirtAddr va = kNullAddr;
        Bytes size = 0;
        /** Recency index: the class of `size`, and the list
         *  neighbours while inactive (see SizeClass). */
        SizeClass *cls = nullptr;
        PBlock *older = nullptr;
        PBlock *newer = nullptr;
        std::vector<PhysHandle> chunks;
        bool active = false;
        /**
         * Physical backing present. A spilled (offloaded) block keeps
         * its VA, its stitched sBlock memberships, and its place in
         * the inactive indices — only the chunks are released, so a
         * fault-in is remap-only and never re-stitches. Always true
         * without an offload hook attached.
         */
        bool resident = true;
        /** ObjectPool live flag (support/object_pool.hh). */
        bool poolLive = false;
        Tick lastUse = 0;
        /** Stream that may reuse this block (kAnyStream after sync). */
        StreamId stream = kDefaultStream;
        /**
         * sBlocks whose VA also maps this block's chunks. A small
         * unordered vector: the set is tiny, and keeping it flat
         * means recycled nodes retain capacity (no per-stitch node
         * allocations).
         */
        std::vector<SBlock *> sharers;
        /** Own nodes of mInactiveP and mInactivePFree. */
        IndexSlot<PIndex> inactiveSlot;
        IndexSlot<PIndex> unsharedSlot;

        bool
        sharedBy(const SBlock *sblock) const
        {
            for (const SBlock *s : sharers) {
                if (s == sblock)
                    return true;
            }
            return false;
        }
        void
        dropSharer(SBlock *sblock)
        {
            for (SBlock *&s : sharers) {
                if (s == sblock) {
                    s = sharers.back();
                    sharers.pop_back();
                    return;
                }
            }
        }
    };

    /** Stitched block: a VA spanning the chunks of several pBlocks. */
    struct SBlock
    {
        std::uint64_t id = 0;
        VirtAddr va = kNullAddr;
        Bytes size = 0;
        /** Recency index, as for PBlock. */
        SizeClass *cls = nullptr;
        SBlock *older = nullptr;
        SBlock *newer = nullptr;
        std::vector<PBlock *> members;
        bool active = false;
        /** ObjectPool live flag (support/object_pool.hh). */
        bool poolLive = false;
        Tick lastUse = 0;
        /** Stream that may reuse this block (kAnyStream after sync). */
        StreamId stream = kDefaultStream;
        /** Own node of mInactiveS. */
        IndexSlot<SIndex> inactiveSlot;
    };

    /**
     * Intrusive list of inactive blocks, oldest first. Every insert
     * stamps lastUse = now() just before appending, and the simulated
     * clock never goes backwards, so appending at the newest end
     * keeps the list sorted by lastUse.
     */
    template <typename Block>
    struct RecencyList
    {
        Block *oldest = nullptr;
        Block *newest = nullptr;

        void
        append(Block *block)
        {
            GMLAKE_ASSERT(newest == nullptr ||
                          newest->lastUse <= block->lastUse,
                          "recency list append out of lastUse order");
            block->older = newest;
            block->newer = nullptr;
            (newest != nullptr ? newest->newer : oldest) = block;
            newest = block;
        }
        void
        unlink(Block *block)
        {
            (block->older != nullptr ? block->older->newer : oldest) =
                block->newer;
            (block->newer != nullptr ? block->newer->older : newest) =
                block->older;
            block->older = block->newer = nullptr;
        }

        /**
         * The eligible block with the largest lastUse, ties to the
         * lowest id: walks from the newest end through the run of
         * equal lastUse at the first eligible block, then stops.
         */
        template <typename Pred>
        Block *
        mostRecent(Pred &&isEligible) const
        {
            Block *best = nullptr;
            for (Block *b = newest; b != nullptr; b = b->older) {
                if (best != nullptr && b->lastUse < best->lastUse)
                    break;
                if (isEligible(b) && (best == nullptr || b->id < best->id))
                    best = b;
            }
            return best;
        }
    };

    /**
     * One block size of the recency index, which answers S1: the
     * inactive pBlocks and sBlocks of exactly this size in lastUse
     * order. A class lives while any live block has its size (refs),
     * and every block caches a pointer to its class, so the
     * active/inactive transitions link and unlink in O(1).
     */
    struct SizeClass
    {
        std::size_t refs = 0;
        RecencyList<PBlock> p;
        RecencyList<SBlock> s;
    };

    vmm::Device &mDevice;
    GMLakeConfig mConfig;
    alloc::AllocatorStats mStats;
    StrategyCounters mCounters;

    std::uint64_t mNextBlockId = 1;
    alloc::AllocId mNextAllocId = 1;

    /**
     * Ownership of all block metadata: slab pools that recycle
     * nodes (with their vectors' grown capacity and their parked
     * index nodes) through a freelist, so steady-state
     * stitch/split/free churn performs no heap allocation for block
     * objects or their index entries.
     */
    ObjectPool<PBlock> mPPool;
    ObjectPool<SBlock> mSPool;

    /**
     * Inactive (allocatable) blocks, size-descending. mInactivePFree
     * is the incrementally maintained third index: the subset of
     * mInactiveP that no cached sBlock references (sharers empty),
     * which the two-phase BestFit search prefers. It is updated on
     * every empty <-> non-empty sharer transition and on every
     * inactive-pool insert/erase, so the preference phase needs no
     * per-request rebuild.
     */
    PIndex mInactiveP;
    PIndex mInactivePFree;
    SIndex mInactiveS;

    /**
     * Recency index over the same inactive blocks, by size: S1 walks
     * the classes in [request, request + slack] upward and takes the
     * most recent eligible block of the first class that has one,
     * instead of scanning every equal-size block.
     */
    std::map<Bytes, SizeClass> mClasses;

    // Scratch for the hot-path temporaries, sized once in the
    // constructor: every search clears the first and every map batch
    // the second before filling it, and a cleared vector keeps its
    // capacity, so the steady-state hot path allocates nothing here.
    /** The BestFit candidate set (also a stitch's member list). */
    std::vector<PBlock *> mFitCandidates;
    /** The batched cuMemMap staging buffer (stitch/split/fault-in). */
    std::vector<std::pair<VirtAddr, PhysHandle>> mMapBatch;

    /** Live allocations: id -> target block (exactly one non-null). */
    struct Live
    {
        PBlock *p = nullptr;
        SBlock *s = nullptr;
        Bytes requested = 0;
        alloc::AllocId smallId = 0; //!< id inside the small path
    };
    std::unordered_map<alloc::AllocId, Live> mLive;

    Bytes mPhysicalBytes = 0;
    Bytes mStitchedVaBytes = 0;
    /** Bytes of non-resident (spilled) pBlocks. */
    Bytes mSpilledBytes = 0;
    /** StitchFree VA bound, derived once from the device capacity. */
    Bytes mVaCapBytes = 0;

    /**
     * While set, trimCache() refuses to spill: a reclaim triggered
     * from inside ensureResident() must not evict the inactive
     * blocks a handout is in the middle of restoring. Managed by
     * TrimGuard (RAII, nestable).
     */
    bool mTrimSuspended = false;

    struct TrimGuard
    {
        explicit TrimGuard(GMLakeAllocator &allocator)
            : mAllocator(allocator),
              mPrev(allocator.mTrimSuspended)
        {
            allocator.mTrimSuspended = true;
        }
        ~TrimGuard() { mAllocator.mTrimSuspended = mPrev; }

        TrimGuard(const TrimGuard &) = delete;
        TrimGuard &operator=(const TrimGuard &) = delete;

        GMLakeAllocator &mAllocator;
        bool mPrev;
    };

    /** Small (<2 MB) allocations go through the original splitter. */
    alloc::CachingAllocator mSmallPath;
    Bytes mSmallReservedSeen = 0;

    // --- the three mutators (Section 3.3.1) ---------------------------

    /** Alloc: create a brand new pBlock of @p size bytes. */
    Expected<PBlock *> allocPBlock(Bytes size, StreamId stream);

    /**
     * Split @p block into [sizeA | rest]; both halves become new
     * pBlocks reusing the original physical chunks. Any sBlock
     * sharing the original is destroyed first (they must be
     * inactive). Returns the first half.
     */
    Expected<PBlock *> splitPBlock(PBlock *block, Bytes sizeA);

    /** Stitch @p members (inactive) into a new sBlock. */
    Expected<SBlock *> stitch(const std::vector<PBlock *> &members,
                              StreamId stream);

    // --- lifecycle helpers --------------------------------------------

    void destroySBlock(SBlock *sblock);
    void releasePBlock(PBlock *block);

    void markPActive(PBlock *block, bool active);
    void markSActive(SBlock *sblock, bool active);

    /**
     * Set a block's size and index it under that size class; every
     * size assignment goes through here.
     */
    template <typename Block>
    void
    setSize(Block *block, Bytes size)
    {
        SizeClass &cls = mClasses[size];
        ++cls.refs;
        block->size = size;
        block->cls = &cls;
    }

    /** Return a sized node to its pool, dropping its class ref. */
    template <typename Block>
    void
    freeNode(Block *block, ObjectPool<Block> &pool)
    {
        if (--block->cls->refs == 0)
            mClasses.erase(block->size);
        pool.release(block);
    }

    /** Insert/erase @p block in every inactive pBlock index. */
    void
    insertInactiveP(PBlock *block)
    {
        block->inactiveSlot.insert(mInactiveP, block);
        if (block->sharers.empty())
            block->unsharedSlot.insert(mInactivePFree, block);
        block->cls->p.append(block);
    }
    void
    eraseInactiveP(PBlock *block)
    {
        block->inactiveSlot.erase(mInactiveP);
        if (block->unsharedSlot.indexed)
            block->unsharedSlot.erase(mInactivePFree);
        block->cls->p.unlink(block);
    }

    /** Insert/erase @p sblock in both inactive sBlock indices. */
    void
    insertInactiveS(SBlock *sblock)
    {
        sblock->inactiveSlot.insert(mInactiveS, sblock);
        sblock->cls->s.append(sblock);
    }
    void
    eraseInactiveS(SBlock *sblock)
    {
        sblock->inactiveSlot.erase(mInactiveS);
        sblock->cls->s.unlink(sblock);
    }

    /** alloc::streamReusable at the device's current time. */
    bool
    streamOk(StreamId blockStream, Tick freedAt,
             StreamId stream) const
    {
        return alloc::streamReusable(blockStream, freedAt, stream,
                                     mDevice.now());
    }

    /** True when the sBlock and all its members are inactive and
     *  reusable by @p stream. */
    bool eligible(const SBlock &sblock, StreamId stream) const;

    /** LRU eviction of cached sBlocks down to the configured bounds. */
    void stitchFree();

    // --- offload tier: spill / fault-in of physical backing ------------

    /** VA offset of member @p block inside @p sblock's stitched VA. */
    static Bytes sharerOffset(const SBlock *sblock,
                              const PBlock *block);

    /**
     * Release @p block's physical chunks while keeping the block, its
     * VA, and every stitched sBlock over it intact: the chunks are
     * unmapped from the block's own VA and from each sharer's VA,
     * then released to the device.
     */
    void spillPBlock(PBlock *block);

    /**
     * Recreate and remap the chunks of a spilled block under its
     * original VA and every sharer VA (remap-only; no re-stitch, and
     * any data copy is charged by the offload manager, not here). On
     * device OOM asks the offload hook to reclaim and retries once;
     * a failure leaves the block spilled.
     */
    Status ensureResident(PBlock *block);

    /** ensureResident() over every member of @p sblock. */
    Status ensureResident(SBlock *sblock);

    /** Last-resort release of cached memory, then used by retries. */
    void releaseCached();

    /**
     * Count one partial-failure unwind (stitch, split, fresh pBlock
     * build, fault-in remap). The count stays zero unless a device
     * API fails mid-mutation, which only fault injection causes.
     */
    void noteRollback() { ++mRollbacks; }
    std::uint64_t mRollbacks = 0;
    /** Allocations that succeeded only after a failed growth round. */
    std::uint64_t mRecovered = 0;

    // --- observability ------------------------------------------------

    /**
     * allocate() body; the public entry wraps it in a provenance
     * scope + span when a recorder is active, and calls it directly
     * (zero added work beyond one branch) when none is.
     */
    Expected<alloc::Allocation> allocateImpl(Bytes size,
                                             StreamId stream);

    /** Track id for allocator decision events, re-interned per run. */
    std::uint32_t allocTrack(obs::Recorder &recorder);
    std::uint32_t mObsTrack = 0;
    std::uint64_t mObsGeneration = 0;

    /** Decision instants (no-ops under the null sink). */
    void notePhase(obs::AllocPhase phase, Bytes rounded);
    void noteReclaimRung(int attempt, Bytes reclaimed);

    /** Serve one large request; factor of allocate(). */
    Expected<alloc::Allocation> allocateLarge(Bytes size,
                                              StreamId stream);

    /**
     * allocateLarge() body: the retry ladder sets @p retried when a
     * failed growth round was answered with a reclaim-and-retry, so
     * the wrapper can count ultimately successful recoveries.
     */
    Expected<alloc::Allocation> allocateLargeInner(Bytes size,
                                                   StreamId stream,
                                                   bool &retried);

    /** Bridge small-path stats into the unified stats object. */
    void syncSmallPathStats();
};

} // namespace gmlake::core

#endif // GMLAKE_CORE_GMLAKE_ALLOCATOR_HH
