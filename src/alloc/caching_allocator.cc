#include "alloc/caching_allocator.hh"

#include <algorithm>
#include <bit>
#include <map>

#include "support/logging.hh"
#include "support/strings.hh"
#include "support/units.hh"

namespace gmlake::alloc
{

bool
CachingAllocator::BlockCmp::operator()(const Block *a,
                                       const Block *b) const
{
    if (a->size != b->size)
        return a->size < b->size;
    return a->addr < b->addr;
}

bool
CachingAllocator::BlockCmp::operator()(const Block *a,
                                       const SizeKey &k) const
{
    if (a->size != k.size)
        return a->size < k.size;
    return a->addr < k.addr;
}

bool
CachingAllocator::BlockCmp::operator()(const SizeKey &k,
                                       const Block *b) const
{
    if (k.size != b->size)
        return k.size < b->size;
    return k.addr < b->addr;
}

void
CachingAllocator::Pool::insert(Block *block)
{
    byStream[block->stream].insert(block);
}

void
CachingAllocator::Pool::erase(Block *block)
{
    const auto erased = byStream[block->stream].erase(block);
    GMLAKE_ASSERT(erased == 1, "free block missing from its pool");
}

CachingAllocator::CachingAllocator(vmm::Device &device,
                                   CachingConfig config)
    : mDevice(device), mConfig(config)
{
    // Steady-state allocation should not grow the bookkeeping maps.
    mSegments.reserve(256);
    mBlocks.reserve(1024);
    mLive.reserve(4096);
}

CachingAllocator::~CachingAllocator() = default;

Bytes
CachingAllocator::roundSize(Bytes size) const
{
    if (size < kMinBlockSize)
        return kMinBlockSize;
    Bytes rounded = roundUp(size, kMinBlockSize);
    if (mConfig.roundupPower2Divisions > 0 && rounded > kMinBlockSize) {
        // Round up to the next 1/N fraction of the enclosing power
        // of two, e.g. N=4: 1200 KiB -> 1280 KiB (1 MiB + 1/4 MiB).
        const Bytes pow2 = std::bit_ceil(rounded);
        const Bytes step = std::max<Bytes>(
            pow2 / mConfig.roundupPower2Divisions, kMinBlockSize);
        rounded = roundUp(rounded, step);
    }
    return rounded;
}

Bytes
CachingAllocator::allocationSize(Bytes rounded) const
{
    if (rounded <= kSmallSize)
        return kSmallBuffer;
    if (rounded < kMinLargeAlloc)
        return kLargeBuffer;
    return roundUp(rounded, kRoundLarge);
}

CachingAllocator::Pool &
CachingAllocator::poolFor(Bytes rounded)
{
    return rounded <= kSmallSize ? mSmallPool : mLargePool;
}

bool
CachingAllocator::shouldSplit(const Block &block, Bytes rounded) const
{
    if (block.size > mConfig.maxSplitSize)
        return false; // oversize blocks are never split
    const Bytes remaining = block.size - rounded;
    if (block.pool == &mSmallPool)
        return remaining >= kMinBlockSize;
    return remaining > kSmallSize;
}

CachingAllocator::Block *
CachingAllocator::newBlock(VirtAddr addr, Bytes size, VirtAddr segment,
                           Pool *pool, StreamId stream)
{
    auto owned = std::make_unique<Block>();
    Block *raw = owned.get();
    raw->addr = addr;
    raw->size = size;
    raw->segment = segment;
    raw->pool = pool;
    raw->stream = stream;
    mBlocks.emplace(raw, std::move(owned));
    return raw;
}

void
CachingAllocator::destroyBlock(Block *block)
{
    const auto erased = mBlocks.erase(block);
    GMLAKE_ASSERT(erased == 1, "destroy of unowned block");
}

Expected<CachingAllocator::Block *>
CachingAllocator::growSegment(Bytes rounded, StreamId stream)
{
    // garbage_collection_threshold: trim the cache before growing
    // past the configured share of device memory.
    if (mConfig.gcThreshold > 0.0 &&
        static_cast<double>(mStats.reservedBytes()) >
            mConfig.gcThreshold *
                static_cast<double>(mDevice.capacity())) {
        emptyCache();
    }

    const Bytes segSize = allocationSize(rounded);
    auto va = mDevice.mallocNative(segSize);
    if (!va.ok()) {
        // PyTorch behaviour: release every cached segment and retry
        // (cudaMalloc failure implies a device synchronization, so
        // stream-pinned cached blocks become reclaimable first).
        releaseStream(kAnyStream);
        if (mOffloadHook != nullptr) {
            // Offload tier attached: a targeted trim (attributed as
            // eviction traffic) instead of dropping the whole cache.
            // Live spilling is unsupported here, so the hook cannot
            // reclaim beyond the cache — see trimCache().
            mOffloadHook->reclaimOnOom(segSize, stream);
        } else {
            emptyCache();
        }
        va = mDevice.mallocNative(segSize);
        if (!va.ok() && mOffloadHook != nullptr) {
            // A targeted trim can leave the physical space too
            // fragmented for one contiguous segment where a full
            // cache drop would have coalesced it; fall back before
            // reporting OOM.
            emptyCache();
            va = mDevice.mallocNative(segSize);
        }
        if (!va.ok())
            return va.error();
    }
    mSegments.emplace(*va, segSize);
    mStats.onReserve(segSize);
    Block *block =
        newBlock(*va, segSize, *va, &poolFor(rounded), stream);
    return block;
}

CachingAllocator::Block *
CachingAllocator::findFit(Pool &pool, Bytes rounded, StreamId stream)
{
    // Best fit across the stream tags of the pool: blocks of the
    // requesting stream and stream-neutral blocks are always usable;
    // blocks freed on another stream become usable once their free
    // event has lapsed. Each tag offers its smallest sufficient
    // block; the smallest offer wins, and strict comparison keeps
    // the lowest tag on ties.
    const Tick now = mDevice.now();
    FreeSet *bestSet = nullptr;
    FreeSet::iterator best;
    for (auto &[tag, set] : pool.byStream) {
        const auto it = set.lower_bound(SizeKey{rounded, 0});
        if (it == set.end())
            continue;
        const Block *cand = *it;
        bool usable = streamReusable(tag, cand->freedAt, stream, now);
        // max_split_size discipline: an oversize (unsplittable)
        // block may only serve requests that use most of it.
        if (cand->size > mConfig.maxSplitSize &&
            cand->size - rounded > kLargeBuffer)
            usable = false;
        if (!usable || (bestSet && cand->size >= (*best)->size))
            continue;
        bestSet = &set;
        best = it;
    }
    if (bestSet == nullptr)
        return nullptr;
    Block *block = *best;
    bestSet->erase(best);
    return block;
}

Expected<Allocation>
CachingAllocator::allocate(Bytes size, StreamId stream)
{
    if (size == 0)
        return makeError(Errc::invalidValue, "allocate of zero bytes");
    if (stream == kAnyStream)
        return makeError(Errc::invalidValue,
                         "cannot allocate on the sentinel stream");
    mDevice.chargeCachedOp();

    const Bytes rounded = roundSize(size);
    Pool &pool = poolFor(rounded);

    Block *block = findFit(pool, rounded, stream);
    if (!block) {
        auto grown = growSegment(rounded, stream);
        if (!grown.ok())
            return grown.error();
        block = *grown;
    }
    // The block is about to be written by this stream.
    block->stream = stream;

    if (shouldSplit(*block, rounded)) {
        Block *rest = newBlock(block->addr + rounded,
                               block->size - rounded, block->segment,
                               block->pool, stream);
        rest->prev = block;
        rest->next = block->next;
        if (rest->next)
            rest->next->prev = rest;
        block->next = rest;
        block->size = rounded;
        pool.insert(rest);
    }

    block->allocated = true;
    const AllocId id = mNextId++;
    mLive.emplace(id, block);
    // PyTorch reports the block size it hands out as allocated bytes.
    mStats.onAllocate(block->size);
    return Allocation{id, size, block->addr};
}

CachingAllocator::Block *
CachingAllocator::coalesce(Block *block)
{
    Pool &pool = *block->pool;
    if (Block *n = block->next;
        n && !n->allocated && n->stream == block->stream) {
        pool.erase(n);
        block->size += n->size;
        if (n->freedAt > block->freedAt)
            block->freedAt = n->freedAt;
        block->next = n->next;
        if (block->next)
            block->next->prev = block;
        destroyBlock(n);
    }
    if (Block *p = block->prev;
        p && !p->allocated && p->stream == block->stream) {
        pool.erase(p);
        p->size += block->size;
        if (block->freedAt > p->freedAt)
            p->freedAt = block->freedAt;
        p->next = block->next;
        if (p->next)
            p->next->prev = p;
        destroyBlock(block);
        block = p;
    }
    return block;
}

Status
CachingAllocator::deallocate(AllocId id)
{
    auto it = mLive.find(id);
    if (it == mLive.end())
        return makeError(Errc::invalidValue, "unknown allocation id");
    mDevice.chargeCachedOp();

    Block *block = it->second;
    mLive.erase(it);
    mStats.onDeallocate(block->size);

    block->allocated = false;
    block->freedAt = mDevice.now();
    block = coalesce(block);
    if (block->freedAt < mDevice.now())
        block->freedAt = mDevice.now();
    block->pool->insert(block);
    return Status::success();
}

void
CachingAllocator::releaseStream(StreamId stream)
{
    // Retag the free blocks pinned to @p stream (or every stream for
    // the kAnyStream sentinel) as reusable by anyone, then merge
    // newly compatible neighbours. Retagging changes the free set a
    // block lives in, so the blocks are re-inserted.
    auto sweep = [&](Pool &pool) {
        std::vector<Block *> retag;
        for (const auto &[tag, set] : pool.byStream) {
            if (tag == kAnyStream ||
                (stream != kAnyStream && tag != stream))
                continue;
            retag.insert(retag.end(), set.begin(), set.end());
        }
        for (Block *b : retag) {
            pool.erase(b);
            b->stream = kAnyStream;
            pool.insert(b);
        }
        // Merge pass: re-coalesce every free block, in the pool's
        // global (stream, size, addr) order.
        std::vector<Block *> frees;
        for (const auto &[tag, set] : pool.byStream) {
            (void)tag;
            frees.insert(frees.end(), set.begin(), set.end());
        }
        for (Block *b : frees) {
            if (mBlocks.count(b) == 0 || b->allocated)
                continue; // already merged away
            pool.erase(b);
            pool.insert(coalesce(b));
        }
    };
    sweep(mSmallPool);
    sweep(mLargePool);
}

void
CachingAllocator::streamSynchronize(StreamId stream)
{
    mDevice.syncPenalty();
    releaseStream(stream);
}

void
CachingAllocator::deviceSynchronize()
{
    mDevice.syncPenalty();
    releaseStream(kAnyStream);
}

Bytes
CachingAllocator::sweepSegments(Pool &pool, Bytes budget)
{
    Bytes freed = 0;
    for (auto &[tag, set] : pool.byStream) {
        (void)tag;
        if (freed >= budget)
            break;
        for (auto it = set.begin(); it != set.end() && freed < budget;) {
            Block *block = *it;
            if (!block->prev && !block->next) {
                // Block spans its whole segment; release it.
                const auto seg = mSegments.find(block->segment);
                GMLAKE_ASSERT(seg != mSegments.end(),
                              "free block with unknown segment");
                GMLAKE_ASSERT(seg->second == block->size,
                              "whole-segment block size mismatch");
                const Status s = mDevice.freeNative(block->segment);
                GMLAKE_ASSERT(s.ok(), "segment must free cleanly: ",
                              s.ok() ? "" : s.error().message);
                mStats.onRelease(seg->second);
                freed += seg->second;
                mSegments.erase(seg);
                it = set.erase(it);
                destroyBlock(block);
            } else {
                ++it;
            }
        }
    }
    return freed;
}

void
CachingAllocator::emptyCache()
{
    sweepSegments(mSmallPool, ~Bytes{0});
    sweepSegments(mLargePool, ~Bytes{0});
}

Bytes
CachingAllocator::trimCache(Bytes target)
{
    if (target == 0)
        return 0;
    // Pool order (stream, size, addr) is deterministic, so the same
    // request always releases the same segments.
    Bytes freed = sweepSegments(mLargePool, target);
    if (freed < target)
        freed += sweepSegments(mSmallPool, target - freed);
    return freed;
}

Bytes
CachingAllocator::trimmableBytes() const
{
    Bytes total = 0;
    auto sweep = [&](const Pool &pool) {
        for (const auto &[tag, set] : pool.byStream) {
            (void)tag;
            for (const Block *b : set) {
                if (!b->prev && !b->next)
                    total += b->size;
            }
        }
    };
    sweep(mLargePool);
    sweep(mSmallPool);
    return total;
}

Bytes
CachingAllocator::cachedBytes() const
{
    Bytes total = 0;
    auto sweep = [&](const Pool &pool) {
        for (const auto &[tag, set] : pool.byStream) {
            (void)tag;
            for (const Block *b : set)
                total += b->size;
        }
    };
    sweep(mSmallPool);
    sweep(mLargePool);
    return total;
}

std::size_t
CachingAllocator::segmentCount() const
{
    return mSegments.size();
}

CachingAllocator::State
CachingAllocator::captureState() const
{
    State state;
    state.nextId = mNextId;
    state.stats = mStats.capture();

    std::unordered_map<const Block *, AllocId> liveIds;
    liveIds.reserve(mLive.size());
    for (const auto &[id, block] : mLive)
        liveIds.emplace(block, id);

    std::map<VirtAddr, State::SegmentRec> segments;
    for (const auto &[base, size] : mSegments) {
        State::SegmentRec rec;
        rec.base = base;
        rec.size = size;
        segments.emplace(base, std::move(rec));
    }
    for (const auto &[raw, owned] : mBlocks) {
        (void)owned;
        const Block *b = raw;
        auto it = segments.find(b->segment);
        GMLAKE_ASSERT(it != segments.end(),
                      "checkpoint found a block without segment");
        if (b->pool == &mSmallPool)
            it->second.smallPool = true;
        State::BlockRec rec;
        rec.addr = b->addr;
        rec.size = b->size;
        rec.allocated = b->allocated;
        rec.stream = b->stream;
        rec.freedAt = b->freedAt;
        if (const auto id = liveIds.find(b); id != liveIds.end())
            rec.liveId = id->second;
        it->second.blocks.push_back(rec);
    }
    state.segments.reserve(segments.size());
    for (auto &[base, rec] : segments) {
        (void)base;
        std::sort(rec.blocks.begin(), rec.blocks.end(),
                  [](const State::BlockRec &a,
                     const State::BlockRec &b) {
                      return a.addr < b.addr;
                  });
        state.segments.push_back(std::move(rec));
    }
    return state;
}

void
CachingAllocator::restoreInternal(const State &state)
{
    // Drop every block node: pure metadata, no device interaction
    // (the caller restores the device wholesale).
    mSmallPool.byStream.clear();
    mLargePool.byStream.clear();
    mBlocks.clear();
    mLive.clear();
    mSegments.clear();

    for (const auto &seg : state.segments) {
        mSegments.emplace(seg.base, seg.size);
        Pool *pool = seg.smallPool ? &mSmallPool : &mLargePool;
        Block *prev = nullptr;
        for (const auto &rec : seg.blocks) {
            Block *b = newBlock(rec.addr, rec.size, seg.base, pool,
                                rec.stream);
            b->allocated = rec.allocated;
            b->freedAt = rec.freedAt;
            b->prev = prev;
            if (prev != nullptr)
                prev->next = b;
            prev = b;
            if (rec.allocated) {
                GMLAKE_ASSERT(rec.liveId != 0,
                              "allocated block without live id");
                mLive.emplace(rec.liveId, b);
            } else {
                pool->insert(b);
            }
        }
    }
    mNextId = state.nextId;
    mStats.restore(state.stats);
}

namespace
{
/** Checkpoint payload of a standalone CachingAllocator. */
struct CachingStateBox : AllocatorState
{
    CachingAllocator::State state;
};
} // namespace

Checkpoint
CachingAllocator::saveState() const
{
    auto box = std::make_shared<CachingStateBox>();
    box->state = captureState();
    return Checkpoint{name(), mDevice.saveState(), std::move(box)};
}

void
CachingAllocator::restoreState(const Checkpoint &checkpoint)
{
    GMLAKE_ASSERT(checkpoint.allocator == name(),
                  "checkpoint from allocator '",
                  checkpoint.allocator, "' restored into caching");
    const auto *box = dynamic_cast<const CachingStateBox *>(
        checkpoint.state.get());
    GMLAKE_ASSERT(box != nullptr, "malformed caching checkpoint");
    mDevice.restoreState(checkpoint.device);
    restoreInternal(box->state);
}

MemorySnapshot
CachingAllocator::snapshot() const
{
    MemorySnapshot snap;
    snap.allocator = name();
    snap.activeBytes = mStats.activeBytes();
    snap.reservedBytes = mStats.reservedBytes();

    // Group the block chains by segment, in address order.
    std::map<VirtAddr, RegionSnapshot> regions;
    for (const auto &[base, size] : mSegments) {
        RegionSnapshot region;
        region.kind = "segment";
        region.base = base;
        region.size = size;
        regions.emplace(base, std::move(region));
    }
    for (const auto &[raw, owned] : mBlocks) {
        (void)owned;
        const Block *b = raw;
        auto it = regions.find(b->segment);
        GMLAKE_ASSERT(it != regions.end(), "block without segment");
        it->second.blocks.push_back(
            BlockSnapshot{b->addr, b->size, b->allocated, b->stream});
    }
    for (auto &[base, region] : regions) {
        (void)base;
        std::sort(region.blocks.begin(), region.blocks.end(),
                  [](const BlockSnapshot &a, const BlockSnapshot &b) {
                      return a.addr < b.addr;
                  });
        snap.regions.push_back(std::move(region));
    }
    return snap;
}

void
CachingAllocator::checkConsistency() const
{
    // Every block chain must tile its segment exactly, and the free
    // pools must contain exactly the non-allocated blocks.
    Bytes chained = 0;
    std::size_t freeBlocks = 0;
    for (const auto &[raw, owned] : mBlocks) {
        const Block *b = raw;
        (void)owned;
        chained += b->size;
        if (!b->allocated)
            ++freeBlocks;
        if (b->next) {
            GMLAKE_ASSERT(b->next->addr == b->addr + b->size,
                          "adjacent blocks must be contiguous");
            GMLAKE_ASSERT(b->next->prev == b, "broken back link");
            GMLAKE_ASSERT(b->next->segment == b->segment,
                          "next block crosses a segment");
        }
        GMLAKE_ASSERT(mSegments.count(b->segment) == 1,
                      "block with unknown segment");
    }
    Bytes segTotal = 0;
    for (const auto &[base, size] : mSegments) {
        (void)base;
        segTotal += size;
    }
    GMLAKE_ASSERT(chained == segTotal,
                  "blocks must tile segments: ", chained, " vs ",
                  segTotal);
    std::size_t pooled = 0;
    auto countPool = [&](const Pool &pool) {
        for (const auto &[tag, set] : pool.byStream) {
            (void)tag;
            pooled += set.size();
        }
    };
    countPool(mSmallPool);
    countPool(mLargePool);
    GMLAKE_ASSERT(freeBlocks == pooled, "pool membership mismatch");
    GMLAKE_ASSERT(mStats.reservedBytes() == segTotal,
                  "reserved accounting drifted");
}

} // namespace gmlake::alloc
