#include "core/gmlake_allocator.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "obs/recorder.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/units.hh"

namespace gmlake::core
{

namespace
{

/**
 * @p v as Bytes, saturating: NaN and <= 0 give 0, >= 2^64 the max.
 * The double knobs it scales are bounded only to finite and >= 0,
 * and an out-of-range double-to-integer cast is undefined behaviour.
 */
Bytes
saturatingBytes(double v)
{
    constexpr Bytes kMax = std::numeric_limits<Bytes>::max();
    if (!(v > 0.0))
        return 0;
    return v >= static_cast<double>(kMax) ? kMax : static_cast<Bytes>(v);
}

} // namespace

GMLakeAllocator::GMLakeAllocator(vmm::Device &device, GMLakeConfig config)
    : mDevice(device), mConfig(config), mSmallPath(device)
{
    mVaCapBytes = saturatingBytes(mConfig.maxVaOverscribe *
                                  static_cast<double>(device.capacity()));
    // Size the live table and the scratch buffers once, up front.
    // Block nodes come from the slab pools and keep their own index
    // nodes (IndexSlot), so a steady-state allocate/free pair makes
    // one heap allocation: the live table's hash node. Recycling that
    // node the same way measured slower.
    mLive.reserve(4096);
    mFitCandidates.reserve(64);
    mMapBatch.reserve(1024);
}

GMLakeAllocator::~GMLakeAllocator() = default;

// --------------------------------------------------------------------
// Small-path bridging
// --------------------------------------------------------------------

void
GMLakeAllocator::syncSmallPathStats()
{
    const Bytes cur = mSmallPath.stats().reservedBytes();
    if (cur > mSmallReservedSeen)
        mStats.onReserve(cur - mSmallReservedSeen);
    else if (cur < mSmallReservedSeen)
        mStats.onRelease(mSmallReservedSeen - cur);
    mSmallReservedSeen = cur;
}

// --------------------------------------------------------------------
// pBlock lifecycle
// --------------------------------------------------------------------

Expected<GMLakeAllocator::PBlock *>
GMLakeAllocator::allocPBlock(Bytes size, StreamId stream)
{
    GMLAKE_ASSERT(size > 0 && isAligned(size, kChunkSize),
                  "pBlock size must be a chunk multiple");

    const auto va = mDevice.memAddressReserve(size);
    if (!va.ok())
        return va.error();

    // The recycled node's chunk vector doubles as the build buffer,
    // so the steady state creates neither a node nor a vector.
    PBlock *block = mPPool.acquire();
    block->chunks.clear();
    block->sharers.clear();
    block->chunks.resize(size / kChunkSize);

    // One device call creates and maps every chunk — the simulated
    // cost and failure behaviour of the real per-chunk CUDA loop —
    // and on failure unwinds what it built. Undoing the fresh mapping
    // after a failed setAccess uses only teardown calls, which cannot
    // fail on valid arguments.
    Status built = mDevice.memCreateMapRun(*va, kChunkSize, block->chunks);
    if (built.ok()) {
        built = mDevice.memSetAccess(*va, size);
        if (!built.ok())
            mDevice.memUnmapReleaseRun(*va, kChunkSize, block->chunks);
    }
    if (!built.ok()) {
        const Status s = mDevice.memAddressFree(*va);
        GMLAKE_ASSERT(s.ok(), "rollback addressFree failed");
        block->chunks.clear();
        mPPool.release(block);
        noteRollback();
        return built.error();
    }

    block->id = mNextBlockId++;
    block->va = *va;
    setSize(block, size);
    block->active = false;
    block->resident = true;
    block->lastUse = mDevice.now();
    block->stream = stream;
    insertInactiveP(block);

    mPhysicalBytes += size;
    mStats.onReserve(size);
    return block;
}

void
GMLakeAllocator::releasePBlock(PBlock *block)
{
    GMLAKE_ASSERT(!block->active, "release of an active pBlock");
    // Destroy any sBlock still referencing this block first.
    while (!block->sharers.empty())
        destroySBlock(block->sharers.back());

    if (block->resident) {
        const Status s = mDevice.memUnmap(block->va, block->size);
        GMLAKE_ASSERT(s.ok(), "pBlock unmap failed");
        const vmm::RunStatus released =
            mDevice.memReleaseRun(block->chunks);
        GMLAKE_ASSERT(released.ok(), "pBlock chunk release failed");
        mPhysicalBytes -= block->size;
        mStats.onRelease(block->size);
    } else {
        // A spilled block holds no mappings or chunks; only its VA
        // reservation and the spilled-bytes accounting remain.
        mSpilledBytes -= block->size;
    }
    const Status s = mDevice.memAddressFree(block->va);
    GMLAKE_ASSERT(s.ok(), "pBlock addressFree failed");

    eraseInactiveP(block);
    freeNode(block, mPPool);
}

Expected<GMLakeAllocator::PBlock *>
GMLakeAllocator::splitPBlock(PBlock *block, Bytes sizeA)
{
    GMLAKE_ASSERT(!block->active, "split of an active pBlock");
    GMLAKE_ASSERT(block->resident,
                  "split of a spilled pBlock (fault it in first)");
    GMLAKE_ASSERT(isAligned(sizeA, kChunkSize) &&
                  sizeA < block->size,
                  "split size must be a chunk multiple below the "
                  "block size");
    ++mCounters.splits;

    // Any sBlock stitched over the original block becomes stale: the
    // paper removes the previous pBlock structure from the pPool, so
    // its sharers are dropped (they are inactive by construction).
    while (!block->sharers.empty())
        destroySBlock(block->sharers.back());

    const Bytes sizeB = block->size - sizeA;
    const std::size_t chunksA = sizeA / kChunkSize;

    // Remap a chunk subrange of the original under a fresh VA with
    // one batched driver call (simulated cost unchanged: charged
    // per chunk).
    auto makeHalf = [&](std::size_t chunkOffset,
                        std::size_t chunkCount,
                        Bytes size) -> Expected<PBlock *> {
        const auto va = mDevice.memAddressReserve(size);
        if (!va.ok())
            return va.error();
        mMapBatch.clear();
        for (std::size_t i = 0; i < chunkCount; ++i) {
            mMapBatch.emplace_back(
                *va + static_cast<VirtAddr>(i) * kChunkSize,
                block->chunks[chunkOffset + i]);
        }
        const Status s = mDevice.memMapBatch(mMapBatch);
        if (!s.ok()) {
            // memMapBatch is atomic on error: nothing was installed,
            // so only the fresh reservation needs undoing. The
            // original block's own mapping is still fully intact.
            const Status freed = mDevice.memAddressFree(*va);
            GMLAKE_ASSERT(freed.ok(),
                          "split rollback addressFree failed");
            noteRollback();
            return s.error();
        }
        const Status acc = mDevice.memSetAccess(*va, size);
        if (!acc.ok()) {
            Status undo = mDevice.memUnmap(*va, size);
            GMLAKE_ASSERT(undo.ok(), "split rollback unmap failed");
            undo = mDevice.memAddressFree(*va);
            GMLAKE_ASSERT(undo.ok(),
                          "split rollback addressFree failed");
            noteRollback();
            return acc.error();
        }

        PBlock *half = mPPool.acquire();
        half->id = mNextBlockId++;
        half->va = *va;
        setSize(half, size);
        half->chunks.assign(
            block->chunks.begin() +
                static_cast<std::ptrdiff_t>(chunkOffset),
            block->chunks.begin() +
                static_cast<std::ptrdiff_t>(chunkOffset + chunkCount));
        half->active = false;
        half->resident = true;
        half->lastUse = mDevice.now();
        half->stream = block->stream;
        half->sharers.clear();
        insertInactiveP(half);
        return half;
    };

    const auto halfA = makeHalf(0, chunksA, sizeA);
    if (!halfA.ok())
        return halfA.error();
    const auto halfB =
        makeHalf(chunksA, block->chunks.size() - chunksA, sizeB);
    if (!halfB.ok()) {
        // VA exhaustion or an injected fault; undo half A so the
        // original block survives the failed attempt untouched.
        PBlock *a = *halfA;
        Status s = mDevice.memUnmap(a->va, a->size);
        GMLAKE_ASSERT(s.ok(), "split rollback unmap failed");
        s = mDevice.memAddressFree(a->va);
        GMLAKE_ASSERT(s.ok(), "split rollback addressFree failed");
        eraseInactiveP(a);
        freeNode(a, mPPool);
        noteRollback();
        return halfB.error();
    }

    // Retire the original block: its VA goes away, the chunks live on
    // in the two halves. Physical accounting is unchanged.
    const std::uint64_t originalId = block->id;
    Status s = mDevice.memUnmap(block->va, block->size);
    GMLAKE_ASSERT(s.ok(), "split retire unmap failed");
    s = mDevice.memAddressFree(block->va);
    GMLAKE_ASSERT(s.ok(), "split retire addressFree failed");
    eraseInactiveP(block);
    freeNode(block, mPPool);

    if (auto *r = obs::active()) {
        r->instant(obs::EvName::split, obs::EventCat::alloc,
                   allocTrack(*r), mDevice.now(), originalId, sizeA,
                   sizeB);
    }

    // Keep the original footprint reachable for the repeating training
    // pattern: re-stitch the halves into an sBlock of the old size.
    if (mConfig.restitchOnSplit && mConfig.enableStitching) {
        const auto restitched =
            stitch({*halfA, *halfB}, (*halfA)->stream);
        if (!restitched.ok()) {
            GMLAKE_WARN("re-stitch after split failed: ",
                        restitched.error().message);
        }
    }
    return *halfA;
}

// --------------------------------------------------------------------
// sBlock lifecycle
// --------------------------------------------------------------------

Expected<GMLakeAllocator::SBlock *>
GMLakeAllocator::stitch(const std::vector<PBlock *> &members,
                        StreamId stream)
{
    GMLAKE_ASSERT(!members.empty(), "stitch of zero blocks");
    GMLAKE_ASSERT(mConfig.enableStitching, "stitching is disabled");
    ++mCounters.stitches;

    Bytes total = 0;
    for (const PBlock *m : members) {
        GMLAKE_ASSERT(!m->active, "stitch of an active pBlock");
        GMLAKE_ASSERT(m->resident,
                      "stitch of a spilled pBlock (fault it in "
                      "first)");
        total += m->size;
    }

    const auto va = mDevice.memAddressReserve(total);
    if (!va.ok())
        return va.error();

    // Map every member's chunks back-to-back under the new VA with
    // one batched driver call: the cost model still charges per
    // chunk, but the mapping table validates once and splices one
    // extent instead of per-chunk tree inserts. The sBlock never
    // creates physical chunks (paper Section 3.3.1).
    mMapBatch.clear();
    VirtAddr cursor = *va;
    for (const PBlock *m : members) {
        for (PhysHandle h : m->chunks) {
            mMapBatch.emplace_back(cursor, h);
            cursor += kChunkSize;
        }
    }
    const Status mapped = mDevice.memMapBatch(mMapBatch);
    if (!mapped.ok()) {
        // Atomic batch: no mapping was installed. Undo the fresh VA
        // reservation and stop — members, their own mappings, and
        // the sharer indices are only mutated after success below,
        // so the pools are exactly as they were before the attempt.
        const Status freed = mDevice.memAddressFree(*va);
        GMLAKE_ASSERT(freed.ok(),
                      "stitch rollback addressFree failed");
        noteRollback();
        return mapped.error();
    }
    const Status acc = mDevice.memSetAccess(*va, total);
    if (!acc.ok()) {
        Status undo = mDevice.memUnmap(*va, total);
        GMLAKE_ASSERT(undo.ok(), "stitch rollback unmap failed");
        undo = mDevice.memAddressFree(*va);
        GMLAKE_ASSERT(undo.ok(),
                      "stitch rollback addressFree failed");
        noteRollback();
        return acc.error();
    }

    SBlock *sblock = mSPool.acquire();
    sblock->id = mNextBlockId++;
    sblock->va = *va;
    setSize(sblock, total);
    sblock->members = members;
    sblock->active = false;
    sblock->lastUse = mDevice.now();
    sblock->stream = stream;
    insertInactiveS(sblock);
    for (PBlock *m : members) {
        // Empty -> non-empty sharer transition: the member leaves
        // the unshared index (it is inactive, asserted above).
        if (m->sharers.empty())
            m->unsharedSlot.erase(mInactivePFree);
        m->sharers.push_back(sblock);
    }

    mStitchedVaBytes += total;
    if (auto *r = obs::active()) {
        // The member pBlock ids ride along as the event blob so the
        // timeline and the provenance ledger can show the exact
        // composition of the stitched block.
        std::vector<std::uint64_t> ids;
        ids.reserve(members.size());
        for (const PBlock *m : members)
            ids.push_back(m->id);
        obs::Event e;
        e.simTime = mDevice.now();
        e.a0 = sblock->id;
        e.a1 = total;
        e.a2 = obs::scopeToken();
        e.track = allocTrack(*r);
        e.name = obs::EvName::stitch;
        e.kind = obs::EventKind::instant;
        e.cat = obs::EventCat::alloc;
        r->emitWithBlob(e, ids.data(),
                        static_cast<std::uint32_t>(ids.size()));
    }
    return sblock;
}

void
GMLakeAllocator::destroySBlock(SBlock *sblock)
{
    GMLAKE_ASSERT(!sblock->active, "destroy of an active sBlock");
    // A spilled member is already unmapped from every sharer
    // (spillPBlock). memUnmap skips such holes but fails on a range
    // with no mapping left, so a fully spilled sBlock skips it.
    Status s;
    if (std::any_of(sblock->members.begin(), sblock->members.end(),
                    [](const PBlock *m) { return m->resident; })) {
        s = mDevice.memUnmap(sblock->va, sblock->size);
        GMLAKE_ASSERT(s.ok(), "sBlock unmap failed");
    }
    s = mDevice.memAddressFree(sblock->va);
    GMLAKE_ASSERT(s.ok(), "sBlock addressFree failed");

    for (PBlock *m : sblock->members) {
        m->dropSharer(sblock);
        // Non-empty -> empty transition: an inactive member becomes
        // unshared again (members of an inactive sBlock may still be
        // active through another composition).
        if (m->sharers.empty() && !m->active)
            m->unsharedSlot.insert(mInactivePFree, m);
    }
    mStitchedVaBytes -= sblock->size;
    eraseInactiveS(sblock);
    freeNode(sblock, mSPool);
}

bool
GMLakeAllocator::eligible(const SBlock &sblock, StreamId stream) const
{
    if (sblock.active ||
        !streamOk(sblock.stream, sblock.lastUse, stream))
        return false;
    return std::all_of(
        sblock.members.begin(), sblock.members.end(),
        [&](const PBlock *m) {
            return !m->active &&
                   streamOk(m->stream, m->lastUse, stream);
        });
}

void
GMLakeAllocator::stitchFree()
{
    // allocateLarge runs this before every search; both bounds are
    // plain counters (the VA cap is derived once in the
    // constructor), so the common within-bounds case costs two
    // comparisons and never reaches the eviction scan below.
    auto overLimit = [&] {
        return mInactiveS.size() > mConfig.maxCachedSBlocks ||
               mStitchedVaBytes > mVaCapBytes;
    };
    while (overLimit()) {
        // Evict the least recently used inactive sBlock. Only
        // structures are released; physical memory stays put.
        SBlock *victim = nullptr;
        for (SBlock *s : mInactiveS) {
            if (!victim || s->lastUse < victim->lastUse)
                victim = s;
        }
        if (!victim)
            break; // everything is active; nothing to evict
        ++mCounters.stitchFrees;
        if (auto *r = obs::active()) {
            r->instant(obs::EvName::stitchFree,
                       obs::EventCat::alloc, allocTrack(*r),
                       mDevice.now(), victim->id, victim->size);
        }
        destroySBlock(victim);
    }
}

// --------------------------------------------------------------------
// Offload tier: spill / fault-in of physical backing
// --------------------------------------------------------------------

Bytes
GMLakeAllocator::sharerOffset(const SBlock *sblock,
                              const PBlock *block)
{
    Bytes offset = 0;
    for (const PBlock *m : sblock->members) {
        if (m == block)
            return offset;
        offset += m->size;
    }
    GMLAKE_PANIC("block is not a member of its sharer");
}

void
GMLakeAllocator::spillPBlock(PBlock *block)
{
    GMLAKE_ASSERT(block->resident, "spill of a non-resident pBlock");
    // Unmap the chunks from the block's own VA and from every
    // stitched sBlock VA over them; the VA structures all survive,
    // so the later fault-in is remap-only — no re-stitch.
    Status s = mDevice.memUnmap(block->va, block->size);
    GMLAKE_ASSERT(s.ok(), "spill unmap failed");
    for (SBlock *sharer : block->sharers) {
        s = mDevice.memUnmap(sharer->va + sharerOffset(sharer, block),
                             block->size);
        GMLAKE_ASSERT(s.ok(), "spill sharer unmap failed");
    }
    const vmm::RunStatus released = mDevice.memReleaseRun(block->chunks);
    GMLAKE_ASSERT(released.ok(), "spill chunk release failed");
    block->chunks.clear();
    block->resident = false;
    mSpilledBytes += block->size;
    mPhysicalBytes -= block->size;
    mStats.onRelease(block->size);
    if (auto *r = obs::active()) {
        r->instant(obs::EvName::spill, obs::EventCat::offload,
                   allocTrack(*r), mDevice.now(), block->id,
                   block->size, obs::scopeToken());
    }
}

Status
GMLakeAllocator::ensureResident(PBlock *block)
{
    if (block->resident)
        return Status::success();
    const std::size_t chunkCount = block->size / kChunkSize;
    std::vector<PhysHandle> &chunks = block->chunks;
    // Create the chunks as runs. A failing chunk gets one reclaim
    // round and one lone retry, as in the per-chunk call loop, and
    // the run resumes after it; the chunk vector only ever holds
    // created handles, so a reclaim sees a consistent block.
    Status created;
    while (created.ok() && chunks.size() < chunkCount) {
        const std::size_t had = chunks.size();
        chunks.resize(chunkCount);
        const vmm::RunStatus run = mDevice.memCreateRun(
            kChunkSize, std::span(chunks).subspan(had));
        chunks.resize(had + run.done);
        created = run.status;
        if (created.ok() || mOffloadHook == nullptr)
            break;
        const Bytes missing = (chunkCount - chunks.size()) * kChunkSize;
        if (mOffloadHook->reclaimOnOom(missing, block->stream) > 0) {
            const auto h = mDevice.memCreate(kChunkSize);
            if (h.ok()) {
                chunks.push_back(*h);
                created = Status::success();
            } else {
                created = h.error();
            }
        }
    }
    if (!created.ok()) {
        // Roll back: the block stays cleanly spilled.
        const vmm::RunStatus undo = mDevice.memReleaseRun(chunks);
        GMLAKE_ASSERT(undo.ok(), "fault-in rollback failed");
        chunks.clear();
        noteRollback();
        return created;
    }

    // Remap under the block's own VA and every sharer VA. The
    // stitched structures were never torn down, so this is the
    // "no data-copy for re-stitch" path: mapping cost only.
    auto remapAt = [&](VirtAddr base) -> Status {
        mMapBatch.clear();
        for (std::size_t i = 0; i < chunkCount; ++i) {
            mMapBatch.emplace_back(
                base + static_cast<VirtAddr>(i) * kChunkSize,
                block->chunks[i]);
        }
        const Status s = mDevice.memMapBatch(mMapBatch);
        if (!s.ok())
            return s; // atomic: nothing was installed at @p base
        const Status acc = mDevice.memSetAccess(base, block->size);
        if (!acc.ok()) {
            const Status undo = mDevice.memUnmap(base, block->size);
            GMLAKE_ASSERT(undo.ok(),
                          "fault-in rollback unmap failed");
            return acc;
        }
        return Status::success();
    };
    bool ownMapped = false;
    std::size_t sharersMapped = 0;
    Status remap = remapAt(block->va);
    if (remap.ok()) {
        ownMapped = true;
        for (SBlock *sharer : block->sharers) {
            remap = remapAt(sharer->va + sharerOffset(sharer, block));
            if (!remap.ok())
                break;
            ++sharersMapped;
        }
    }
    if (!remap.ok()) {
        // Unwind every range remapped so far and release the fresh
        // chunks: the block ends exactly as spilled as it started.
        if (ownMapped) {
            const Status s = mDevice.memUnmap(block->va, block->size);
            GMLAKE_ASSERT(s.ok(), "fault-in rollback unmap failed");
        }
        for (std::size_t i = 0; i < sharersMapped; ++i) {
            SBlock *sharer = block->sharers[i];
            const Status s = mDevice.memUnmap(
                sharer->va + sharerOffset(sharer, block),
                block->size);
            GMLAKE_ASSERT(s.ok(), "fault-in rollback unmap failed");
        }
        const vmm::RunStatus undo = mDevice.memReleaseRun(chunks);
        GMLAKE_ASSERT(undo.ok(), "fault-in rollback failed");
        chunks.clear();
        noteRollback();
        return remap;
    }

    block->resident = true;
    mSpilledBytes -= block->size;
    mPhysicalBytes += block->size;
    mStats.onReserve(block->size);
    if (auto *r = obs::active()) {
        r->instant(obs::EvName::faultIn, obs::EventCat::offload,
                   allocTrack(*r), mDevice.now(), block->id,
                   block->size, obs::scopeToken());
    }
    return Status::success();
}

Status
GMLakeAllocator::ensureResident(SBlock *sblock)
{
    for (PBlock *m : sblock->members) {
        if (const Status s = ensureResident(m); !s.ok())
            return s;
    }
    return Status::success();
}

Bytes
GMLakeAllocator::trimCache(Bytes target)
{
    if (mTrimSuspended || target == 0)
        return 0;
    // Coldest inactive resident pBlocks first: their physical chunks
    // go back to the device while block + stitched VA structures stay
    // cached, so the pattern tape survives the trim.
    std::vector<PBlock *> victims;
    victims.reserve(mInactiveP.size());
    for (PBlock *p : mInactiveP) {
        if (p->resident)
            victims.push_back(p);
    }
    std::sort(victims.begin(), victims.end(),
              [](const PBlock *a, const PBlock *b) {
                  if (a->lastUse != b->lastUse)
                      return a->lastUse < b->lastUse;
                  return a->id < b->id;
              });
    Bytes freed = 0;
    for (PBlock *p : victims) {
        if (freed >= target)
            break;
        spillPBlock(p);
        freed += p->size;
    }
    if (freed < target) {
        // Last resort: the small path's cached segments.
        const Bytes before = mSmallPath.stats().reservedBytes();
        mSmallPath.emptyCache();
        syncSmallPathStats();
        freed += before - mSmallPath.stats().reservedBytes();
    }
    return freed;
}

Bytes
GMLakeAllocator::trimmableBytes() const
{
    Bytes total = 0;
    for (const PBlock *p : mInactiveP) {
        if (p->resident)
            total += p->size;
    }
    // Only the small path's whole-free segments actually release;
    // counting all its cached bytes would overstate the OOM
    // post-mortem's "evictable" figure.
    total += mSmallPath.trimmableBytes();
    return total;
}

Expected<Bytes>
GMLakeAllocator::spillLive(alloc::AllocId id)
{
    const auto it = mLive.find(id);
    if (it == mLive.end())
        return makeError(Errc::invalidValue, "unknown allocation id");
    Live &live = it->second;
    if (live.smallId != 0) {
        return makeError(Errc::notSupported,
                         "small-path allocations cannot spill");
    }
    Bytes freed = 0;
    if (live.s != nullptr) {
        for (PBlock *m : live.s->members) {
            if (!m->resident)
                continue;
            freed += m->size;
            spillPBlock(m);
        }
    } else {
        GMLAKE_ASSERT(live.p, "live allocation with no target");
        if (live.p->resident) {
            freed += live.p->size;
            spillPBlock(live.p);
        }
    }
    return freed;
}

Status
GMLakeAllocator::faultLive(alloc::AllocId id)
{
    const auto it = mLive.find(id);
    if (it == mLive.end())
        return makeError(Errc::invalidValue, "unknown allocation id");
    Live &live = it->second;
    if (live.smallId != 0) {
        return makeError(Errc::notSupported,
                         "small-path allocations cannot spill");
    }
    // The live blocks are active, so a reclaim triggered inside
    // ensureResident() cannot trim them back out from under us.
    if (live.s != nullptr)
        return ensureResident(live.s);
    GMLAKE_ASSERT(live.p, "live allocation with no target");
    return ensureResident(live.p);
}

// --------------------------------------------------------------------
// Active-state management
// --------------------------------------------------------------------

void
GMLakeAllocator::markPActive(PBlock *block, bool active)
{
    if (block->active == active)
        return;
    if (active) {
        eraseInactiveP(block);
        block->active = true;
    } else {
        block->active = false;
        block->lastUse = mDevice.now();
        insertInactiveP(block);
    }
}

void
GMLakeAllocator::markSActive(SBlock *sblock, bool active)
{
    if (active) {
        GMLAKE_ASSERT(!sblock->active, "double-activation of sBlock");
        eraseInactiveS(sblock);
        sblock->active = true;
        for (PBlock *m : sblock->members)
            markPActive(m, true);
    } else {
        sblock->active = false;
        sblock->lastUse = mDevice.now();
        insertInactiveS(sblock);
        for (PBlock *m : sblock->members)
            markPActive(m, false);
    }
}

// --------------------------------------------------------------------
// Observability: decision events (no-ops under the null sink)
// --------------------------------------------------------------------

std::uint32_t
GMLakeAllocator::allocTrack(obs::Recorder &recorder)
{
    // track() takes a mutex; cache the id, revalidated against the
    // recorder generation so a new run (or recorder) re-interns.
    if (mObsGeneration != recorder.generation()) {
        mObsTrack = recorder.track("alloc");
        mObsGeneration = recorder.generation();
    }
    return mObsTrack;
}

void
GMLakeAllocator::notePhase(obs::AllocPhase phase, Bytes rounded)
{
    if (auto *r = obs::active()) {
        r->instant(obs::EvName::allocPhase, obs::EventCat::alloc,
                   allocTrack(*r), mDevice.now(),
                   static_cast<std::uint64_t>(phase), rounded,
                   obs::scopeToken());
    }
}

void
GMLakeAllocator::noteReclaimRung(int attempt, Bytes reclaimed)
{
    if (auto *r = obs::active()) {
        r->instant(obs::EvName::reclaimRung, obs::EventCat::alloc,
                   allocTrack(*r), mDevice.now(),
                   static_cast<std::uint64_t>(attempt), reclaimed,
                   obs::scopeToken());
    }
}

// --------------------------------------------------------------------
// Allocation strategy (Fig 9)
// --------------------------------------------------------------------

Expected<alloc::Allocation>
GMLakeAllocator::allocate(Bytes size, StreamId stream)
{
    auto *r = obs::active();
    if (r == nullptr)
        return allocateImpl(size, stream);

    // Provenance scope: every device-API span emitted while the
    // request is served carries this token, which is how the ledger
    // attributes device time to the allocation that caused it. The
    // recorder only reads the simulated clock — decisions, costs and
    // digests are identical with and without it.
    const std::uint64_t token = r->nextScopeToken();
    const obs::ScopeToken scope(token);
    const Tick t0 = mDevice.now();
    auto result = allocateImpl(size, stream);
    if (!result.ok())
        notePhase(obs::AllocPhase::s5Oom, size);
    r->span(obs::EvName::alloc, obs::EventCat::alloc, allocTrack(*r),
            t0, mDevice.now() - t0, result.ok() ? result->id : 0,
            size, token);
    return result;
}

Expected<alloc::Allocation>
GMLakeAllocator::allocateImpl(Bytes size, StreamId stream)
{
    if (size == 0)
        return makeError(Errc::invalidValue, "allocate of zero bytes");
    if (stream == kAnyStream)
        return makeError(Errc::invalidValue,
                         "cannot allocate on the sentinel stream");
    mDevice.chargeCachedOp();

    if (size < kSmallThreshold) {
        ++mCounters.smallPath;
        notePhase(obs::AllocPhase::smallPath, size);
        auto inner = mSmallPath.allocate(size, stream);
        syncSmallPathStats();
        if (!inner.ok() && mOffloadHook != nullptr &&
            inner.error().code == Errc::outOfMemory) {
            // The embedded small path has no hook of its own: give
            // the offload tier one shot before killing the tenant
            // over a sub-2MB request. Reclaim a whole mid-size
            // segment's worth — the largest segment the small path
            // grows for these requests — not just the request size.
            const Bytes reclaimed = mOffloadHook->reclaimOnOom(
                alloc::kLargeBuffer, stream);
            if (reclaimed > 0) {
                noteReclaimRung(0, reclaimed);
                inner = mSmallPath.allocate(size, stream);
                syncSmallPathStats();
            }
        }
        if (!inner.ok())
            return inner.error();
        const alloc::AllocId id = mNextAllocId++;
        Live live;
        live.requested = size;
        live.smallId = inner->id;
        mLive.emplace(id, live);
        mStats.onAllocate(size);
        return alloc::Allocation{id, size, inner->addr};
    }
    return allocateLarge(size, stream);
}

Expected<alloc::Allocation>
GMLakeAllocator::allocateLarge(Bytes size, StreamId stream)
{
    bool retried = false;
    auto result = allocateLargeInner(size, stream, retried);
    if (retried && result.ok())
        ++mRecovered;
    return result;
}

Expected<alloc::Allocation>
GMLakeAllocator::allocateLargeInner(Bytes size, StreamId stream,
                                    bool &retried)
{
    const Bytes rounded = roundUp(size, kChunkSize);
    // Largest acceptable over-allocation for a whole-block hand-out.
    const Bytes slack = roundDown(
        std::min(saturatingBytes(mConfig.nearMatchTolerance *
                                 static_cast<double>(rounded)),
                 kNearMatchSlackCap),
        kChunkSize);

    // Robustness guard (Section 4.2.3): cap the cached stitch set
    // before searching it. Running the guard here (and not inside
    // stitch()) guarantees a freshly stitched block is never evicted
    // before its first use.
    stitchFree();

    // With an offload hook each failed growth round may reclaim more
    // (cache trim, then progressively colder live victims), so the
    // retry ladder is longer; progress-gating below keeps it short
    // in practice. Without a hook this is the historical two-attempt
    // loop, bit for bit.
    const int maxAttempts = mOffloadHook != nullptr ? 8 : 2;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        // S1 fast path: most-recently-used exact match. Taking the
        // MRU candidate (rather than an arbitrary one) makes the
        // block-to-request assignment stable across the repeating
        // iterations of DNN training, which is what lets the pattern
        // tape of Section 4.2.2 converge instead of oscillating. S1
        // is answered here only: BestFit below tests the same
        // eligibility on subsets of these blocks, so it cannot find
        // an exact match this walk missed.
        {
            // Walk the size classes in [rounded, rounded + slack]
            // upward: the first with an eligible block holds the
            // tightest fit, and each list is entered at its most
            // recent end.
            SBlock *sHit = nullptr;
            PBlock *pHit = nullptr;
            for (auto it = mClasses.lower_bound(rounded);
                 it != mClasses.end() && it->first <= rounded + slack &&
                 sHit == nullptr && pHit == nullptr;
                 ++it) {
                sHit = it->second.s.mostRecent([&](const SBlock *s) {
                    return eligible(*s, stream);
                });
                pHit = it->second.p.mostRecent([&](const PBlock *p) {
                    return streamOk(p->stream, p->lastUse, stream);
                });
            }
            if (sHit || pHit) {
                ++mCounters.s1ExactMatch;
                notePhase(obs::AllocPhase::s1ExactMatch, rounded);
                const alloc::AllocId id = mNextAllocId++;
                Live live;
                live.requested = size;
                // One size: the sBlock wins unless the pBlock is
                // strictly more recent.
                const bool useS =
                    sHit && (!pHit || sHit->lastUse >= pHit->lastUse);
                if (useS) {
                    // Activate first: active blocks are invisible to
                    // cache trims, so the fault-in's own reclaim
                    // cannot evict what it is restoring.
                    markSActive(sHit, true);
                    if (const Status st = ensureResident(sHit);
                        !st.ok()) {
                        markSActive(sHit, false);
                        ++mCounters.s5Oom;
                        return st.error();
                    }
                    sHit->stream = stream;
                    for (PBlock *m : sHit->members)
                        m->stream = stream;
                    live.s = sHit;
                    mLive.emplace(id, live);
                    mStats.onAllocate(sHit->size);
                    return alloc::Allocation{id, size, sHit->va};
                }
                markPActive(pHit, true);
                if (const Status st = ensureResident(pHit);
                    !st.ok()) {
                    markPActive(pHit, false);
                    ++mCounters.s5Oom;
                    return st.error();
                }
                pHit->stream = stream;
                live.p = pHit;
                mLive.emplace(id, live);
                mStats.onAllocate(pHit->size);
                return alloc::Allocation{id, size, pHit->va};
            }
        }

        // BestFit runs directly over the sorted inactive pools:
        // eligibility is checked in place, candidates come back as
        // pointers in the reusable scratch vector, and nothing is
        // materialized per request.
        const Bytes fragLimit = mConfig.enableStitching
                                    ? mConfig.fragLimit
                                    : ~Bytes{0};
        auto pEligible = [&](const PBlock *p) {
            return streamOk(p->stream, p->lastUse, stream);
        };

        // Two-phase search: first try to satisfy the request from
        // pBlocks that no cached sBlock references (the
        // incrementally maintained mInactivePFree index). Splitting
        // or stitching a shared pBlock destroys or blocks every
        // cached composition over it, which would force the
        // repeating training pattern to re-stitch each iteration;
        // preferring unshared blocks keeps the pattern tape intact.
        auto fit = bestFitOverPools(rounded, mInactivePFree, fragLimit,
                                    pEligible, mFitCandidates);
        if (fit.state == FitState::insufficient) {
            fit = bestFitOverPools(rounded, mInactiveP, fragLimit,
                                   pEligible, mFitCandidates);
        }

        switch (fit.state) {
          case FitState::singleBlock: {
            ++mCounters.s2SingleBlock;
            notePhase(obs::AllocPhase::s2SingleBlock, rounded);
            PBlock *p = mFitCandidates.front();
            {
                // The block is still inactive while it is restored,
                // so suspend cache trimming around the fault-in.
                const TrimGuard guard(*this);
                if (const Status st = ensureResident(p); !st.ok()) {
                    ++mCounters.s5Oom;
                    return st.error();
                }
            }
            // Fragmentation limit (Section 4.2.3): never create a
            // remainder below the limit — such fragments would be
            // excluded from stitching forever and only bloat the
            // pool. Hand the block out whole instead.
            const bool splittable =
                p->size - rounded >=
                std::max(mConfig.fragLimit, kChunkSize);
            if (splittable) {
                const auto half = splitPBlock(p, rounded);
                if (half.ok())
                    p = *half;
            }
            markPActive(p, true);
            p->stream = stream;
            const alloc::AllocId id = mNextAllocId++;
            Live live;
            live.requested = size;
            live.p = p;
            mLive.emplace(id, live);
            mStats.onAllocate(p->size);
            return alloc::Allocation{id, size, p->va};
          }

          case FitState::multiBlocks: {
            ++mCounters.s3MultiBlocks;
            notePhase(obs::AllocPhase::s3MultiBlocks, rounded);
            // The candidates already are the member pointers; the
            // scratch vector doubles as the stitch member list.
            std::vector<PBlock *> &members = mFitCandidates;
            {
                // Fault in any spilled member before the stitch maps
                // its chunks; trimming is suspended so one member's
                // restore cannot evict another.
                const TrimGuard guard(*this);
                for (PBlock *m : members) {
                    if (const Status st = ensureResident(m);
                        !st.ok()) {
                        ++mCounters.s5Oom;
                        return st.error();
                    }
                }
            }

            // Trim the final candidate so the stitched size matches
            // the request (Fig 9: the final pBlock can be split) —
            // but only when the cut-off piece stays above the
            // fragmentation limit; otherwise keep the overshoot
            // inside the sBlock.
            const Bytes excess = fit.candidateBytes - rounded;
            PBlock *last = members.back();
            if (excess > std::max({slack, mConfig.fragLimit, kChunkSize}) &&
                last->size - excess >= kChunkSize) {
                const auto trimmed =
                    splitPBlock(last, last->size - excess);
                if (trimmed.ok())
                    members.back() = *trimmed;
            }

            const auto sblock = stitch(members, stream);
            if (!sblock.ok())
                return sblock.error();
            markSActive(*sblock, true);
            for (PBlock *m : (*sblock)->members)
                m->stream = stream;
            const alloc::AllocId id = mNextAllocId++;
            Live live;
            live.requested = size;
            live.s = *sblock;
            mLive.emplace(id, live);
            mStats.onAllocate((*sblock)->size);
            return alloc::Allocation{id, size, (*sblock)->va};
          }

          case FitState::insufficient: {
            ++mCounters.s4Insufficient;
            notePhase(obs::AllocPhase::s4Insufficient, rounded);
            std::vector<PBlock *> &members = mFitCandidates;
            Bytes have = fit.candidateBytes;
            if (!mConfig.enableStitching) {
                members.clear();
                have = 0;
            }
            const Bytes need = rounded - have;
            const auto fresh = allocPBlock(need, stream);
            if (!fresh.ok()) {
                if (mOffloadHook != nullptr) {
                    // Offload ladder: trim caches, then spill live
                    // victims to the host tier; retry while the
                    // hook keeps making progress.
                    if (attempt + 1 < maxAttempts) {
                        const Bytes reclaimed =
                            mOffloadHook->reclaimOnOom(need, stream);
                        if (reclaimed > 0) {
                            noteReclaimRung(attempt, reclaimed);
                            retried = true;
                            continue;
                        }
                    }
                } else if (attempt == 0) {
                    // Fallback: drop cached stitches and cached
                    // physical blocks, then retry the whole search.
                    releaseCached();
                    retried = true;
                    continue;
                }
                ++mCounters.s5Oom;
                return fresh.error();
            }

            const alloc::AllocId id = mNextAllocId++;
            Live live;
            live.requested = size;
            if (members.empty()) {
                PBlock *p = *fresh;
                markPActive(p, true);
                p->stream = stream;
                live.p = p;
                mLive.emplace(id, live);
                mStats.onAllocate(p->size);
                return alloc::Allocation{id, size, p->va};
            }
            members.push_back(*fresh);
            {
                // As in the multi-block state: spilled members must
                // be backed again before the stitch maps them. The
                // fresh block is inactive too, so the guard also
                // shields it from a nested trim.
                const TrimGuard guard(*this);
                for (PBlock *m : members) {
                    if (const Status st = ensureResident(m);
                        !st.ok()) {
                        ++mCounters.s5Oom;
                        return st.error();
                    }
                }
            }
            const auto sblock = stitch(members, stream);
            if (!sblock.ok())
                return sblock.error();
            markSActive(*sblock, true);
            for (PBlock *m : (*sblock)->members)
                m->stream = stream;
            live.s = *sblock;
            mLive.emplace(id, live);
            mStats.onAllocate((*sblock)->size);
            return alloc::Allocation{id, size, (*sblock)->va};
          }

          default: // S1 is answered above, never by BestFit
            break;
        }
        GMLAKE_PANIC("unreachable BestFit state");
    }
    ++mCounters.s5Oom;
    return makeError(Errc::outOfMemory,
                     "GMLake: out of memory allocating " +
                     formatBytes(size));
}

Status
GMLakeAllocator::deallocate(alloc::AllocId id)
{
    auto it = mLive.find(id);
    if (it == mLive.end())
        return makeError(Errc::invalidValue, "unknown allocation id");
    mDevice.chargeCachedOp();

    Live &live = it->second;
    if (live.smallId != 0) {
        const Status s = mSmallPath.deallocate(live.smallId);
        syncSmallPathStats();
        if (!s.ok())
            return s;
        mStats.onDeallocate(live.requested);
    } else if (live.s) {
        // Update (Section 3.3.2): only flip the active state; the
        // stitched structure stays cached for the repeating pattern.
        mStats.onDeallocate(live.s->size);
        markSActive(live.s, false);
    } else {
        GMLAKE_ASSERT(live.p, "live allocation with no target");
        mStats.onDeallocate(live.p->size);
        markPActive(live.p, false);
    }
    mLive.erase(it);
    return Status::success();
}

void
GMLakeAllocator::streamSynchronize(StreamId stream)
{
    mDevice.syncPenalty();
    for (PBlock *p : mInactiveP) {
        if (p->stream == stream)
            p->stream = kAnyStream;
    }
    for (SBlock *s : mInactiveS) {
        if (s->stream == stream)
            s->stream = kAnyStream;
    }
    mSmallPath.streamSynchronize(stream);
    syncSmallPathStats();
}

void
GMLakeAllocator::deviceSynchronize()
{
    mDevice.syncPenalty();
    for (PBlock *p : mInactiveP)
        p->stream = kAnyStream;
    for (SBlock *s : mInactiveS)
        s->stream = kAnyStream;
    mSmallPath.deviceSynchronize();
    syncSmallPathStats();
}

void
GMLakeAllocator::releaseCached()
{
    const Bytes reservedBefore = mStats.reservedBytes();
    // Destroy every eligible cached sBlock first (they pin pBlocks).
    // Cache release implies a device synchronization, so stream tags
    // do not constrain it — only activity does.
    std::vector<SBlock *> victims;
    for (SBlock *s : mInactiveS) {
        const bool membersIdle =
            std::all_of(s->members.begin(), s->members.end(),
                        [](const PBlock *m) { return !m->active; });
        if (membersIdle)
            victims.push_back(s);
    }
    for (SBlock *s : victims) {
        ++mCounters.stitchFrees;
        if (auto *r = obs::active()) {
            r->instant(obs::EvName::stitchFree,
                       obs::EventCat::alloc, allocTrack(*r),
                       mDevice.now(), s->id, s->size);
        }
        destroySBlock(s);
    }
    // Then return every unshared inactive pBlock to the device.
    std::vector<PBlock *> blocks(mInactiveP.begin(), mInactiveP.end());
    for (PBlock *p : blocks) {
        if (p->sharers.empty())
            releasePBlock(p);
    }
    mSmallPath.emptyCache();
    syncSmallPathStats();
    if (auto *r = obs::active()) {
        r->instant(obs::EvName::releaseCached, obs::EventCat::alloc,
                   allocTrack(*r), mDevice.now(),
                   reservedBefore - mStats.reservedBytes());
    }
}

void
GMLakeAllocator::emptyCache()
{
    releaseCached();
}

alloc::MemorySnapshot
GMLakeAllocator::snapshot() const
{
    alloc::MemorySnapshot snap = mSmallPath.snapshot();
    snap.allocator = name();
    snap.activeBytes = mStats.activeBytes();
    snap.reservedBytes = mStats.reservedBytes();

    std::vector<const PBlock *> pblocks;
    pblocks.reserve(mPPool.liveCount());
    mPPool.forEachLive(
        [&](const PBlock *p) { pblocks.push_back(p); });
    std::sort(pblocks.begin(), pblocks.end(),
              [](const PBlock *a, const PBlock *b) {
                  return a->va < b->va;
              });
    for (const PBlock *p : pblocks) {
        alloc::RegionSnapshot region;
        region.kind = "pblock";
        region.base = p->va;
        region.size = p->size;
        region.blocks.push_back(alloc::BlockSnapshot{
            p->va, p->size, p->active, p->stream});
        snap.regions.push_back(std::move(region));
    }

    std::vector<const SBlock *> sblocks;
    sblocks.reserve(mSPool.liveCount());
    mSPool.forEachLive(
        [&](const SBlock *s) { sblocks.push_back(s); });
    std::sort(sblocks.begin(), sblocks.end(),
              [](const SBlock *a, const SBlock *b) {
                  return a->va < b->va;
              });
    for (const SBlock *s : sblocks) {
        alloc::RegionSnapshot region;
        region.kind = "sblock";
        region.base = s->va;
        region.size = s->size;
        for (const PBlock *m : s->members) {
            region.blocks.push_back(alloc::BlockSnapshot{
                m->va, m->size, m->active, m->stream});
        }
        snap.regions.push_back(std::move(region));
    }
    return snap;
}

// --------------------------------------------------------------------
// Invariants
// --------------------------------------------------------------------

// --------------------------------------------------------------------
// Checkpoint / restore
// --------------------------------------------------------------------

/**
 * Checkpoint payload. The pBlock/sBlock graphs are flattened to id
 * references: block ids are stable and unique for the allocator's
 * lifetime, so the pointer graph rebuilds exactly — including the
 * *order* of each pBlock's sharers vector (releasePBlock destroys
 * sharers back-first) and each sBlock's members vector (stitch
 * order). The inactive indices are not stored: the sets key on
 * (size, id) and the recency lists are rebuilt in (lastUse, id)
 * order, so both follow from the stored blocks alone.
 */
struct GMLakeAllocator::State : alloc::AllocatorState
{
    struct PRec
    {
        std::uint64_t id = 0;
        VirtAddr va = kNullAddr;
        Bytes size = 0;
        std::vector<PhysHandle> chunks;
        bool active = false;
        bool resident = true;
        Tick lastUse = 0;
        StreamId stream = kDefaultStream;
        std::vector<std::uint64_t> sharerIds;
    };
    struct SRec
    {
        std::uint64_t id = 0;
        VirtAddr va = kNullAddr;
        Bytes size = 0;
        std::vector<std::uint64_t> memberIds;
        bool active = false;
        Tick lastUse = 0;
        StreamId stream = kDefaultStream;
    };
    struct LiveRec
    {
        alloc::AllocId id = 0;
        std::uint64_t pId = 0;
        std::uint64_t sId = 0;
        Bytes requested = 0;
        alloc::AllocId smallId = 0;
    };

    std::vector<PRec> pblocks; //!< id order
    std::vector<SRec> sblocks; //!< id order
    std::vector<LiveRec> live; //!< id order
    std::uint64_t nextBlockId = 1;
    alloc::AllocId nextAllocId = 1;
    StrategyCounters counters;
    Bytes physicalBytes = 0;
    Bytes stitchedVaBytes = 0;
    Bytes spilledBytes = 0;
    Bytes smallReservedSeen = 0;
    alloc::AllocatorStats::Snapshot stats;
    alloc::CachingAllocator::State smallPath;
};

alloc::Checkpoint
GMLakeAllocator::saveState() const
{
    auto state = std::make_shared<State>();

    mPPool.forEachLive([&](const PBlock *p) {
        State::PRec rec;
        rec.id = p->id;
        rec.va = p->va;
        rec.size = p->size;
        rec.chunks = p->chunks;
        rec.active = p->active;
        rec.resident = p->resident;
        rec.lastUse = p->lastUse;
        rec.stream = p->stream;
        rec.sharerIds.reserve(p->sharers.size());
        for (const SBlock *s : p->sharers)
            rec.sharerIds.push_back(s->id);
        state->pblocks.push_back(std::move(rec));
    });
    std::sort(state->pblocks.begin(), state->pblocks.end(),
              [](const State::PRec &a, const State::PRec &b) {
                  return a.id < b.id;
              });

    mSPool.forEachLive([&](const SBlock *s) {
        State::SRec rec;
        rec.id = s->id;
        rec.va = s->va;
        rec.size = s->size;
        rec.memberIds.reserve(s->members.size());
        for (const PBlock *m : s->members)
            rec.memberIds.push_back(m->id);
        rec.active = s->active;
        rec.lastUse = s->lastUse;
        rec.stream = s->stream;
        state->sblocks.push_back(std::move(rec));
    });
    std::sort(state->sblocks.begin(), state->sblocks.end(),
              [](const State::SRec &a, const State::SRec &b) {
                  return a.id < b.id;
              });

    state->live.reserve(mLive.size());
    for (const auto &[id, live] : mLive) {
        State::LiveRec rec;
        rec.id = id;
        rec.pId = live.p != nullptr ? live.p->id : 0;
        rec.sId = live.s != nullptr ? live.s->id : 0;
        rec.requested = live.requested;
        rec.smallId = live.smallId;
        state->live.push_back(rec);
    }
    std::sort(state->live.begin(), state->live.end(),
              [](const State::LiveRec &a, const State::LiveRec &b) {
                  return a.id < b.id;
              });

    state->nextBlockId = mNextBlockId;
    state->nextAllocId = mNextAllocId;
    state->counters = mCounters;
    state->physicalBytes = mPhysicalBytes;
    state->stitchedVaBytes = mStitchedVaBytes;
    state->spilledBytes = mSpilledBytes;
    state->smallReservedSeen = mSmallReservedSeen;
    state->stats = mStats.capture();
    state->smallPath = mSmallPath.captureState();

    return alloc::Checkpoint{name(), mDevice.saveState(),
                             std::move(state)};
}

void
GMLakeAllocator::restoreState(const alloc::Checkpoint &checkpoint)
{
    GMLAKE_ASSERT(checkpoint.allocator == name(),
                  "checkpoint from allocator '",
                  checkpoint.allocator, "' restored into gmlake");
    const auto *state =
        dynamic_cast<const State *>(checkpoint.state.get());
    GMLAKE_ASSERT(state != nullptr, "malformed gmlake checkpoint");

    mDevice.restoreState(checkpoint.device);

    // Tear down the current metadata graph — pure bookkeeping, the
    // device was already replaced wholesale above. Indexed blocks
    // leave their indices first, so no stored position outlives its
    // node and every recycled block keeps its nodes parked.
    std::vector<PBlock *> oldP;
    mPPool.forEachLive([&](PBlock *p) { oldP.push_back(p); });
    std::vector<SBlock *> oldS;
    mSPool.forEachLive([&](SBlock *s) { oldS.push_back(s); });
    for (SBlock *s : oldS) {
        if (s->inactiveSlot.indexed)
            eraseInactiveS(s);
        mSPool.release(s);
    }
    for (PBlock *p : oldP) {
        if (p->inactiveSlot.indexed)
            eraseInactiveP(p);
        mPPool.release(p);
    }
    mClasses.clear();
    mLive.clear();

    // Rebuild the pointer graph from the id references. Recycled
    // nodes come off the pool freelist in teardown order — pointer
    // identity differs from the checkpointed run, but every ordered
    // structure keys on (size, id) or (lastUse, id), never on
    // addresses.
    std::vector<PBlock *> restoredP;
    std::vector<SBlock *> restoredS;
    std::unordered_map<std::uint64_t, PBlock *> pById;
    pById.reserve(state->pblocks.size());
    for (const State::PRec &rec : state->pblocks) {
        PBlock *p = mPPool.acquire();
        p->id = rec.id;
        p->va = rec.va;
        setSize(p, rec.size);
        p->chunks = rec.chunks;
        p->active = rec.active;
        p->resident = rec.resident;
        p->lastUse = rec.lastUse;
        p->stream = rec.stream;
        p->sharers.clear();
        pById.emplace(rec.id, p);
    }
    std::unordered_map<std::uint64_t, SBlock *> sById;
    sById.reserve(state->sblocks.size());
    for (const State::SRec &rec : state->sblocks) {
        SBlock *s = mSPool.acquire();
        s->id = rec.id;
        s->va = rec.va;
        setSize(s, rec.size);
        s->members.clear();
        s->members.reserve(rec.memberIds.size());
        for (const std::uint64_t mid : rec.memberIds)
            s->members.push_back(pById.at(mid));
        s->active = rec.active;
        s->lastUse = rec.lastUse;
        s->stream = rec.stream;
        sById.emplace(rec.id, s);
        restoredS.push_back(s);
    }
    for (const State::PRec &rec : state->pblocks) {
        PBlock *p = pById.at(rec.id);
        p->sharers.reserve(rec.sharerIds.size());
        for (const std::uint64_t sid : rec.sharerIds)
            p->sharers.push_back(sById.at(sid));
        restoredP.push_back(p);
    }
    // Index insertion needs the final sharers lists (the
    // unshared-inactive index tests sharers.empty()), and the
    // recency lists need lastUse order: the records come in id order.
    // Every block is indexed and the active ones taken out again, so
    // the indices hold the inactive blocks in the same order as if
    // only those went in, and each active block parks the nodes it
    // will re-enter with, as if it had been activated here.
    const auto byRecency = [](const auto *a, const auto *b) {
        return a->lastUse != b->lastUse ? a->lastUse < b->lastUse
                                        : a->id < b->id;
    };
    std::sort(restoredP.begin(), restoredP.end(), byRecency);
    std::sort(restoredS.begin(), restoredS.end(), byRecency);
    for (PBlock *p : restoredP)
        insertInactiveP(p);
    for (SBlock *s : restoredS)
        insertInactiveS(s);
    for (PBlock *p : restoredP) {
        if (p->active)
            eraseInactiveP(p);
    }
    for (SBlock *s : restoredS) {
        if (s->active)
            eraseInactiveS(s);
    }
    mLive.reserve(state->live.size());
    for (const State::LiveRec &rec : state->live) {
        Live live;
        live.p = rec.pId != 0 ? pById.at(rec.pId) : nullptr;
        live.s = rec.sId != 0 ? sById.at(rec.sId) : nullptr;
        live.requested = rec.requested;
        live.smallId = rec.smallId;
        mLive.emplace(rec.id, live);
    }

    mNextBlockId = state->nextBlockId;
    mNextAllocId = state->nextAllocId;
    mCounters = state->counters;
    mPhysicalBytes = state->physicalBytes;
    mStitchedVaBytes = state->stitchedVaBytes;
    mSpilledBytes = state->spilledBytes;
    mSmallPath.restoreInternal(state->smallPath);
    mSmallReservedSeen = state->smallReservedSeen;
    mStats.restore(state->stats);
    // mVaCapBytes stays as constructed: it derives from *this*
    // allocator's config, so a sweep point restoring a shared warmup
    // checkpoint keeps its own overscribe bound.
}

void
GMLakeAllocator::checkConsistency() const
{
    // Recency index: every live block points at the class of its own
    // size; count the blocks of each class.
    std::unordered_map<const SizeClass *, std::size_t> classRefs;
    const auto indexed = [&](const auto *block) {
        const auto it = mClasses.find(block->size);
        GMLAKE_ASSERT(it != mClasses.end() && &it->second == block->cls,
                      "block not indexed under its size class");
        ++classRefs[block->cls];
    };
    // Own index nodes (IndexSlot): the flag says whether the block
    // belongs in the index; an indexed block's position dereferences
    // to itself and it parks no node; a block out of the index parks
    // none or its own, and an active block parks the node it left
    // its inactive pool with.
    const auto slotted = [](const auto &slot, const auto *block,
                            bool member) {
        GMLAKE_ASSERT(slot.indexed == member, "index flag mismatch");
        if (member) {
            GMLAKE_ASSERT(*slot.pos == block && slot.parked.empty(),
                          "stale index position");
        } else {
            GMLAKE_ASSERT(slot.parked.empty() ||
                              slot.parked.value() == block,
                          "block parks another block's node");
        }
    };
    const auto parksNode = [](const auto *block) {
        GMLAKE_ASSERT(!block->active || !block->inactiveSlot.parked.empty(),
                      "active block lost its parked index node");
    };

    Bytes pTotal = 0;
    Bytes spilledTotal = 0;
    std::size_t inactiveP = 0;
    mPPool.forEachLive([&](const PBlock *p) {
        indexed(p);
        if (p->resident) {
            pTotal += p->size;
            GMLAKE_ASSERT(p->size / kChunkSize == p->chunks.size(),
                          "pBlock chunk count mismatch");
        } else {
            spilledTotal += p->size;
            GMLAKE_ASSERT(p->chunks.empty(),
                          "spilled pBlock still holds chunks");
        }
        GMLAKE_ASSERT(isAligned(p->size, kChunkSize),
                      "pBlock size not chunk aligned");
        if (!p->active)
            ++inactiveP;
        GMLAKE_ASSERT(mInactiveP.count(const_cast<PBlock *>(p)) ==
                      (p->active ? 0u : 1u),
                      "inactive pPool membership mismatch");
        GMLAKE_ASSERT(
            mInactivePFree.count(const_cast<PBlock *>(p)) ==
            ((!p->active && p->sharers.empty()) ? 1u : 0u),
            "unshared-inactive index membership mismatch");
        slotted(p->inactiveSlot, p, !p->active);
        slotted(p->unsharedSlot, p, !p->active && p->sharers.empty());
        parksNode(p);
        for (const SBlock *s : p->sharers) {
            GMLAKE_ASSERT(s->poolLive,
                          "sharer points to a dead sBlock");
        }
    });
    GMLAKE_ASSERT(pTotal == mPhysicalBytes,
                  "physical byte accounting drifted");
    GMLAKE_ASSERT(spilledTotal == mSpilledBytes,
                  "spilled byte accounting drifted");
    GMLAKE_ASSERT(inactiveP == mInactiveP.size(),
                  "inactive pPool size mismatch");
    GMLAKE_ASSERT(mInactivePFree.size() <= mInactiveP.size(),
                  "unshared index larger than the inactive pool");

    Bytes sVaTotal = 0;
    mSPool.forEachLive([&](const SBlock *s) {
        indexed(s);
        sVaTotal += s->size;
        Bytes memberTotal = 0;
        for (const PBlock *m : s->members) {
            memberTotal += m->size;
            GMLAKE_ASSERT(m->sharedBy(s),
                          "member does not know its sharer");
        }
        GMLAKE_ASSERT(memberTotal == s->size,
                      "sBlock size != sum of members");
        GMLAKE_ASSERT(mInactiveS.count(const_cast<SBlock *>(s)) ==
                      (s->active ? 0u : 1u),
                      "inactive sPool membership mismatch");
        slotted(s->inactiveSlot, s, !s->active);
        parksNode(s);
    });
    GMLAKE_ASSERT(sVaTotal == mStitchedVaBytes,
                  "stitched VA accounting drifted");

    GMLAKE_ASSERT(mInactivePFree.size() ==
                  static_cast<std::size_t>(std::count_if(
                      mInactiveP.begin(), mInactiveP.end(),
                      [](const PBlock *p) {
                          return p->sharers.empty();
                      })),
                  "unshared-inactive index out of sync");

    // Each class counts exactly its live blocks, and its lists hold
    // exactly its inactive blocks, oldest first; together the lists
    // hold the inactive pools.
    const auto checkList = [](const auto &list, const SizeClass *cls,
                              const auto &inactive) {
        std::size_t n = 0;
        for (auto *b = list.oldest; b != nullptr; b = b->newer) {
            GMLAKE_ASSERT(++n <= inactive.size(),
                          "recency list longer than its inactive pool");
            GMLAKE_ASSERT(b->cls == cls,
                          "recency list holds a block of another size");
            GMLAKE_ASSERT(inactive.count(b) == 1,
                          "recency list holds a block outside the "
                          "inactive pool");
            GMLAKE_ASSERT(b->newer != nullptr ? b->newer->older == b
                                              : list.newest == b,
                          "recency list links broken");
            GMLAKE_ASSERT(b->newer == nullptr ||
                              b->lastUse <= b->newer->lastUse,
                          "recency list out of lastUse order");
        }
        GMLAKE_ASSERT(list.oldest == nullptr
                          ? list.newest == nullptr
                          : list.oldest->older == nullptr,
                      "recency list ends broken");
        return n;
    };
    std::size_t listedP = 0;
    std::size_t listedS = 0;
    for (const auto &entry : mClasses) {
        const SizeClass &cls = entry.second;
        const auto counted = classRefs.find(&cls);
        GMLAKE_ASSERT(counted != classRefs.end() &&
                          counted->second == cls.refs,
                      "size class reference count drifted");
        listedP += checkList(cls.p, &cls, mInactiveP);
        listedS += checkList(cls.s, &cls, mInactiveS);
    }
    GMLAKE_ASSERT(listedP == mInactiveP.size() &&
                      listedS == mInactiveS.size(),
                  "recency lists and inactive pools differ");

    // Exclusive tensor use: every live allocation targets an active
    // block, and no two live allocations share a pBlock.
    std::set<const PBlock *> used;
    for (const auto &[id, live] : mLive) {
        (void)id;
        if (live.smallId != 0)
            continue;
        if (live.s) {
            GMLAKE_ASSERT(live.s->active, "live sBlock inactive");
            for (const PBlock *m : live.s->members) {
                GMLAKE_ASSERT(used.insert(m).second,
                              "pBlock used by two tensors");
            }
        } else {
            GMLAKE_ASSERT(live.p->active, "live pBlock inactive");
            GMLAKE_ASSERT(used.insert(live.p).second,
                          "pBlock used by two tensors");
        }
    }
}

void
GMLakeAllocator::auditInvariants() const
{
    checkConsistency();

    // Cross-check the books against the device itself, so a rollback
    // that restored the metadata but leaked a mapping (or vice versa)
    // cannot hide: every block VA must sit in a reservation of its
    // exact geometry, and every resident chunk must be a live handle
    // of kChunkSize mapped once per VA that exposes it — its own
    // pBlock plus every stitched sharer.
    const vmm::PhysMemory &phys = mDevice.phys();
    const vmm::VaSpace &va = mDevice.vaSpace();

    // Which chunk each VA maps, not just how many times: a pBlock's
    // range at @p base holds exactly its chunks, in order, each
    // kChunkSize bytes and accessible; a spilled one's holds nothing.
    std::vector<vmm::MappingTable::Entry> mapped;
    const auto checkMapped = [&](VirtAddr base, const PBlock *p) {
        mDevice.mappings().mappingsIn(base, p->size, mapped);
        if (!p->resident) {
            GMLAKE_ASSERT(mapped.empty(), "spilled pBlock still mapped");
            return;
        }
        GMLAKE_ASSERT(mapped.size() == p->chunks.size(),
                      "block range maps the wrong chunk count");
        for (std::size_t i = 0; i < mapped.size(); ++i) {
            const vmm::MappingTable::Entry &e = mapped[i];
            GMLAKE_ASSERT(e.va == base + static_cast<VirtAddr>(i) *
                                             kChunkSize &&
                              e.size == kChunkSize &&
                              e.handle == p->chunks[i] && e.accessible,
                          "block range maps the wrong chunk at a VA");
        }
    };
    mPPool.forEachLive([&](const PBlock *p) {
        const auto res = va.containing(p->va, p->size);
        GMLAKE_ASSERT(res.ok(), "pBlock VA not reserved");
        GMLAKE_ASSERT(res->base == p->va && res->size == p->size,
                      "pBlock reservation geometry mismatch");
        checkMapped(p->va, p);
        if (!p->resident)
            return;
        const auto expectedRefs =
            static_cast<std::uint32_t>(1 + p->sharers.size());
        for (const PhysHandle h : p->chunks) {
            GMLAKE_ASSERT(phys.isLive(h),
                          "resident chunk is a dead handle");
            GMLAKE_ASSERT(*phys.sizeOf(h) == kChunkSize,
                          "resident chunk size mismatch");
            GMLAKE_ASSERT(phys.mapRefs(h) == expectedRefs,
                          "chunk mapRefs != 1 + sharers");
        }
    });
    mSPool.forEachLive([&](const SBlock *s) {
        const auto res = va.containing(s->va, s->size);
        GMLAKE_ASSERT(res.ok(), "sBlock VA not reserved");
        GMLAKE_ASSERT(res->base == s->va && res->size == s->size,
                      "sBlock reservation geometry mismatch");
        // Each member's chunks sit at its running offset.
        Bytes offset = 0;
        for (const PBlock *m : s->members) {
            checkMapped(s->va + offset, m);
            offset += m->size;
        }
        GMLAKE_ASSERT(offset == s->size, "sBlock size != its members");
    });
}

} // namespace gmlake::core
