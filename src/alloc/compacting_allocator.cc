#include "alloc/compacting_allocator.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "alloc/caching_allocator.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/units.hh"

namespace gmlake::alloc
{

namespace
{

/** Device-to-device copy bandwidth (~1.3 TB/s on an A100). */
constexpr double kCopyNsPerByte = 1.0 / 1300.0;
/** Fixed cost per relocated block (kernel launch). */
constexpr Tick kPerMoveNs = 5'000;
/** Stop-the-world synchronization per compaction cycle. */
constexpr Tick kCompactionSyncNs = 100'000;

} // namespace

/**
 * Checkpoint payload: slabs are kept in vector order because mLive
 * addresses blocks by (slab index, offset).
 */
struct CompactingAllocator::State : AllocatorState
{
    std::vector<Slab> slabs;
    std::unordered_map<AllocId, std::pair<std::size_t, Bytes>> live;
    AllocId nextId = 1;
    std::uint64_t compactions = 0;
    Bytes bytesMoved = 0;
    AllocatorStats::Snapshot stats;
};

Checkpoint
CompactingAllocator::saveState() const
{
    auto state = std::make_shared<State>();
    state->slabs = mSlabs;
    state->live = mLive;
    state->nextId = mNextId;
    state->compactions = mCompactions;
    state->bytesMoved = mBytesMoved;
    state->stats = mStats.capture();
    return Checkpoint{name(), mDevice.saveState(),
                      std::move(state)};
}

void
CompactingAllocator::restoreState(const Checkpoint &checkpoint)
{
    GMLAKE_ASSERT(checkpoint.allocator == name(),
                  "checkpoint from allocator '",
                  checkpoint.allocator,
                  "' restored into compacting");
    const auto *state =
        dynamic_cast<const State *>(checkpoint.state.get());
    GMLAKE_ASSERT(state != nullptr,
                  "malformed compacting checkpoint");
    mDevice.restoreState(checkpoint.device);
    mSlabs = state->slabs;
    mLive = state->live;
    mNextId = state->nextId;
    mCompactions = state->compactions;
    mBytesMoved = state->bytesMoved;
    mStats.restore(state->stats);
}

Bytes
CompactingAllocator::Slab::usedBytes() const
{
    Bytes total = 0;
    for (const auto &[off, blk] : blocks) {
        (void)off;
        total += blk.first;
    }
    return total;
}

CompactingAllocator::CompactingAllocator(vmm::Device &device,
                                         CompactingConfig config)
    : mDevice(device), mConfig(config)
{
    GMLAKE_ASSERT(mConfig.slabSize > 0,
                  "bad compacting allocator configuration");
}

bool
CompactingAllocator::placeInSlab(std::size_t slabIndex, Bytes size,
                                 AllocId id, VirtAddr &outAddr)
{
    Slab &slab = mSlabs[slabIndex];
    if (size > slab.size)
        return false;
    // First fit over the gaps between blocks.
    Bytes cursor = 0;
    for (const auto &[off, blk] : slab.blocks) {
        if (off - cursor >= size) {
            slab.blocks.emplace(cursor, std::make_pair(size, id));
            mLive.emplace(id, std::make_pair(slabIndex, cursor));
            outAddr = slab.base + cursor;
            return true;
        }
        cursor = off + blk.first;
    }
    if (slab.size - cursor >= size) {
        slab.blocks.emplace(cursor, std::make_pair(size, id));
        mLive.emplace(id, std::make_pair(slabIndex, cursor));
        outAddr = slab.base + cursor;
        return true;
    }
    return false;
}

Bytes
CompactingAllocator::totalFree() const
{
    Bytes total = 0;
    for (const auto &slab : mSlabs)
        total += slab.size - slab.usedBytes();
    return total;
}

void
CompactingAllocator::compact()
{
    ++mCompactions;
    mDevice.clock().advance(kCompactionSyncNs);

    Bytes moved = 0;
    std::uint64_t moves = 0;

    // Phase 1: slide every block to the bottom of its slab.
    for (std::size_t si = 0; si < mSlabs.size(); ++si) {
        Slab &slab = mSlabs[si];
        std::map<Bytes, std::pair<Bytes, AllocId>> packed;
        Bytes cursor = 0;
        for (const auto &[off, blk] : slab.blocks) {
            if (off != cursor) {
                moved += blk.first;
                ++moves;
            }
            packed.emplace(cursor, blk);
            mLive[blk.second] = {si, cursor};
            cursor += blk.first;
        }
        slab.blocks = std::move(packed);
    }

    // Phase 2: migrate blocks out of the emptiest slabs into earlier
    // slabs' tail space so whole slabs drain (greedy, best effort).
    for (std::size_t src = mSlabs.size(); src-- > 1;) {
        Slab &from = mSlabs[src];
        std::vector<std::pair<Bytes, std::pair<Bytes, AllocId>>>
            entries(from.blocks.begin(), from.blocks.end());
        for (const auto &[off, blk] : entries) {
            bool migrated = false;
            for (std::size_t dst = 0; dst < src && !migrated; ++dst) {
                Slab &to = mSlabs[dst];
                const Bytes used = to.usedBytes();
                // After phase 1, free space is one tail gap.
                if (to.size - used >= blk.first) {
                    from.blocks.erase(off);
                    to.blocks.emplace(used, blk);
                    mLive[blk.second] = {dst, used};
                    moved += blk.first;
                    ++moves;
                    migrated = true;
                }
            }
        }
    }

    mBytesMoved += moved;
    mDevice.clock().advance(
        static_cast<Tick>(static_cast<double>(moved) * kCopyNsPerByte) +
        static_cast<Tick>(moves) * kPerMoveNs);

    // Release slabs that drained completely.
    for (std::size_t si = mSlabs.size(); si-- > 0;) {
        if (!mSlabs[si].blocks.empty())
            continue;
        const Status s = mDevice.freeNative(mSlabs[si].base);
        GMLAKE_ASSERT(s.ok(), "slab must free cleanly");
        mStats.onRelease(mSlabs[si].size);
        mSlabs.erase(mSlabs.begin() +
                     static_cast<std::ptrdiff_t>(si));
        // Re-index the live map for slabs that shifted down.
        for (auto &[id, loc] : mLive) {
            (void)id;
            if (loc.first > si)
                --loc.first;
        }
    }
}

Expected<Allocation>
CompactingAllocator::allocate(Bytes size, StreamId stream)
{
    (void)stream; // compaction stops the world anyway
    if (size == 0)
        return makeError(Errc::invalidValue, "allocate of zero bytes");
    mDevice.chargeCachedOp();

    // Requests round like the caching allocator's.
    const Bytes rounded = roundUp(std::max(size, kMinBlockSize),
                                  kMinBlockSize);
    const AllocId id = mNextId++;

    // 1. First fit over the existing slabs.
    VirtAddr addr = kNullAddr;
    for (std::size_t si = 0; si < mSlabs.size(); ++si) {
        if (placeInSlab(si, rounded, id, addr)) {
            mStats.onAllocate(rounded);
            return Allocation{id, size, addr};
        }
    }

    // 2. Enough total free space, just scattered: compact and retry.
    if (totalFree() >= rounded) {
        compact();
        for (std::size_t si = 0; si < mSlabs.size(); ++si) {
            if (placeInSlab(si, rounded, id, addr)) {
                mStats.onAllocate(rounded);
                return Allocation{id, size, addr};
            }
        }
    }

    // 3. Grow a new slab (big requests get an exact-size slab).
    const Bytes slabSize =
        std::max(mConfig.slabSize, roundUp(rounded, vmm::kGranularity));
    auto va = mDevice.mallocNative(slabSize);
    if (!va.ok()) {
        compact(); // also drains empty slabs back to the device
        va = mDevice.mallocNative(slabSize);
        if (!va.ok())
            return va.error();
    }
    Slab slab;
    slab.base = *va;
    slab.size = slabSize;
    mSlabs.push_back(std::move(slab));
    mStats.onReserve(slabSize);
    const bool placed =
        placeInSlab(mSlabs.size() - 1, rounded, id, addr);
    GMLAKE_ASSERT(placed, "fresh slab must fit the request");
    mStats.onAllocate(rounded);
    return Allocation{id, size, addr};
}

Status
CompactingAllocator::deallocate(AllocId id)
{
    auto it = mLive.find(id);
    if (it == mLive.end())
        return makeError(Errc::invalidValue, "unknown allocation id");
    mDevice.chargeCachedOp();

    auto &[slabIndex, offset] = it->second;
    Slab &slab = mSlabs[slabIndex];
    const auto blk = slab.blocks.find(offset);
    GMLAKE_ASSERT(blk != slab.blocks.end(), "live map out of sync");
    mStats.onDeallocate(blk->second.first);
    slab.blocks.erase(blk);
    mLive.erase(it);
    return Status::success();
}

void
CompactingAllocator::emptyCache()
{
    for (std::size_t si = mSlabs.size(); si-- > 0;) {
        if (!mSlabs[si].blocks.empty())
            continue;
        const Status s = mDevice.freeNative(mSlabs[si].base);
        GMLAKE_ASSERT(s.ok(), "slab must free cleanly");
        mStats.onRelease(mSlabs[si].size);
        mSlabs.erase(mSlabs.begin() +
                     static_cast<std::ptrdiff_t>(si));
        for (auto &[id, loc] : mLive) {
            (void)id;
            if (loc.first > si)
                --loc.first;
        }
    }
}

void
CompactingAllocator::checkConsistency() const
{
    Bytes active = 0;
    Bytes reserved = 0;
    std::size_t blockCount = 0;
    for (std::size_t si = 0; si < mSlabs.size(); ++si) {
        const Slab &slab = mSlabs[si];
        reserved += slab.size;
        Bytes cursor = 0;
        for (const auto &[off, blk] : slab.blocks) {
            GMLAKE_ASSERT(off >= cursor, "overlapping blocks in slab");
            cursor = off + blk.first;
            GMLAKE_ASSERT(cursor <= slab.size,
                          "block beyond slab end");
            active += blk.first;
            ++blockCount;
            const auto live = mLive.find(blk.second);
            GMLAKE_ASSERT(live != mLive.end() &&
                          live->second.first == si &&
                          live->second.second == off,
                          "live map out of sync");
        }
    }
    GMLAKE_ASSERT(active == mStats.activeBytes(),
                  "active accounting drifted");
    GMLAKE_ASSERT(reserved == mStats.reservedBytes(),
                  "reserved accounting drifted");
    GMLAKE_ASSERT(blockCount == mLive.size(), "stray live entries");
}

} // namespace gmlake::alloc
