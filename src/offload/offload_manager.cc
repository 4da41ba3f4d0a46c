#include "offload/offload_manager.hh"

#include "support/logging.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"

namespace gmlake::offload
{

namespace
{

/**
 * Accumulates the manager's host wallclock into
 * OffloadStats::offloadWallNs — outermost scope only, so the nested
 * reclaimOnOom a touch() fault-back triggers is not double-counted.
 */
class WallScope
{
  public:
    WallScope(OffloadStats &stats, int &depth)
        : mStats(stats), mDepth(depth), mStart(Stopwatch::nowNs())
    {
        ++mDepth;
    }
    ~WallScope()
    {
        if (--mDepth == 0)
            mStats.offloadWallNs += Stopwatch::nowNs() - mStart;
    }

    WallScope(const WallScope &) = delete;
    WallScope &operator=(const WallScope &) = delete;

  private:
    OffloadStats &mStats;
    int &mDepth;
    std::uint64_t mStart;
};

} // namespace

OffloadManager::OffloadManager(vmm::Device &device,
                               alloc::Allocator &allocator,
                               OffloadConfig config)
    : mDevice(device),
      mAllocator(allocator),
      mConfig(config),
      mPolicy(makePolicy(config.policy)),
      mHostPool(config.hostCapacity)
{
    GMLAKE_ASSERT(mAllocator.offloadHook() == nullptr,
                  "allocator already has an offload hook");
    mAllocator.setOffloadHook(this);
    mCandidates.reserve(256);
}

OffloadManager::~OffloadManager()
{
    mAllocator.setOffloadHook(nullptr);
}

void
OffloadManager::onAllocated(alloc::AllocId id, Bytes bytes,
                            std::size_t session)
{
    const WallScope wall(mStats, mWallDepth);
    Entry entry;
    entry.bytes = bytes;
    entry.lastTouch = mDevice.now();
    entry.session = session;
    const bool inserted = mEntries.emplace(id, entry).second;
    GMLAKE_ASSERT(inserted, "allocation registered twice: ", id);
}

void
OffloadManager::onFreed(alloc::AllocId id)
{
    const WallScope wall(mStats, mWallDepth);
    const auto it = mEntries.find(id);
    GMLAKE_ASSERT(it != mEntries.end(),
                  "free of unregistered allocation: ", id);
    // A spilled allocation dying on the host tier needs no H2D: the
    // data is dead, only the staging bytes return to the pool. (The
    // allocator keeps the backing-free block structure around for
    // reuse; faulting it in later costs mappings, not a copy.)
    if (it->second.spilled)
        mHostPool.unstage(it->second.bytes);
    mEntries.erase(it);
}

Status
OffloadManager::touch(alloc::AllocId id)
{
    const WallScope wall(mStats, mWallDepth);
    const auto it = mEntries.find(id);
    GMLAKE_ASSERT(it != mEntries.end(),
                  "touch of unregistered allocation: ", id);
    Entry &entry = it->second;

    if (entry.spilled) {
        // Fault-back: restore the device backing, evicting deeper if
        // the device is full, then wait out the H2D on the lane.
        for (;;) {
            const Status restored = mAllocator.faultLive(id);
            if (restored.ok())
                break;
            if (restored.error().code != Errc::outOfMemory)
                return restored;
            if (spillVictims(entry.bytes) == 0) {
                ++mStats.failedReclaims;
                return makeError(
                    Errc::outOfMemory,
                    "offload fault-back failed: device cannot hold " +
                        formatBytes(entry.bytes) +
                        " and nothing is left to evict");
            }
        }
        const auto done = mDevice.copyH2DAsync(entry.bytes);
        if (!done.ok()) {
            // Injected copy-lane failure. The backing is restored but
            // the data never came home: leave the entry spilled with
            // its staging intact so a retried touch repeats only the
            // copy (the faultLive above is then a no-op).
            return done.error();
        }
        mDevice.copyWait(*done);
        mHostPool.unstage(entry.bytes);
        entry.spilled = false;
        ++mStats.faults;
        mStats.faultedBytes += entry.bytes;
        sessionSlot(entry.session).faultedBytes += entry.bytes;
    } else if (entry.dataReadyAt > mDevice.now()) {
        // Prefetched and still in flight: wait out the remainder.
        mDevice.copyWait(entry.dataReadyAt);
    }
    entry.lastTouch = mDevice.now();
    return Status::success();
}

void
OffloadManager::prefetch(alloc::AllocId id)
{
    const WallScope wall(mStats, mWallDepth);
    const auto it = mEntries.find(id);
    GMLAKE_ASSERT(it != mEntries.end(),
                  "prefetch of unregistered allocation: ", id);
    Entry &entry = it->second;
    if (!entry.spilled)
        return;
    // Best effort: restore only if the device has room as-is. The
    // mPrefetching guard turns any reclaim the allocator attempts
    // during the restore into a no-op, so a hint can never displace
    // live data — a wrong hint costs nothing.
    mPrefetching = true;
    const Status restored = mAllocator.faultLive(id);
    mPrefetching = false;
    if (!restored.ok())
        return; // device full; the touch will pay the full fault
    const auto ready = mDevice.copyH2DAsync(entry.bytes);
    if (!ready.ok())
        return; // injected lane failure; likewise deferred to touch
    entry.dataReadyAt = *ready;
    mHostPool.unstage(entry.bytes);
    entry.spilled = false;
    // A hint is an intent signal: mark the entry warm so the LRU
    // does not turn right around and evict what is being fetched.
    entry.lastTouch = mDevice.now();
    ++mStats.prefetches;
    mStats.faultedBytes += entry.bytes;
    sessionSlot(entry.session).faultedBytes += entry.bytes;
}

Bytes
OffloadManager::reclaimOnOom(Bytes needed, StreamId stream)
{
    (void)stream; // victims are chosen by policy, not stream
    const WallScope wall(mStats, mWallDepth);

    // Cached free memory first: no data, no transfer, cheap rebuild.
    // This is all a prefetch-triggered reclaim may do — a hint must
    // never displace live data.
    Bytes freed = mAllocator.trimCache(needed);
    mStats.trimmedBytes += freed;
    if (!mPrefetching && freed < needed)
        freed += spillVictims(needed - freed);
    if (freed == 0 && !mPrefetching)
        ++mStats.failedReclaims;
    return freed;
}

Bytes
OffloadManager::spillVictims(Bytes needed)
{
    if (!mAllocator.supportsLiveSpill())
        return 0;
    mCandidates.clear();
    for (const auto &[id, entry] : mEntries) {
        if (entry.spilled || entry.bytes < kMinVictimBytes)
            continue;
        mCandidates.push_back(
            Victim{id, entry.bytes, entry.lastTouch, entry.session});
    }
    mPolicy->rank(mCandidates);

    Bytes freed = 0;
    for (const Victim &victim : mCandidates) {
        if (freed >= needed)
            break;
        Entry &entry = mEntries.at(victim.id);
        if (!mHostPool.tryStage(entry.bytes))
            continue; // host tier full; try a smaller victim
        // A victim whose prefetch H2D is still in flight cannot be
        // copied out before the data has landed on the device.
        mDevice.copyWait(entry.dataReadyAt);
        const auto released = mAllocator.spillLive(victim.id);
        if (!released.ok()) {
            // Per-victim refusal (e.g. a small-path allocation that
            // slipped under the size floor): skip it, the larger
            // victims ranked after it may still spill. Allocators
            // that cannot spill at all never reach this loop
            // (supportsLiveSpill() is checked at entry).
            mHostPool.unstage(entry.bytes);
            continue;
        }
        // The D2H is charged after the allocator's unmap/release
        // bookkeeping; physically the copy precedes the release, but
        // both charges land serially on the same clock, so the order
        // is unobservable — and this way a refused spill charges
        // nothing.
        const auto done = mDevice.copyD2HAsync(entry.bytes);
        if (!done.ok()) {
            // Injected copy-lane failure: the copy that physically
            // precedes the release never ran, so undo the release and
            // skip the victim. The mPrefetching guard keeps the undo
            // from re-entering this loop through the reclaim hook
            // (mCandidates is live). If the restore is itself refused
            // the entry stays staged on the host tier and the next
            // touch pays the fault.
            mPrefetching = true;
            const bool restored = mAllocator.faultLive(victim.id).ok();
            mPrefetching = false;
            if (restored) {
                mHostPool.unstage(entry.bytes);
                continue;
            }
            entry.spilled = true;
            entry.dataReadyAt = 0;
            freed += *released;
            continue;
        }
        mDevice.copyWait(*done);
        entry.spilled = true;
        entry.dataReadyAt = 0;
        ++mStats.evictions;
        mStats.evictedBytes += entry.bytes;
        sessionSlot(entry.session).evictedBytes += entry.bytes;
        freed += *released;
    }
    return freed;
}

SessionOffloadStats
OffloadManager::sessionStats(std::size_t session) const
{
    if (session >= mSessionStats.size())
        return {};
    return mSessionStats[session];
}

SessionOffloadStats &
OffloadManager::sessionSlot(std::size_t session)
{
    if (session >= mSessionStats.size())
        mSessionStats.resize(session + 1);
    return mSessionStats[session];
}

Bytes
OffloadManager::evictableBytes() const
{
    Bytes total = mAllocator.trimmableBytes();
    if (!mAllocator.supportsLiveSpill())
        return total;
    for (const auto &[id, entry] : mEntries) {
        (void)id;
        if (!entry.spilled && entry.bytes >= kMinVictimBytes)
            total += entry.bytes;
    }
    return total;
}

std::size_t
OffloadManager::spilledCount() const
{
    std::size_t count = 0;
    for (const auto &[id, entry] : mEntries) {
        (void)id;
        count += entry.spilled ? 1 : 0;
    }
    return count;
}

} // namespace gmlake::offload
