#include "vmm/device.hh"

#include <algorithm>
#include <bit>

#include "obs/recorder.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"
#include "support/units.hh"

namespace gmlake::vmm
{

namespace
{

/**
 * Accumulates the host wall-clock time of one device memory API call
 * into ApiCounters::vmmWallNs (two steady_clock reads per call).
 */
class WallScope
{
  public:
    explicit WallScope(ApiCounters &counters)
        : mCounters(counters), mStart(Stopwatch::nowNs())
    {
    }
    ~WallScope() { mCounters.vmmWallNs += Stopwatch::nowNs() - mStart; }

    WallScope(const WallScope &) = delete;
    WallScope &operator=(const WallScope &) = delete;

  private:
    ApiCounters &mCounters;
    std::uint64_t mStart;
};

/** The device's span track of the current observability run. */
std::uint32_t
deviceTrack(obs::Recorder &recorder)
{
    thread_local std::uint64_t cachedGeneration = 0;
    thread_local std::uint32_t cachedTrack = 0;
    const std::uint64_t generation = recorder.generation();
    if (cachedGeneration != generation) {
        cachedTrack = recorder.track("device");
        cachedGeneration = generation;
    }
    return cachedTrack;
}

/**
 * RAII span over one device API call: captures the simulated clock
 * on entry and, on exit, writes one device-category span on the
 * device's track covering every tick the call charged (a chunk run's
 * unwind, a copy stall), with the provenance scope token set by the
 * allocator so the ledger can attribute the cost to an allocation.
 * With no recorder installed the whole thing is one predictable
 * branch.
 */
class ObsApiSpan
{
  public:
    ObsApiSpan(obs::EvName name, const SimClock &clock,
               std::uint64_t arg = 0)
        : mRecorder(obs::active()), mClock(clock), mName(name)
    {
        if (mRecorder != nullptr) {
            mT0 = clock.now();
            mArg = arg;
        }
    }

    ~ObsApiSpan()
    {
        if (mRecorder != nullptr)
            mRecorder->span(mName, obs::EventCat::device,
                            deviceTrack(*mRecorder), mT0,
                            mClock.now() - mT0, mArg,
                            static_cast<std::uint64_t>(mFault),
                            obs::scopeToken());
    }

    ObsApiSpan(const ObsApiSpan &) = delete;
    ObsApiSpan &operator=(const ObsApiSpan &) = delete;

    /** Primary argument (bytes, chunks or batch size). */
    void
    arg(std::uint64_t value)
    {
        if (mRecorder != nullptr)
            mArg = value;
    }

    /** Tag the span with the error code of a failing call. */
    void
    fault(Errc code)
    {
        if (mRecorder != nullptr)
            mFault = code;
    }

  private:
    obs::Recorder *mRecorder;
    const SimClock &mClock;
    obs::EvName mName;
    Tick mT0 = 0;
    std::uint64_t mArg = 0;
    Errc mFault = Errc::ok;
};

} // namespace

Device::Device(DeviceConfig config)
    : mCost(config.cost),
      mPhys(config.capacity),
      mVa(),
      mMap(mPhys)
{
}

void
Device::charge(Tick t)
{
    mClock.advance(t);
    mCounters.apiTime += t;
}

Expected<VirtAddr>
Device::memAddressReserve(Bytes size)
{
    ++mCounters.addressReserve;
    const WallScope wall(mCounters);
    const ObsApiSpan span(obs::EvName::devAddressReserve, mClock, size);
    charge(mCost.memAddressReserve(size));
    if (size == 0)
        return makeError(Errc::invalidValue, "reserve of zero bytes");
    const Bytes rounded = roundUp(size, kGranularity);
    return mVa.reserve(rounded);
}

Status
Device::memAddressFree(VirtAddr va)
{
    ++mCounters.addressFree;
    const WallScope wall(mCounters);
    const ObsApiSpan span(obs::EvName::devAddressFree, mClock);
    charge(mCost.memAddressFree());
    const auto res = mVa.containing(va, 1);
    if (!res.ok())
        return res.error();
    if (res->base != va)
        return makeError(Errc::invalidValue,
                         "addressFree of a non-reservation base");
    if (mMap.hasMappingsIn(res->base, res->size))
        return makeError(Errc::handleInUse,
                         "addressFree of a reservation with mappings");
    return mVa.free(va);
}

Expected<PhysHandle>
Device::memCreate(Bytes size)
{
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devCreate, mClock, size);
    PhysHandle handle = kNullHandle;
    const RunStatus run = buildChunks(0, size, {&handle, 1}, false);
    span.fault(run.status.code());
    if (!run.ok())
        return run.status.error();
    return handle;
}

RunStatus
Device::memCreateRun(Bytes size, std::span<PhysHandle> out)
{
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devCreateRun, mClock, out.size());
    const RunStatus run = buildChunks(0, size, out, false);
    span.fault(run.status.code());
    return run;
}

Status
Device::memCreateMapRun(VirtAddr va, Bytes size,
                        std::span<PhysHandle> out)
{
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devCreateMapRun, mClock, out.size());
    // The run maps its chunks with one table splice, so its target
    // must be free space inside one reservation: every caller maps
    // into reservation space it has just taken or never mapped.
    const Bytes total = static_cast<Bytes>(out.size()) * size;
    GMLAKE_ASSERT(out.empty() || (isAligned(va, kGranularity) &&
                                  mVa.containing(va, total).ok() &&
                                  !mMap.overlaps(va, total)),
                  "create+map run target is not free space in one "
                  "reservation");
    const Status built = buildChunks(va, size, out, true).status;
    span.fault(built.code());
    return built;
}

RunStatus
Device::buildChunks(VirtAddr va, Bytes size, std::span<PhysHandle> out,
                    bool map)
{
    static constexpr FaultApi kChunkCalls[] = {FaultApi::memCreate,
                                               FaultApi::memMap};
    const std::span<const FaultApi> calls(kChunkCalls, map ? 2 : 1);
    const Tick createCost = mCost.memCreate(size);
    const Tick mapCost = map ? mCost.memMap(size) : 0;
    RunStatus run;
    bool mapFailed = false;
    // One step per stretch of chunks up to the next split: the first
    // failing call, or a chunk whose create a capacity loss falls due
    // at. Chunk i is created, then (with @p map) mapped at
    // va + i * size.
    while (run.ok() && run.done < out.size()) {
        std::size_t ask = out.size() - run.done; // creates to carve
        Status injected;
        if (mFaults) {
            // Each create first realizes the losses due by the clock
            // after its own charge. Loss debt left uncarved needs no
            // check at later chunks: a run only shrinks the holes.
            applyCapacityLoss(now() + createCost);
            // Chunk j of the step checks at now + j * perChunk +
            // createCost; the step ends before the first chunk the
            // next loss falls due at (after chunk 0's check).
            std::size_t n = ask;
            const Tick perChunk = createCost + mapCost;
            if (const auto at = mFaults->nextLossAt(); at && perChunk > 0) {
                const Tick ahead = *at - now() - createCost;
                GMLAKE_ASSERT(ahead > 0, "a due capacity loss was left "
                                         "unrealized");
                n = std::min(n, static_cast<std::size_t>(
                                    ahead / perChunk +
                                    (ahead % perChunk != 0 ? 1 : 0)));
            }
            // Draw every call of the chunks that fit, then the create
            // of the first one that does not: the loop stops there.
            const std::size_t fit = mPhys.fitCount(size, n);
            const auto draw = mFaults->drawRun(
                calls, fit * calls.size() + (fit < n ? 1 : 0));
            ask = std::min(n, fit + 1);
            if (draw.error) {
                injected = *draw.error;
                mapFailed = draw.passed % calls.size() == 1;
                ask = draw.passed / calls.size() + (mapFailed ? 1 : 0);
            }
        }
        const RunStatus made =
            mPhys.createRun(size, out.subspan(run.done, ask));
        GMLAKE_ASSERT(made.ok() ? made.done == ask : injected.ok(),
                      "fault draws passed a chunk that did not fit");
        const Status failed = made.ok() ? injected : made.status;
        const bool createFailed = !failed.ok() && !mapFailed;
        // Chunks whose every call succeeded.
        const std::size_t whole = made.done - (mapFailed ? 1 : 0);
        const std::size_t creates = made.done + (createFailed ? 1 : 0);
        mCounters.create += creates;
        mCounters.map += map ? made.done : 0;
        charge(createCost * static_cast<Tick>(creates) +
               mapCost * static_cast<Tick>(whole) +
               (mapFailed ? mCost.memMap(kGranularity) : 0));
        if (map && whole > 0) {
            mRunBatch.clear();
            mSlotBatch.clear();
            for (std::size_t i = run.done; i < run.done + whole; ++i) {
                mRunBatch.emplace_back(
                    va + static_cast<VirtAddr>(i) * size, out[i]);
                mSlotBatch.push_back(mPhys.slot(out[i]));
            }
            const Status s = mMap.mapSlots(mRunBatch, mSlotBatch);
            GMLAKE_ASSERT(s.ok(), "fresh chunks failed to map into a "
                                  "free target");
        }
        run.done += whole;
        run.status = failed;
    }
    if (map && !run.ok()) {
        // Unwind with the loop's own teardown calls: the mapped
        // chunks, then a created chunk whose map failed.
        unmapReleaseChunks(va, size, out.first(run.done));
        const RunStatus undo =
            releaseChunks(out.subspan(run.done, mapFailed ? 1 : 0));
        GMLAKE_ASSERT(undo.ok(), "run unwind release failed");
    }
    return run;
}

Status
Device::memRelease(PhysHandle handle)
{
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devRelease, mClock);
    const Status released = releaseChunks({&handle, 1}).status;
    span.fault(released.code());
    return released;
}

RunStatus
Device::memReleaseRun(std::span<const PhysHandle> handles)
{
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devReleaseRun, mClock, handles.size());
    const RunStatus run = releaseChunks(handles);
    span.fault(run.status.code());
    return run;
}

RunStatus
Device::releaseChunks(std::span<const PhysHandle> handles)
{
    const RunStatus run = mPhys.releaseRun(handles);
    // One API call per handle, the failing one included.
    const std::size_t calls = run.done + (run.ok() ? 0 : 1);
    const Tick each = mCost.memRelease();
    mCounters.release += calls;
    charge(each * static_cast<Tick>(calls));
    return run;
}

void
Device::memUnmapReleaseRun(VirtAddr va, Bytes size,
                           std::span<const PhysHandle> handles)
{
    const WallScope wall(mCounters);
    const ObsApiSpan span(obs::EvName::devUnmapReleaseRun, mClock,
                          handles.size());
    unmapReleaseChunks(va, size, handles);
}

void
Device::unmapReleaseChunks(VirtAddr va, Bytes size,
                           std::span<const PhysHandle> handles)
{
    if (handles.empty())
        return;
    // One memUnmap of a single chunk, then its memRelease, per handle.
    const Status unmapped = mMap.unmap(va, handles.size() * size);
    GMLAKE_ASSERT(unmapped.ok(), "run unwind unmap failed");
    const RunStatus released = mPhys.releaseRun(handles);
    GMLAKE_ASSERT(released.ok(), "run unwind release failed");
    const Tick unmapCost = mCost.memUnmap(1);
    const Tick releaseCost = mCost.memRelease();
    mCounters.unmap += handles.size();
    mCounters.release += handles.size();
    charge((unmapCost + releaseCost) * static_cast<Tick>(handles.size()));
}

Status
Device::memMap(VirtAddr va, PhysHandle handle)
{
    ++mCounters.map;
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devMap, mClock);
    if (mFaults) {
        if (auto err = mFaults->onCall(FaultApi::memMap)) {
            charge(mCost.memMap(kGranularity));
            span.fault(err->code);
            return *err;
        }
    }
    PhysMemory::Slot *const slot = mPhys.slot(handle);
    if (slot == nullptr) {
        charge(mCost.memMap(kGranularity));
        return PhysMemory::unknownHandle();
    }
    span.arg(slot->size);
    charge(mCost.memMap(slot->size));
    // The whole mapped range must live inside one reservation.
    if (const auto res = mVa.containing(va, slot->size); !res.ok())
        return res.error();
    if (!isAligned(va, kGranularity))
        return makeError(Errc::invalidValue,
                         "cuMemMap target not granularity aligned");
    const std::pair<VirtAddr, PhysHandle> entry{va, handle};
    return mMap.mapSlots({&entry, 1}, {&slot, 1});
}

Status
Device::memMapBatch(
    std::span<const std::pair<VirtAddr, PhysHandle>> batch)
{
    if (batch.empty())
        return Status::success();
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devMapBatch, mClock, batch.size());
    if (mFaults) {
        // One rejected vectored submission: count and charge a single
        // driver call, nothing is installed.
        if (auto err = mFaults->onCall(FaultApi::memMapBatch)) {
            ++mCounters.map;
            charge(mCost.memMap(kGranularity));
            span.fault(err->code);
            return *err;
        }
    }
    // One simulated driver call per chunk: count and charge each
    // entry as it is inspected, exactly like a loop of memMap()
    // calls up to (and including) the first invalid entry. Each
    // handle is resolved once here and the table maps from the
    // kept slots; a run of equal chunk sizes is priced once.
    Tick total = 0;
    std::size_t calls = 0;
    Bytes pricedSize = 0; // no slot has size 0
    Tick price = 0;
    Status bad = Status::success();
    mSlotBatch.clear();
    for (const auto &[va, handle] : batch) {
        ++calls;
        PhysMemory::Slot *const slot = mPhys.slot(handle);
        if (slot == nullptr) {
            total += mCost.memMap(kGranularity);
            bad = PhysMemory::unknownHandle();
            break;
        }
        mSlotBatch.push_back(slot);
        if (slot->size != pricedSize) {
            pricedSize = slot->size;
            price = mCost.memMap(pricedSize);
        }
        total += price;
        if (!isAligned(va, kGranularity)) {
            bad = makeError(Errc::invalidValue,
                            "cuMemMap target not granularity "
                            "aligned");
            break;
        }
    }
    mCounters.map += calls;
    charge(total);
    if (!bad.ok())
        return bad;
    // Reservation containment. The common batch (a stitch) lands in
    // one fresh reservation, checked with a single probe; otherwise
    // fall back to a per-chunk check.
    const VirtAddr lo = batch.front().first;
    const VirtAddr hi = batch.back().first + mSlotBatch.back()->size;
    if (const auto res = mVa.containing(lo, hi - lo); !res.ok()) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const auto each =
                mVa.containing(batch[i].first, mSlotBatch[i]->size);
            if (!each.ok())
                return each.error();
        }
    }
    return mMap.mapSlots(batch, mSlotBatch);
}

Status
Device::memUnmap(VirtAddr va, Bytes size)
{
    ++mCounters.unmap;
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devUnmap, mClock);
    const auto stats = mMap.rangeStats(va, size);
    span.arg(stats.chunks);
    charge(mCost.memUnmap(stats.chunks == 0 ? 1 : stats.chunks));
    return mMap.unmap(va, size);
}

Status
Device::memSetAccess(VirtAddr va, Bytes size)
{
    ++mCounters.setAccess;
    const WallScope wall(mCounters);
    ObsApiSpan span(obs::EvName::devSetAccess, mClock);
    if (mFaults) {
        if (auto err = mFaults->onCall(FaultApi::memSetAccess)) {
            charge(mCost.memSetAccess(1, kGranularity));
            span.fault(err->code);
            return *err;
        }
    }
    const auto stats = mMap.rangeStats(va, size);
    span.arg(stats.chunks);
    if (stats.chunks == 0) {
        charge(mCost.memSetAccess(1, kGranularity));
        return makeError(Errc::notMapped,
                         "cuMemSetAccess over an unmapped range");
    }
    // Charge per covered chunk, using the average chunk size.
    charge(mCost.memSetAccess(stats.chunks,
                              stats.bytes / stats.chunks));
    return mMap.setAccess(va, size);
}

Expected<VirtAddr>
Device::mallocNative(Bytes size)
{
    ++mCounters.mallocNative;
    const WallScope wall(mCounters);
    const ObsApiSpan span(obs::EvName::devMallocNative, mClock, size);
    charge(mCost.nativeAlloc(size));
    if (size == 0)
        return makeError(Errc::invalidValue, "cudaMalloc of zero bytes");
    const Bytes rounded = roundUp(size, kGranularity);
    const auto handle = mPhys.create(rounded);
    if (!handle.ok())
        return handle.error();
    auto va = mVa.reserve(rounded);
    if (!va.ok()) {
        const Status s = mPhys.release(*handle);
        GMLAKE_ASSERT(s.ok(), "rollback release failed");
        return va.error();
    }
    Status mapped = mMap.map(*va, *handle);
    GMLAKE_ASSERT(mapped.ok(), "fresh VA must be mappable");
    mapped = mMap.setAccess(*va, rounded);
    GMLAKE_ASSERT(mapped.ok(), "fresh mapping must accept access");
    mNative.emplace(*va, NativeAlloc{*handle, rounded});
    return *va;
}

Status
Device::freeNative(VirtAddr va)
{
    ++mCounters.freeNative;
    const WallScope wall(mCounters);
    const ObsApiSpan span(obs::EvName::devFreeNative, mClock);
    charge(mCost.nativeFree());
    auto it = mNative.find(va);
    if (it == mNative.end())
        return makeError(Errc::invalidValue,
                         "cudaFree of an unknown pointer");
    Status s = mMap.unmap(va, it->second.size);
    GMLAKE_ASSERT(s.ok(), "native mapping must unmap cleanly");
    s = mPhys.release(it->second.handle);
    GMLAKE_ASSERT(s.ok(), "native handle must release cleanly");
    s = mVa.free(va);
    GMLAKE_ASSERT(s.ok(), "native VA must free cleanly");
    mNative.erase(it);
    return Status::success();
}

void
Device::syncPenalty()
{
    charge(mCost.nativeSyncPenalty());
}

void
Device::chargeCachedOp()
{
    charge(mCost.cachedOp());
}

Expected<Tick>
Device::copyD2HAsync(Bytes bytes)
{
    ++mCounters.d2hCopies;
    ObsApiSpan span(obs::EvName::devCopyD2H, mClock, bytes);
    charge(mCost.copySubmit());
    // A failed submission charges the enqueue cost but transfers
    // nothing and leaves the lane horizon untouched.
    if (mFaults) {
        if (auto err = mFaults->onCall(FaultApi::copyD2H)) {
            span.fault(err->code);
            return *err;
        }
    }
    mCounters.d2hBytes += bytes;
    const Tick start = std::max(mD2hLaneFree, now());
    mD2hLaneFree = start + mCost.copyD2H(bytes);
    return mD2hLaneFree;
}

Expected<Tick>
Device::copyH2DAsync(Bytes bytes)
{
    ++mCounters.h2dCopies;
    ObsApiSpan span(obs::EvName::devCopyH2D, mClock, bytes);
    charge(mCost.copySubmit());
    if (mFaults) {
        if (auto err = mFaults->onCall(FaultApi::copyH2D)) {
            span.fault(err->code);
            return *err;
        }
    }
    mCounters.h2dBytes += bytes;
    const Tick start = std::max(mH2dLaneFree, now());
    mH2dLaneFree = start + mCost.copyH2D(bytes);
    return mH2dLaneFree;
}

void
Device::installFaultInjector(FaultPlan plan, std::uint64_t seed)
{
    mFaults = std::make_unique<FaultInjector>(std::move(plan), seed);
}

void
Device::clearFaultInjector()
{
    mFaults.reset();
}

void
Device::applyCapacityLoss(Tick at)
{
    Bytes due = mFaults->pendingCapacityLoss(at);
    while (due > 0) {
        // Carve granularity-aligned pieces out of the largest free
        // extents; the handles are kept forever, modeling permanently
        // retired device memory (row remaps, ECC-disabled banks).
        const Bytes hole = std::min(due, mPhys.largestHole());
        const Bytes take = roundDown(hole, kGranularity);
        if (take == 0)
            break; // too fragmented now; retried on the next create
        const auto handle = mPhys.create(take);
        GMLAKE_ASSERT(handle.ok(), "capacity-loss carve failed");
        mFaults->noteCapacityLost(take);
        due -= take;
    }
}

Tick
Device::copyWait(Tick completion)
{
    if (completion <= now())
        return 0;
    const Tick stall = completion - now();
    const ObsApiSpan span(obs::EvName::devCopyWait, mClock, stall);
    mClock.advance(stall);
    mCounters.copyStallNs += stall;
    return stall;
}

Device::State
Device::saveState() const
{
    State out;
    out.capacity = mPhys.capacity();
    out.clock = mClock.now();
    out.counters = mCounters;
    out.native = mNative;
    out.d2hLaneFree = mD2hLaneFree;
    out.h2dLaneFree = mH2dLaneFree;
    out.phys = mPhys.saveState();
    out.va = mVa.saveState();
    out.map = mMap.saveState();
    return out;
}

void
Device::restoreState(const State &state)
{
    GMLAKE_ASSERT(state.capacity == mPhys.capacity(),
                  "checkpoint restore into a device of different "
                  "capacity");
    mClock.reset();
    mClock.advance(state.clock);
    mCounters = state.counters;
    mNative = state.native;
    mD2hLaneFree = state.d2hLaneFree;
    mH2dLaneFree = state.h2dLaneFree;
    mPhys.restoreState(state.phys);
    mVa.restoreState(state.va);
    mMap.restoreState(state.map);
}

Device::FragStats
Device::fragStats() const
{
    FragStats out;
    out.inUse = mPhys.inUse();
    out.capacity = mPhys.capacity();
    out.largestHole = mPhys.largestHole();
    out.holeCount = mPhys.holeCount();
    std::size_t top = 0;
    std::vector<std::uint64_t> buckets(64, 0);
    for (const auto &hole : mPhys.holeExtents()) {
        if (hole.size == 0)
            continue;
        const auto bit = static_cast<std::size_t>(
            std::bit_width(hole.size) - 1);
        ++buckets[bit];
        top = std::max(top, bit + 1);
    }
    buckets.resize(top);
    out.holeBuckets = std::move(buckets);
    return out;
}

} // namespace gmlake::vmm
