/**
 * @file
 * Device facade tests: the CUDA-driver-like API surface, the native
 * cudaMalloc path, time charging and API counters, and the chunk-run
 * entry points and memMapBatch checked on twin devices against the
 * per-chunk call loops they stand for — fault-free, out of memory,
 * on bad entries, under fault plans, and under an active obs
 * recorder.
 */

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;
using vmm::Device;
using vmm::DeviceConfig;
using vmm::RunStatus;

namespace
{

DeviceConfig
smallDevice(Bytes capacity = 64_MiB)
{
    DeviceConfig cfg;
    cfg.capacity = capacity;
    cfg.granularity = 2_MiB;
    return cfg;
}

} // namespace

TEST(Device, FullVmmAllocationRoundTrip)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(4_MiB);
    ASSERT_TRUE(va.ok());
    const auto h1 = dev.memCreate(2_MiB);
    const auto h2 = dev.memCreate(2_MiB);
    ASSERT_TRUE(h1.ok() && h2.ok());
    ASSERT_TRUE(dev.memMap(*va, *h1).ok());
    ASSERT_TRUE(dev.memMap(*va + 2_MiB, *h2).ok());
    ASSERT_TRUE(dev.memSetAccess(*va, 4_MiB).ok());
    EXPECT_TRUE(dev.mappings().accessible(*va, 4_MiB));
    EXPECT_EQ(dev.phys().inUse(), 4_MiB);

    ASSERT_TRUE(dev.memUnmap(*va, 4_MiB).ok());
    ASSERT_TRUE(dev.memRelease(*h1).ok());
    ASSERT_TRUE(dev.memRelease(*h2).ok());
    ASSERT_TRUE(dev.memAddressFree(*va).ok());
    EXPECT_EQ(dev.phys().inUse(), 0u);
    EXPECT_EQ(dev.vaSpace().reservedBytes(), 0u);
}

TEST(Device, ReserveRoundsToGranularity)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(3_MiB);
    ASSERT_TRUE(va.ok());
    // The reservation internally covers 4 MiB.
    EXPECT_EQ(dev.vaSpace().reservedBytes(), 4_MiB);
}

TEST(Device, AddressFreeWithLiveMappingsFails)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(2_MiB);
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(va.ok() && h.ok());
    ASSERT_TRUE(dev.memMap(*va, *h).ok());
    EXPECT_EQ(dev.memAddressFree(*va).code(), Errc::handleInUse);
    ASSERT_TRUE(dev.memUnmap(*va, 2_MiB).ok());
    EXPECT_TRUE(dev.memAddressFree(*va).ok());
}

TEST(Device, ReleaseMappedHandleFails)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(2_MiB);
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(va.ok() && h.ok());
    ASSERT_TRUE(dev.memMap(*va, *h).ok());
    EXPECT_EQ(dev.memRelease(*h).code(), Errc::handleInUse);
}

TEST(Device, MapOutsideReservationFails)
{
    Device dev(smallDevice());
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(dev.memMap(0x1234000, *h).code(), Errc::notReserved);
}

TEST(Device, MapUnalignedFails)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(4_MiB);
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(va.ok() && h.ok());
    EXPECT_EQ(dev.memMap(*va + 1024, *h).code(), Errc::invalidValue);
}

TEST(Device, CreateBeyondCapacityFails)
{
    Device dev(smallDevice(8_MiB));
    const auto a = dev.memCreate(6_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(dev.memCreate(4_MiB).code(), Errc::outOfMemory);
}

TEST(Device, NativeMallocFreeRoundTrip)
{
    Device dev(smallDevice());
    const auto p = dev.mallocNative(5_MiB);
    ASSERT_TRUE(p.ok());
    // Rounded up to granularity internally.
    EXPECT_EQ(dev.phys().inUse(), 6_MiB);
    EXPECT_TRUE(dev.mappings().accessible(*p, 5_MiB));
    ASSERT_TRUE(dev.freeNative(*p).ok());
    EXPECT_EQ(dev.phys().inUse(), 0u);
}

TEST(Device, NativeFreeUnknownPointerFails)
{
    Device dev(smallDevice());
    EXPECT_EQ(dev.freeNative(0xabc).code(), Errc::invalidValue);
}

TEST(Device, NativeMallocOutOfMemory)
{
    Device dev(smallDevice(8_MiB));
    EXPECT_EQ(dev.mallocNative(16_MiB).code(), Errc::outOfMemory);
    EXPECT_EQ(dev.mallocNative(0).code(), Errc::invalidValue);
}

TEST(Device, ClockAdvancesOnApiCalls)
{
    Device dev(smallDevice());
    const Tick t0 = dev.now();
    const auto p = dev.mallocNative(2_MiB);
    ASSERT_TRUE(p.ok());
    const Tick t1 = dev.now();
    EXPECT_GT(t1, t0);
    ASSERT_TRUE(dev.freeNative(*p).ok());
    EXPECT_GT(dev.now(), t1);
    EXPECT_EQ(dev.counters().apiTime, dev.now());
}

TEST(Device, VmmCallsAreCheaperThanNativeForLargeChunks)
{
    // The premise of the whole design, Fig 2/6.
    Device dev(smallDevice(2_GiB + 64_MiB));
    const Tick t0 = dev.now();
    const auto p = dev.mallocNative(1_GiB);
    ASSERT_TRUE(p.ok());
    const Tick nativeCost = dev.now() - t0;

    const Tick t1 = dev.now();
    const auto va = dev.memAddressReserve(1_GiB);
    ASSERT_TRUE(va.ok());
    const Tick reserveCost = dev.now() - t1;
    EXPECT_LT(reserveCost, nativeCost / 100);
}

TEST(Device, CountersTrackCalls)
{
    Device dev(smallDevice());
    (void)dev.memAddressReserve(2_MiB);
    (void)dev.memCreate(2_MiB);
    (void)dev.mallocNative(2_MiB);
    dev.syncPenalty();
    dev.chargeCachedOp();
    const auto &c = dev.counters();
    EXPECT_EQ(c.addressReserve, 1u);
    EXPECT_EQ(c.create, 1u);
    EXPECT_EQ(c.mallocNative, 1u);
}

TEST(Device, FailedNativeMallocRollsBackCleanly)
{
    Device dev(smallDevice(8_MiB));
    const auto a = dev.mallocNative(8_MiB);
    ASSERT_TRUE(a.ok());
    const auto b = dev.mallocNative(2_MiB);
    EXPECT_FALSE(b.ok());
    // No leaked VA or physical bytes from the failed attempt.
    EXPECT_EQ(dev.phys().inUse(), 8_MiB);
    ASSERT_TRUE(dev.freeNative(*a).ok());
    EXPECT_EQ(dev.phys().inUse(), 0u);
    EXPECT_EQ(dev.vaSpace().reservedBytes(), 0u);
}

// ------------------------------------------------ chunk runs vs loops

namespace
{

/** Every ApiCounters field but the host wall time. */
void
expectSameCounters(const vmm::ApiCounters &a, const vmm::ApiCounters &b)
{
    EXPECT_EQ(a.addressReserve, b.addressReserve);
    EXPECT_EQ(a.addressFree, b.addressFree);
    EXPECT_EQ(a.create, b.create);
    EXPECT_EQ(a.release, b.release);
    EXPECT_EQ(a.map, b.map);
    EXPECT_EQ(a.unmap, b.unmap);
    EXPECT_EQ(a.setAccess, b.setAccess);
    EXPECT_EQ(a.mallocNative, b.mallocNative);
    EXPECT_EQ(a.freeNative, b.freeNative);
    EXPECT_EQ(a.d2hCopies, b.d2hCopies);
    EXPECT_EQ(a.h2dCopies, b.h2dCopies);
    EXPECT_EQ(a.d2hBytes, b.d2hBytes);
    EXPECT_EQ(a.h2dBytes, b.h2dBytes);
    EXPECT_EQ(a.copyStallNs, b.copyStallNs);
    EXPECT_EQ(a.apiTime, b.apiTime);
}

/** Clock, counters, mappings, VA and physical state all agree. */
void
expectSameDevice(const Device &a, const Device &b)
{
    EXPECT_EQ(a.now(), b.now());
    expectSameCounters(a.counters(), b.counters());

    const auto pa = a.phys().saveState();
    const auto pb = b.phys().saveState();
    EXPECT_EQ(pa.inUse, pb.inUse);
    EXPECT_EQ(pa.peakInUse, pb.peakInUse);
    EXPECT_EQ(pa.peakHoles, pb.peakHoles);
    EXPECT_EQ(pa.liveHandles, pb.liveHandles);
    EXPECT_EQ(pa.freeSlots, pb.freeSlots);
    ASSERT_EQ(pa.slots.size(), pb.slots.size());
    for (std::size_t i = 0; i < pa.slots.size(); ++i) {
        EXPECT_EQ(pa.slots[i].base, pb.slots[i].base) << "slot " << i;
        EXPECT_EQ(pa.slots[i].size, pb.slots[i].size) << "slot " << i;
        EXPECT_EQ(pa.slots[i].mapRefs, pb.slots[i].mapRefs);
        EXPECT_EQ(pa.slots[i].generation, pb.slots[i].generation);
        EXPECT_EQ(pa.slots[i].live, pb.slots[i].live) << "slot " << i;
    }
    ASSERT_EQ(pa.holes.size(), pb.holes.size());
    for (std::size_t i = 0; i < pa.holes.size(); ++i) {
        EXPECT_EQ(pa.holes[i].base, pb.holes[i].base) << "hole " << i;
        EXPECT_EQ(pa.holes[i].size, pb.holes[i].size) << "hole " << i;
    }

    EXPECT_EQ(a.mappings().mappingCount(), b.mappings().mappingCount());
    EXPECT_EQ(a.mappings().extentCount(), b.mappings().extentCount());
    const auto ma = a.mappings().mappingsIn(0, ~VirtAddr{0} >> 1);
    const auto mb = b.mappings().mappingsIn(0, ~VirtAddr{0} >> 1);
    ASSERT_EQ(ma.size(), mb.size());
    for (std::size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(ma[i].va, mb[i].va) << "mapping " << i;
        EXPECT_EQ(ma[i].size, mb[i].size) << "mapping " << i;
        EXPECT_EQ(ma[i].handle, mb[i].handle) << "mapping " << i;
        EXPECT_EQ(ma[i].accessible, mb[i].accessible) << "mapping " << i;
    }
    EXPECT_EQ(a.vaSpace().reservationCount(),
              b.vaSpace().reservationCount());
    EXPECT_EQ(a.vaSpace().reservedBytes(), b.vaSpace().reservedBytes());
}

std::string
describe(const RunStatus &run)
{
    return std::to_string(run.done) + "/" + errcName(run.status.code());
}

/**
 * The chunk-level device calls either as run entry points or as the
 * per-chunk loops the allocators ran before them (the create+map loop
 * with allocPBlock's unwind).
 */
struct ChunkCalls
{
    Device &dev;
    bool runs;

    RunStatus
    create(Bytes size, std::span<PhysHandle> out)
    {
        if (runs)
            return dev.memCreateRun(size, out);
        RunStatus run;
        for (; run.done < out.size(); ++run.done) {
            const auto h = dev.memCreate(size);
            if (!h.ok()) {
                run.status = h.error();
                break;
            }
            out[run.done] = *h;
        }
        return run;
    }

    RunStatus
    release(std::span<const PhysHandle> handles)
    {
        if (runs)
            return dev.memReleaseRun(handles);
        RunStatus run;
        for (; run.done < handles.size(); ++run.done) {
            run.status = dev.memRelease(handles[run.done]);
            if (!run.ok())
                break;
        }
        return run;
    }

    void
    unmapRelease(VirtAddr va, Bytes size,
                 std::span<const PhysHandle> handles)
    {
        if (runs) {
            dev.memUnmapReleaseRun(va, size, handles);
            return;
        }
        for (std::size_t j = 0; j < handles.size(); ++j) {
            ASSERT_TRUE(dev.memUnmap(va + j * size, size).ok());
            ASSERT_TRUE(dev.memRelease(handles[j]).ok());
        }
    }

    Status
    createMap(VirtAddr va, Bytes size, std::span<PhysHandle> out)
    {
        if (runs)
            return dev.memCreateMapRun(va, size, out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            const auto h = dev.memCreate(size);
            if (!h.ok()) {
                unmapRelease(va, size, out.first(i));
                return h.error();
            }
            if (const Status s = dev.memMap(va + i * size, *h); !s.ok()) {
                unmapRelease(va, size, out.first(i));
                EXPECT_TRUE(dev.memRelease(*h).ok());
                return s;
            }
            out[i] = *h;
        }
        return Status::success();
    }
};

/**
 * A fixed script over a 64 MiB device (32 chunks): create+map,
 * plain creates released in reverse, an out-of-memory create+map,
 * unordered and stale releases, and a create+map torn down by its
 * inverse. Each step's outcome is logged; after each step @p check
 * compares the device against its twin.
 */
std::vector<std::string>
runScript(ChunkCalls calls, const std::function<void()> &check)
{
    Device &dev = calls.dev;
    std::vector<std::string> log;
    const auto va = dev.memAddressReserve(40 * 2_MiB);
    EXPECT_TRUE(va.ok());

    std::vector<PhysHandle> block(12, kNullHandle);
    Status s = calls.createMap(*va, 2_MiB, block);
    log.push_back(std::string("createMap ") + errcName(s.code()));
    if (s.ok())
        s = dev.memSetAccess(*va, 12 * 2_MiB);
    check();

    std::vector<PhysHandle> loose(6, kNullHandle);
    RunStatus r = calls.create(2_MiB, loose);
    log.push_back("create " + describe(r));
    loose.resize(r.done);
    std::reverse(loose.begin(), loose.end());
    log.push_back("release " + describe(calls.release(loose)));
    check();

    // 28 more chunks do not fit next to the block: out of memory
    // part-way, unwound by the run itself.
    std::vector<PhysHandle> big(28, kNullHandle);
    s = calls.createMap(*va + 12 * 2_MiB, 2_MiB, big);
    log.push_back(std::string("createMap ") + errcName(s.code()));
    check();

    if (dev.mappings().mappingCount() == block.size()) {
        EXPECT_TRUE(dev.memUnmap(*va, 12 * 2_MiB).ok());
        // Odd chunks first, then even ones: stretches of one.
        std::vector<PhysHandle> order;
        for (std::size_t i = 1; i < block.size(); i += 2)
            order.push_back(block[i]);
        for (std::size_t i = 0; i < block.size(); i += 2)
            order.push_back(block[i]);
        log.push_back("release " + describe(calls.release(order)));
    }
    check();

    std::vector<PhysHandle> again(8, kNullHandle);
    s = calls.createMap(*va, 2_MiB, again);
    log.push_back(std::string("createMap ") + errcName(s.code()));
    if (s.ok())
        calls.unmapRelease(*va, 2_MiB, again);
    check();

    std::vector<PhysHandle> four(4, kNullHandle);
    r = calls.create(2_MiB, four);
    log.push_back("create " + describe(r));
    if (r.ok()) {
        // The repeated handle is stale once released: stop there.
        const std::vector<PhysHandle> dup = {four[0], four[1], four[0],
                                             four[2], four[3]};
        log.push_back("release " + describe(calls.release(dup)));
        log.push_back("release " +
                      describe(calls.release(std::span(four).last(2))));
    }
    check();
    return log;
}

/** Run the script on twins, one with runs and one with loops. */
void
expectRunsMatchLoops(const std::string &plan)
{
    Device runs(smallDevice(64_MiB));
    Device loops(smallDevice(64_MiB));
    if (!plan.empty()) {
        runs.installFaultInjector(vmm::FaultPlan::parse(plan), 7);
        loops.installFaultInjector(vmm::FaultPlan::parse(plan), 7);
    }
    const auto logLoops = runScript({loops, false}, [] {});
    const auto logRuns = runScript({runs, true}, [] {});
    SCOPED_TRACE("plan '" + plan + "'");
    EXPECT_EQ(logRuns, logLoops);
    expectSameDevice(runs, loops);
    if (!plan.empty()) {
        const auto &fa = runs.faultInjector()->counters();
        const auto &fb = loops.faultInjector()->counters();
        EXPECT_EQ(fa.calls, fb.calls);
        EXPECT_EQ(fa.injected, fb.injected);
        EXPECT_EQ(fa.capacityLost, fb.capacityLost);
        // Every plan bites: a fault fired or capacity went missing.
        EXPECT_GT(fa.totalInjected() + fa.capacityLost, 0u);
    }
}

} // namespace

TEST(DeviceRuns, MatchPerChunkLoopsStepByStep)
{
    // The fault-free script, compared after every step.
    Device runs(smallDevice(64_MiB));
    Device loops(smallDevice(64_MiB));
    std::vector<Device::State> states;
    runScript({loops, false}, [&] { states.push_back(loops.saveState()); });
    std::size_t step = 0;
    Device replay(smallDevice(64_MiB));
    runScript({runs, true}, [&] {
        ASSERT_LT(step, states.size());
        replay.restoreState(states[step++]);
        expectSameDevice(runs, replay);
    });
    EXPECT_EQ(step, states.size());
}

TEST(DeviceRuns, OutOfMemoryStopsAtTheSameChunk)
{
    // The script's third step already runs out of memory part-way;
    // here the device (8 chunks) is too small for a 12-chunk run.
    for (const bool mapped : {true, false}) {
        Device runs(smallDevice(16_MiB));
        Device loops(smallDevice(16_MiB));
        Status results[2];
        for (const bool useRuns : {true, false}) {
            Device &dev = useRuns ? runs : loops;
            ChunkCalls calls{dev, useRuns};
            const auto va = dev.memAddressReserve(12 * 2_MiB);
            ASSERT_TRUE(va.ok());
            std::vector<PhysHandle> out(12, kNullHandle);
            results[useRuns ? 1 : 0] =
                mapped ? calls.createMap(*va, 2_MiB, out)
                       : calls.create(2_MiB, out).status;
        }
        EXPECT_EQ(results[1].code(), Errc::outOfMemory);
        EXPECT_EQ(results[0].code(), Errc::outOfMemory);
        EXPECT_EQ(results[1].error().message, results[0].error().message);
        expectSameDevice(runs, loops);
        EXPECT_EQ(runs.counters().create, 9u);
        EXPECT_EQ(runs.counters().map, mapped ? 8u : 0u);
    }
}

TEST(DeviceRuns, MatchPerChunkLoopsUnderFaultPlans)
{
    for (const char *plan :
         {"", "create:n=3", "create:n=17", "map:n=3", "map:n=14",
          "cap:t=20000,b=8M", "create:p=0.1;map:p=0.1",
          "create:n=2;cap:t=60000,b=20M"}) {
        expectRunsMatchLoops(plan);
    }
}

TEST(DeviceRuns, ZeroProbabilityPlanLeavesTheSameDevice)
{
    // An installed but silent injector makes the runs step chunk by
    // chunk; they must end where the batched runs end.
    Device plain(smallDevice(64_MiB));
    Device watched(smallDevice(64_MiB));
    const auto silent = vmm::FaultPlan::parse("create:p=0;map:p=0");
    watched.installFaultInjector(silent, 1);
    const auto a = runScript({plain, true}, [] {});
    const auto b = runScript({watched, true}, [] {});
    EXPECT_EQ(a, b);
    expectSameDevice(plain, watched);
}

TEST(DeviceRuns, RecorderSeesTheSameSpansAsTheLoops)
{
    auto deviceSpans = [](bool runs) {
        obs::Recorder recorder;
        recorder.activate();
        recorder.beginRun("runs");
        Device dev(smallDevice(64_MiB));
        runScript({dev, runs}, [] {});
        recorder.deactivate();
        std::vector<obs::Event> spans;
        for (const obs::Event &e : recorder.snapshot().events) {
            if (e.cat == obs::EventCat::device)
                spans.push_back(e);
        }
        return spans;
    };
    const auto loops = deviceSpans(false);
    const auto runs = deviceSpans(true);
    ASSERT_GT(loops.size(), 100u);
    ASSERT_EQ(runs.size(), loops.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE("span " + std::to_string(i));
        EXPECT_EQ(runs[i].name, loops[i].name);
        EXPECT_EQ(runs[i].kind, loops[i].kind);
        EXPECT_EQ(runs[i].simTime, loops[i].simTime);
        EXPECT_EQ(runs[i].dur, loops[i].dur);
        EXPECT_EQ(runs[i].a0, loops[i].a0);
        EXPECT_EQ(runs[i].a1, loops[i].a1);
        EXPECT_EQ(runs[i].a2, loops[i].a2);
    }
}

// ---------------------------------------------- memMapBatch vs loops

namespace
{

using MapBatch = std::vector<std::pair<VirtAddr, PhysHandle>>;

/** Chunk sizes of the batch: runs of equal sizes and size changes. */
constexpr Bytes kBatchSizes[] = {2_MiB, 2_MiB, 6_MiB, 2_MiB,
                                 6_MiB, 6_MiB, 6_MiB, 2_MiB};
/** Twice what the batch maps, so shifted targets stay inside. */
constexpr Bytes kBatchReserve = 64_MiB;

/**
 * Create one handle per kBatchSizes entry and a reservation, and lay
 * the handles back to back from its base. Identical calls on twin
 * devices give identical handles and addresses.
 */
MapBatch
mixedBatch(Device &dev)
{
    MapBatch batch;
    std::vector<PhysHandle> handles;
    for (const Bytes size : kBatchSizes)
        handles.push_back(*dev.memCreate(size));
    VirtAddr va = *dev.memAddressReserve(kBatchReserve);
    for (std::size_t i = 0; i < handles.size(); ++i) {
        batch.emplace_back(va, handles[i]);
        va += kBatchSizes[i];
    }
    return batch;
}

/** The loop memMapBatch stands for: memMap() until the first error. */
Status
mapLoop(Device &dev, const MapBatch &batch)
{
    for (const auto &[va, handle] : batch) {
        if (const Status s = dev.memMap(va, handle); !s.ok())
            return s;
    }
    return Status::success();
}

void
expectNothingMapped(const Device &dev, const MapBatch &batch)
{
    for (const auto &[va, handle] : batch) {
        (void)va;
        EXPECT_EQ(dev.phys().mapRefs(handle), 0u);
    }
}

} // namespace

TEST(DeviceMapBatch, MixedSizesMatchTheLoop)
{
    Device batched(smallDevice(64_MiB));
    Device looped(smallDevice(64_MiB));
    const MapBatch a = mixedBatch(batched);
    const MapBatch b = mixedBatch(looped);
    ASSERT_EQ(a, b);
    ASSERT_TRUE(batched.memMapBatch(a).ok());
    ASSERT_TRUE(mapLoop(looped, b).ok());
    expectSameDevice(batched, looped);
    EXPECT_EQ(batched.counters().map, a.size());
}

TEST(DeviceMapBatch, PerEntryFailureChargesLikeTheLoop)
{
    for (const bool stale : {true, false}) {
        for (const std::size_t k : {0u, 3u, 7u}) {
            SCOPED_TRACE(std::string(stale ? "stale" : "misaligned") +
                         " entry " + std::to_string(k));
            Device batched(smallDevice(64_MiB));
            Device looped(smallDevice(64_MiB));
            MapBatch batches[2];
            for (int side = 0; side < 2; ++side) {
                Device &dev = side == 0 ? batched : looped;
                MapBatch &batch = batches[side];
                batch = mixedBatch(dev);
                if (stale) {
                    const auto dead = dev.memCreate(4_MiB);
                    ASSERT_TRUE(dev.memRelease(*dead).ok());
                    batch[k].second = *dead;
                } else {
                    // Misaligned, but inside the reservation.
                    batch[k].first += 1_MiB;
                }
            }
            ASSERT_EQ(batches[0], batches[1]);
            const Status sa = batched.memMapBatch(batches[0]);
            const Status sb = mapLoop(looped, batches[1]);
            ASSERT_FALSE(sa.ok());
            ASSERT_FALSE(sb.ok());
            EXPECT_EQ(sa.code(), Errc::invalidValue);
            EXPECT_EQ(sa.code(), sb.code());
            EXPECT_EQ(sa.error().message, sb.error().message);
            EXPECT_EQ(batched.counters().map, k + 1);
            EXPECT_EQ(batched.counters().map, looped.counters().map);
            EXPECT_EQ(batched.counters().apiTime,
                      looped.counters().apiTime);
            EXPECT_EQ(batched.now(), looped.now());
            // Unlike the loop, the batch installs nothing.
            EXPECT_EQ(looped.mappings().mappingCount(), k);
            EXPECT_EQ(batched.mappings().mappingCount(), 0u);
            expectNothingMapped(batched, batches[0]);
        }
    }
}

TEST(DeviceMapBatch, WholeBatchFailureChargesEveryEntry)
{
    for (const bool overlap : {false, true}) {
        SCOPED_TRACE(overlap ? "overlap" : "outside the reservation");
        Device dev(smallDevice(64_MiB));
        MapBatch batch = mixedBatch(dev);
        if (overlap) {
            // An existing mapping under entry 3's target.
            const auto h = dev.memCreate(2_MiB);
            ASSERT_TRUE(dev.memMap(batch[3].first, *h).ok());
        } else {
            // The last target lies past the reservation's end.
            batch.back().first = batch.front().first + kBatchReserve;
        }
        Tick price = 0;
        for (const Bytes size : kBatchSizes)
            price += dev.costs().memMap(size);
        const vmm::ApiCounters before = dev.counters();
        const Tick t0 = dev.now();
        const std::size_t mapped = dev.mappings().mappingCount();

        const Status s = dev.memMapBatch(batch);
        EXPECT_EQ(s.code(),
                  overlap ? Errc::alreadyMapped : Errc::notReserved);
        EXPECT_EQ(dev.counters().map - before.map, batch.size());
        EXPECT_EQ(dev.counters().apiTime - before.apiTime, price);
        EXPECT_EQ(dev.now() - t0, price);
        EXPECT_EQ(dev.mappings().mappingCount(), mapped);
        expectNothingMapped(dev, batch);
    }
}
