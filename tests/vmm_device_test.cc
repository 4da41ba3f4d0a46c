/**
 * @file
 * Device facade tests: the CUDA-driver-like API surface, the native
 * cudaMalloc path, time charging and API counters, and the chunk-run
 * entry points and memMapBatch checked on twin devices against the
 * per-chunk call loops they stand for — fault-free, out of memory,
 * on bad entries and under fault plans — and the one span an obs
 * recorder gets per call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
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

/** One device entry-point call a script made. */
struct Call
{
    obs::EvName name;
    /** The chunk count a run's span must carry (runs only). */
    std::optional<std::uint64_t> chunks;
    Tick start = 0; //!< the clock before the call
    Tick end = 0;   //!< and after it
    bool failed = false;
};

/**
 * The device calls of a twin script, with the chunk-level ones either
 * as run entry points or as the per-chunk loops the allocators ran
 * before them (the create+map loop with allocPBlock's unwind). With
 * `made` set, every entry-point call is noted there in order.
 */
struct ChunkCalls
{
    Device &dev;
    bool runs;
    std::vector<Call> *made = nullptr;

    /** Make the call @p fn, which returns an ok()-able result. */
    template <class Fn>
    auto
    call(obs::EvName name, std::optional<std::uint64_t> chunks, Fn fn)
    {
        const Tick start = dev.now();
        auto result = fn();
        if (made != nullptr)
            made->push_back({name, chunks, start, dev.now(), !result.ok()});
        return result;
    }

    Expected<VirtAddr>
    reserve(Bytes size)
    {
        return call(obs::EvName::devAddressReserve, std::nullopt,
                    [&] { return dev.memAddressReserve(size); });
    }

    Status
    setAccess(VirtAddr va, Bytes size)
    {
        return call(obs::EvName::devSetAccess, std::nullopt,
                    [&] { return dev.memSetAccess(va, size); });
    }

    Status
    unmap(VirtAddr va, Bytes size)
    {
        return call(obs::EvName::devUnmap, std::nullopt,
                    [&] { return dev.memUnmap(va, size); });
    }

    Expected<PhysHandle>
    createOne(Bytes size)
    {
        return call(obs::EvName::devCreate, std::nullopt,
                    [&] { return dev.memCreate(size); });
    }

    Status
    releaseOne(PhysHandle handle)
    {
        return call(obs::EvName::devRelease, std::nullopt,
                    [&] { return dev.memRelease(handle); });
    }

    RunStatus
    create(Bytes size, std::span<PhysHandle> out)
    {
        if (runs) {
            return call(obs::EvName::devCreateRun, out.size(),
                        [&] { return dev.memCreateRun(size, out); });
        }
        RunStatus run;
        for (; run.done < out.size(); ++run.done) {
            const auto h = createOne(size);
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
        if (runs) {
            return call(obs::EvName::devReleaseRun, handles.size(),
                        [&] { return dev.memReleaseRun(handles); });
        }
        RunStatus run;
        for (; run.done < handles.size(); ++run.done) {
            run.status = releaseOne(handles[run.done]);
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
            call(obs::EvName::devUnmapReleaseRun, handles.size(), [&] {
                dev.memUnmapReleaseRun(va, size, handles);
                return Status::success();
            });
            return;
        }
        for (std::size_t j = 0; j < handles.size(); ++j) {
            ASSERT_TRUE(unmap(va + j * size, size).ok());
            ASSERT_TRUE(releaseOne(handles[j]).ok());
        }
    }

    Status
    createMap(VirtAddr va, Bytes size, std::span<PhysHandle> out)
    {
        if (runs) {
            return call(obs::EvName::devCreateMapRun, out.size(), [&] {
                return dev.memCreateMapRun(va, size, out);
            });
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            const auto h = createOne(size);
            if (!h.ok()) {
                unmapRelease(va, size, out.first(i));
                return h.error();
            }
            const Status s = call(obs::EvName::devMap, std::nullopt, [&] {
                return dev.memMap(va + i * size, *h);
            });
            if (!s.ok()) {
                unmapRelease(va, size, out.first(i));
                EXPECT_TRUE(releaseOne(*h).ok());
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
    const auto va = calls.reserve(40 * 2_MiB);
    EXPECT_TRUE(va.ok());

    std::vector<PhysHandle> block(12, kNullHandle);
    Status s = calls.createMap(*va, 2_MiB, block);
    log.push_back(std::string("createMap ") + errcName(s.code()));
    if (s.ok())
        s = calls.setAccess(*va, 12 * 2_MiB);
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
        EXPECT_TRUE(calls.unmap(*va, 12 * 2_MiB).ok());
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

/**
 * Rounds of 5-chunk runs on a 3-chunk device, create+map and plain
 * creates in turn: a run that gets past its fault draws runs out of
 * memory at its fourth chunk. The log keeps each error's message, so
 * an injected stop and an organic one cannot pass for each other.
 */
std::vector<std::string>
tightScript(ChunkCalls calls, const std::function<void()> &check)
{
    std::vector<std::string> log;
    const auto va = calls.reserve(5 * 2_MiB);
    EXPECT_TRUE(va.ok());
    auto text = [](const Status &s) {
        return s.ok() ? std::string("ok") : s.error().message;
    };
    for (int round = 0; round < 24; ++round) {
        std::vector<PhysHandle> chunks(5, kNullHandle);
        if (round % 2 == 0) {
            log.push_back("createMap " +
                          text(calls.createMap(*va, 2_MiB, chunks)));
        } else {
            const RunStatus r = calls.create(2_MiB, chunks);
            log.push_back("create " + std::to_string(r.done) + " " +
                          text(r.status));
            EXPECT_TRUE(calls.release(std::span(chunks).first(r.done))
                            .ok());
        }
        check();
    }
    return log;
}

using Script = std::vector<std::string> (*)(
    ChunkCalls, const std::function<void()> &);

/** A fault plan and the script and device size it runs with. */
struct FaultCase
{
    std::string plan;
    Script script = runScript;
    Bytes capacity = 64_MiB;
};

/**
 * The plans the twin tests run: fault-free; n= faults on creates and
 * maps, most of them inside a multi-chunk run; random create and map
 * faults, also on a device that keeps running out of memory
 * organically; capacity losses, one falling due inside runScript's
 * first create+map run and one larger than all free memory, whose
 * debt stays pending across later runs.
 */
std::vector<FaultCase>
faultCases()
{
    // runScript starts with a reservation, then its first run builds
    // 12 chunks; chunk k checks for a due loss after its create, at
    // reserve + k * (create + map) + create.
    const Device probe(smallDevice(64_MiB));
    const Tick reserve = probe.costs().memAddressReserve(40 * 2_MiB);
    const Tick create = probe.costs().memCreate(2_MiB);
    const Tick map = probe.costs().memMap(2_MiB);
    auto dueAtChunk = [&](Tick k) {
        return std::to_string(reserve + k * (create + map) + create);
    };
    return {
        {""},
        {"create:n=3"},
        {"create:n=17"},
        {"create:n=25"},
        {"map:n=3"},
        {"map:n=14"},
        {"map:n=20"},
        {"create:n=5;map:n=9"},
        {"cap:t=20000,b=8M"},
        {"create:p=0.1;map:p=0.1"},
        {"create:n=2;cap:t=60000,b=20M"},
        {"cap:t=" + dueAtChunk(5) + ",b=8M"},
        {"cap:t=" + dueAtChunk(3) + ",b=60M"},
        {"create:p=0.3;map:p=0.2", tightScript, 6_MiB},
    };
}

/**
 * One side of a twin run: its device, what the script logged and the
 * device calls it made.
 */
struct Side
{
    std::unique_ptr<Device> dev;
    std::vector<std::string> log;
    std::vector<Call> calls;
    /** Device spans, when the side ran under a recorder. */
    std::vector<obs::Event> spans;
};

/** Run @p fc with runs or with loops, optionally under a recorder. */
Side
runSide(const FaultCase &fc, bool runs, bool record)
{
    Side side;
    side.dev = std::make_unique<Device>(smallDevice(fc.capacity));
    if (!fc.plan.empty())
        side.dev->installFaultInjector(vmm::FaultPlan::parse(fc.plan), 7);
    obs::Recorder recorder;
    if (record) {
        recorder.activate();
        recorder.beginRun("runs");
    }
    side.log = fc.script({*side.dev, runs, &side.calls}, [] {});
    if (!record)
        return side;
    recorder.deactivate();
    for (const obs::Event &e : recorder.snapshot().events) {
        if (e.cat == obs::EventCat::device)
            side.spans.push_back(e);
    }
    return side;
}

/** Run @p fc on twins, one with runs and one with loops. */
std::vector<std::string>
expectRunsMatchLoops(const FaultCase &fc)
{
    SCOPED_TRACE("plan '" + fc.plan + "'");
    const Side loops = runSide(fc, false, false);
    const Side runs = runSide(fc, true, false);
    EXPECT_EQ(runs.log, loops.log);
    expectSameDevice(*runs.dev, *loops.dev);
    if (!fc.plan.empty()) {
        const auto &fa = runs.dev->faultInjector()->counters();
        const auto &fb = loops.dev->faultInjector()->counters();
        EXPECT_EQ(fa.calls, fb.calls);
        EXPECT_EQ(fa.injected, fb.injected);
        EXPECT_EQ(fa.capacityLost, fb.capacityLost);
        // Every create and map call the device counted drew its fate
        // once, a failing one included (the scripts make no batch
        // maps): the loop itself is held to the per-call contract.
        const auto drawn = [&](vmm::FaultApi api) {
            return fb.calls[static_cast<std::size_t>(api)];
        };
        EXPECT_EQ(drawn(vmm::FaultApi::memCreate),
                  loops.dev->counters().create);
        EXPECT_EQ(drawn(vmm::FaultApi::memMap),
                  loops.dev->counters().map);
        // Every plan bites: a fault fired or capacity went missing.
        EXPECT_GT(fa.totalInjected() + fa.capacityLost, 0u);
    }
    return runs.log;
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
    for (const FaultCase &fc : faultCases())
        expectRunsMatchLoops(fc);
}

TEST(DeviceRuns, FaultDrawsStopAtAnOrganicOutOfMemory)
{
    // Runs that pass their draws stop organically; both kinds of run
    // must also stop on injected faults, so the plan really draws.
    const FaultCase tight = faultCases().back();
    ASSERT_EQ(tight.script, tightScript);
    const auto log = expectRunsMatchLoops(tight);
    std::size_t organic[2] = {0, 0};
    std::size_t injected[2] = {0, 0};
    for (const std::string &line : log) {
        const std::size_t kind = line.starts_with("createMap") ? 0 : 1;
        organic[kind] += line.find("no contiguous space") !=
                         std::string::npos;
        injected[kind] += line.find("injected") != std::string::npos;
    }
    for (std::size_t kind : {0, 1}) {
        EXPECT_GT(organic[kind], 0u) << kind;
        EXPECT_GT(injected[kind], 0u) << kind;
    }
}

TEST(DeviceRuns, ZeroProbabilityPlanLeavesTheSameDevice)
{
    // An installed but silent injector still draws for every call;
    // the runs must end where the unwatched runs end.
    Device plain(smallDevice(64_MiB));
    Device watched(smallDevice(64_MiB));
    const auto silent = vmm::FaultPlan::parse("create:p=0;map:p=0");
    watched.installFaultInjector(silent, 1);
    const auto a = runScript({plain, true}, [] {});
    const auto b = runScript({watched, true}, [] {});
    EXPECT_EQ(a, b);
    expectSameDevice(plain, watched);
}

TEST(DeviceRuns, EveryCallWritesOneSpanOverWhatItCharged)
{
    for (const FaultCase &fc : faultCases()) {
        SCOPED_TRACE("plan '" + fc.plan + "'");
        const Side loops = runSide(fc, false, true);
        const Side runs = runSide(fc, true, true);
        EXPECT_EQ(runs.log, loops.log);
        // The scripts charge the clock only through their calls, so
        // on either twin the spans tile the device's API time.
        const Tick apiTime = runs.dev->counters().apiTime;
        for (const Side *side : {&runs, &loops}) {
            SCOPED_TRACE(side == &runs ? "runs" : "loops");
            ASSERT_FALSE(side->calls.empty());
            ASSERT_EQ(side->spans.size(), side->calls.size());
            Tick sum = 0;
            for (std::size_t i = 0; i < side->spans.size(); ++i) {
                SCOPED_TRACE("call " + std::to_string(i));
                const obs::Event &span = side->spans[i];
                const Call &call = side->calls[i];
                EXPECT_EQ(span.kind, obs::EventKind::span);
                EXPECT_EQ(span.name, call.name);
                EXPECT_EQ(span.simTime, call.start);
                EXPECT_EQ(span.dur, call.end - call.start);
                EXPECT_EQ(span.a1 != 0, call.failed);
                if (call.chunks) {
                    EXPECT_EQ(span.a0, *call.chunks);
                }
                sum += span.dur;
            }
            EXPECT_EQ(sum, apiTime);
        }
        // The loops make single calls only: one span per counted call.
        const auto spansOf = [&](obs::EvName name) {
            return static_cast<std::uint64_t>(std::ranges::count(
                loops.spans, name, &obs::Event::name));
        };
        const vmm::ApiCounters &calls = loops.dev->counters();
        EXPECT_EQ(spansOf(obs::EvName::devCreate), calls.create);
        EXPECT_EQ(spansOf(obs::EvName::devMap), calls.map);
        EXPECT_EQ(spansOf(obs::EvName::devUnmap), calls.unmap);
        EXPECT_EQ(spansOf(obs::EvName::devRelease), calls.release);
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
