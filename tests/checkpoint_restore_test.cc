/**
 * @file
 * Checkpoint/restore equivalence: a run split at a virtual-time
 * threshold — warmup replay, Allocator::saveState(), restore into a
 * fresh device + allocator, seeded tail replay — must leave final
 * state bit-identical to the uninterrupted run, for every allocator
 * kind. This is the invariant the sweep harness (sim/sweep.hh)
 * builds on: a warm-started sweep point is exactly a full re-replay,
 * minus the shared prefix's wall time.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc/allocator.hh"
#include "alloc/checkpoint.hh"
#include "alloc/snapshot.hh"
#include "core/gmlake_allocator.hh"
#include "sim/runner.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"
#include "support/units.hh"
#include "vmm/fault_injector.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;

namespace
{

// ---------------------------------------------- final-state digest

void
fnv(std::uint64_t &hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (i * 8)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

/**
 * FNV-1a over everything deterministic the run leaves behind: the
 * allocator's accounting, the device clock and simulated API
 * counters, the largest free physical extent, and the full block
 * inventory. The host wall-time counter (vmmWallNs) is excluded —
 * it measures the simulator, not the simulation.
 */
std::uint64_t
finalStateDigest(const alloc::Allocator &allocator,
                 const vmm::Device &device)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto stats = allocator.stats().capture();
    fnv(hash, stats.active);
    fnv(hash, stats.reserved);
    fnv(hash, stats.peakActive);
    fnv(hash, stats.peakReserved);
    fnv(hash, stats.allocCount);
    fnv(hash, stats.freeCount);

    fnv(hash, device.now());
    fnv(hash, device.largestFreeExtent());
    const auto &c = device.counters();
    fnv(hash, c.addressReserve);
    fnv(hash, c.addressFree);
    fnv(hash, c.create);
    fnv(hash, c.release);
    fnv(hash, c.map);
    fnv(hash, c.unmap);
    fnv(hash, c.setAccess);
    fnv(hash, c.mallocNative);
    fnv(hash, c.freeNative);
    fnv(hash, c.copyStallNs);
    fnv(hash, c.apiTime);

    const alloc::MemorySnapshot snap = allocator.snapshot();
    fnv(hash, snap.activeBytes);
    fnv(hash, snap.reservedBytes);
    fnv(hash, snap.regions.size());
    for (const alloc::RegionSnapshot &region : snap.regions) {
        for (const char ch : region.kind)
            fnv(hash, static_cast<std::uint64_t>(ch));
        fnv(hash, region.base);
        fnv(hash, region.size);
        fnv(hash, region.blocks.size());
        for (const alloc::BlockSnapshot &block : region.blocks) {
            fnv(hash, block.addr);
            fnv(hash, block.size);
            fnv(hash, block.allocated ? 1 : 0);
            fnv(hash, block.stream);
        }
    }
    return hash;
}

// --------------------------------------------------- run harnesses

/** The straight run: every session replayed start to finish. */
std::uint64_t
straightDigest(const SweepScenario &scenario, AllocatorKind kind)
{
    Rig rig(kind, scenario.rigOptions());
    rig.run(borrowSessions(scenario.tenants));
    return finalStateDigest(rig.allocator(), rig.device());
}

struct WarmupCapture
{
    alloc::Checkpoint checkpoint;
    std::shared_ptr<const ResumeState> resume;
    bool anyOom = false;
};

WarmupCapture
runWarmup(const SweepScenario &scenario, AllocatorKind kind,
          const std::vector<Tenant> &warmupTenants)
{
    ScenarioOptions options = scenario.rigOptions();
    options.engine.captureResume = true;
    Rig rig(kind, options);
    const MultiRunResult multi = rig.run(borrowSessions(warmupTenants));
    EXPECT_NE(multi.resume, nullptr);
    return WarmupCapture{rig.allocator().saveState(), multi.resume,
                         multi.anyOom()};
}

/**
 * Restore @p warmup into @p allocator (fresh or dirty) and replay
 * the tail on @p device.
 */
std::uint64_t
restoredTailDigest(const std::vector<Tenant> &tailTenants,
                   const WarmupCapture &warmup,
                   alloc::Allocator &allocator, vmm::Device &device)
{
    allocator.restoreState(warmup.checkpoint);
    // The restored books (for gmlake: the pools, the recency lists
    // and every block's own index nodes) pass the audit before and
    // after the tail replays on them.
    allocator.auditInvariants();
    EngineOptions options;
    options.recordSeries = false;
    options.resume = warmup.resume;
    SimEngine engine(allocator, device, options);
    for (Session &session : borrowSessions(tailTenants))
        engine.addSession(std::move(session));
    engine.run();
    allocator.auditInvariants();
    return finalStateDigest(allocator, device);
}

std::uint64_t
splitDigest(const SweepScenario &scenario, AllocatorKind kind)
{
    const auto [warmupTenants, tailTenants] =
        splitTenantsAt(scenario.tenants, scenario.splitTime);
    const WarmupCapture warmup =
        runWarmup(scenario, kind, warmupTenants);
    Rig rig(kind, scenario.rigOptions());
    return restoredTailDigest(tailTenants, warmup, rig.allocator(),
                              rig.device());
}

// ------------------------------------------------------------ tests

/**
 * The core equivalence, for every allocator kind: checkpoint at the
 * split, restore into a fresh allocator, replay the tail — final
 * state digests match the uninterrupted run bit for bit.
 */
TEST(CheckpointRestore, SplitRunMatchesStraightRunAllKinds)
{
    const SweepScenario scenario =
        buildSweepScenario("smoke", 42, 2);
    for (const AllocatorKind kind : allAllocatorKinds()) {
        EXPECT_EQ(straightDigest(scenario, kind),
                  splitDigest(scenario, kind))
            << "allocator kind: " << allocatorKindName(kind);
    }
}

/** A different seed and a later split keep the equivalence. */
TEST(CheckpointRestore, EquivalenceHoldsAcrossSeedsAndSplits)
{
    for (const std::uint64_t seed : {7ULL, 1234ULL}) {
        SweepScenario scenario =
            buildSweepScenario("smoke", seed, 2);
        scenario.splitTime = scenario.splitTime / 3;
        for (const AllocatorKind kind :
             {AllocatorKind::gmlake, AllocatorKind::caching}) {
            EXPECT_EQ(straightDigest(scenario, kind),
                      splitDigest(scenario, kind))
                << "seed " << seed << ", kind "
                << allocatorKindName(kind);
        }
    }
}

/**
 * One checkpoint, many restores: the sweep restores the same
 * immutable Checkpoint into every point's allocator. Two restores +
 * tail replays from one capture must agree with each other and with
 * the straight run.
 */
TEST(CheckpointRestore, DoubleRestoreFromOneCheckpoint)
{
    const SweepScenario scenario =
        buildSweepScenario("smoke", 42, 2);
    const auto [warmupTenants, tailTenants] =
        splitTenantsAt(scenario.tenants, scenario.splitTime);
    const WarmupCapture warmup =
        runWarmup(scenario, AllocatorKind::gmlake, warmupTenants);

    std::uint64_t digests[2];
    for (auto &digest : digests) {
        Rig rig(AllocatorKind::gmlake, scenario.rigOptions());
        digest = restoredTailDigest(tailTenants, warmup,
                                    rig.allocator(), rig.device());
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0],
              straightDigest(scenario, AllocatorKind::gmlake));
}

/**
 * Restoring into a *dirty* allocator (one that already replayed
 * unrelated work) must wipe its state wholesale: the tail digest
 * matches the fresh-restore digest exactly.
 */
TEST(CheckpointRestore, RestoreIntoDirtyAllocator)
{
    const SweepScenario scenario =
        buildSweepScenario("smoke", 42, 2);
    const auto [warmupTenants, tailTenants] =
        splitTenantsAt(scenario.tenants, scenario.splitTime);
    const WarmupCapture warmup =
        runWarmup(scenario, AllocatorKind::gmlake, warmupTenants);

    Rig fresh(AllocatorKind::gmlake, scenario.rigOptions());
    const std::uint64_t freshDigest = restoredTailDigest(
        tailTenants, warmup, fresh.allocator(), fresh.device());

    // Dirty the second allocator with an unrelated replay first;
    // restoreState must replace every trace of it.
    Rig dirty(AllocatorKind::gmlake, scenario.rigOptions());
    const SweepScenario other = buildSweepScenario("smoke", 99, 2);
    dirty.run({Session("noise", &other.tenants[0].trace, 0)});
    EXPECT_EQ(freshDigest,
              restoredTailDigest(tailTenants, warmup,
                                 dirty.allocator(), dirty.device()));
}

/**
 * A checkpoint taken after a tenant OOM-killed during the warmup is
 * still resumable: the dead session is seeded dead (replays
 * nothing), survivors replay on, and the split run stays
 * bit-identical to the straight run in which the same tenant dies
 * at the same instant.
 */
TEST(CheckpointRestore, RestoreAfterWarmupOom)
{
    SweepScenario scenario = buildSweepScenario("smoke", 42, 2);
    // Squeeze the device until a tenant dies inside the warmup
    // prefix (both tenants are ~7 GiB peak on 16 GiB by default).
    scenario.device.capacity = 5_GiB;

    const auto [warmupTenants, tailTenants] =
        splitTenantsAt(scenario.tenants, scenario.splitTime);
    const WarmupCapture warmup =
        runWarmup(scenario, AllocatorKind::gmlake, warmupTenants);
    ASSERT_TRUE(warmup.anyOom)
        << "expected a warmup-phase OOM at 5 GiB; adjust capacity";
    bool anyDead = false;
    for (const SessionSeed &seed : warmup.resume->sessions)
        anyDead = anyDead || seed.dead;
    ASSERT_TRUE(anyDead);

    Rig rig(AllocatorKind::gmlake, scenario.rigOptions());
    EXPECT_EQ(straightDigest(scenario, AllocatorKind::gmlake),
              restoredTailDigest(tailTenants, warmup, rig.allocator(),
                                 rig.device()));
}

/**
 * Fault-injection recovery through a checkpoint: the checkpoint is
 * taken just before an injected device fault makes an allocation
 * fail (the fault plan defeats the reclaim-ladder retry too), and
 * restoring it — after clearing the injector — replays to a state
 * bit-identical to a run that never saw the fault.
 */
TEST(CheckpointRestore, RestoreFromCheckpointTakenBeforeInjectedFault)
{
    vmm::DeviceConfig devCfg;
    devCfg.capacity = 256_MiB;
    core::GMLakeConfig lakeCfg;
    lakeCfg.nearMatchTolerance = 0.0;
    lakeCfg.fragLimit = 2_MiB;

    // Warm state both runs share: one live block, one cached block.
    const auto warm = [&](alloc::Allocator &allocator) {
        const auto held = allocator.allocate(8_MiB);
        const auto cached = allocator.allocate(8_MiB);
        EXPECT_TRUE(held.ok() && cached.ok());
        EXPECT_TRUE(allocator.deallocate(cached->id).ok());
        return held->id;
    };

    // Control: the fault never happens.
    vmm::Device controlDevice(devCfg);
    core::GMLakeAllocator control(controlDevice, lakeCfg);
    warm(control);
    ASSERT_TRUE(control.allocate(32_MiB).ok());
    const std::uint64_t cleanDigest =
        finalStateDigest(control, controlDevice);

    // Faulted run: checkpoint, then both memCreate attempts of the
    // 32 MiB allocation fail (ordinal 1 on the first try, ordinal 2
    // on the post-releaseCached retry), so the allocation fails for
    // real and the reclaim ladder empties the cache on the way.
    vmm::Device device(devCfg);
    core::GMLakeAllocator lake(device, lakeCfg);
    warm(lake);
    const alloc::Checkpoint checkpoint = lake.saveState();

    vmm::FaultPlan plan;
    plan.rule(vmm::FaultApi::memCreate).nthCalls = {1, 2};
    plan.rule(vmm::FaultApi::memCreate).code = Errc::outOfMemory;
    device.installFaultInjector(std::move(plan), 17);
    const auto faulted = lake.allocate(32_MiB);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.error().code, Errc::outOfMemory);
    lake.auditInvariants();

    // Recovery: drop the injector, restore the pre-fault checkpoint,
    // and redo the allocation — indistinguishable from the control.
    device.clearFaultInjector();
    lake.restoreState(checkpoint);
    lake.auditInvariants();
    ASSERT_TRUE(lake.allocate(32_MiB).ok());
    EXPECT_EQ(finalStateDigest(lake, device), cleanDigest);
}

} // namespace
