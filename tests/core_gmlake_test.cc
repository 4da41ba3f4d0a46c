/**
 * @file
 * GMLake allocator tests: the stitching mechanism, the allocation
 * strategy states of Fig 9, deallocation-as-update, StitchFree LRU,
 * the small-allocation path and the OOM fallback, the heap traffic of
 * the S1 hot path, and the S1 exact-match choices against a scan
 * model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <utility>
#include <vector>

#include "alloc/checkpoint.hh"
#include "core/gmlake_allocator.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;
using core::GMLakeAllocator;
using core::GMLakeConfig;

// ------------------------------------------- heap-allocation counter

namespace
{

/** Calls of the global operator new in this binary. */
std::atomic<std::uint64_t> gHeapAllocs{0};

void *
countedMalloc(std::size_t size) noexcept
{
    gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}

// Out of line: inlined into an operator delete, its free() would meet
// an operator new result at the call site and trip
// -Wmismatched-new-delete.
[[gnu::noinline]] void
heapFree(void *p) noexcept
{
    std::free(p);
}

} // namespace

// Every replaceable non-aligned form, so each block allocated here is
// also freed here (a sanitizer runtime pairs its own forms).
void *
operator new(std::size_t size)
{
    if (void *p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}
void *operator new[](std::size_t size) { return ::operator new(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}
void operator delete(void *p) noexcept { heapFree(p); }
void operator delete[](void *p) noexcept { heapFree(p); }
void operator delete(void *p, std::size_t) noexcept { heapFree(p); }
void operator delete[](void *p, std::size_t) noexcept { heapFree(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    heapFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    heapFree(p);
}

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity = 256_MiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

GMLakeConfig
tightConfig()
{
    GMLakeConfig cfg;
    cfg.nearMatchTolerance = 0.0; // exact behaviour for unit tests
    cfg.fragLimit = 2_MiB;
    return cfg;
}

} // namespace

TEST(GMLake, FirstAllocationCreatesPBlock)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(10_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(lake.strategy().s4Insufficient, 1u);
    EXPECT_EQ(lake.pBlockCount(), 1u);
    EXPECT_EQ(lake.physicalBytes(), 10_MiB);
    EXPECT_EQ(dev.phys().inUse(), 10_MiB);
    lake.checkConsistency();
}

TEST(GMLake, RoundsToChunkSize)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(5_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(lake.physicalBytes(), 6_MiB);
    EXPECT_EQ(lake.stats().activeBytes(), 6_MiB);
    lake.checkConsistency();
}

TEST(GMLake, DeallocationKeepsPhysicalMemory)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(10_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    // Update only flips the state; nothing returns to the device.
    EXPECT_EQ(lake.physicalBytes(), 10_MiB);
    EXPECT_EQ(lake.stats().activeBytes(), 0u);
    EXPECT_EQ(lake.inactivePBlockCount(), 1u);
    lake.checkConsistency();
}

TEST(GMLake, ExactMatchReusesBlock)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(10_MiB);
    ASSERT_TRUE(a.ok());
    const VirtAddr addr = a->addr;
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    const auto b = lake.allocate(10_MiB);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->addr, addr);
    EXPECT_EQ(lake.strategy().s1ExactMatch, 1u);
    EXPECT_EQ(lake.physicalBytes(), 10_MiB);
    lake.checkConsistency();
}

TEST(GMLake, StitchingFusesNonContiguousBlocks)
{
    // The Figure 1 scenario: two freed blocks serve one bigger
    // tensor without growing physical memory.
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(12_MiB);
    const auto b = lake.allocate(4_MiB);   // keeps a and c apart
    const auto c = lake.allocate(8_MiB);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(c->id).ok());

    const Bytes before = lake.physicalBytes();
    const auto big = lake.allocate(20_MiB);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(lake.physicalBytes(), before); // no new physical memory
    EXPECT_EQ(lake.strategy().s3MultiBlocks, 1u);
    EXPECT_GE(lake.strategy().stitches, 1u);
    EXPECT_EQ(lake.sBlockCount(), 1u);
    lake.checkConsistency();
}

TEST(GMLake, StitchedBlockIsReusedOnRepeat)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(12_MiB);
    const auto b = lake.allocate(4_MiB);
    const auto c = lake.allocate(8_MiB);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(c->id).ok());

    const auto big1 = lake.allocate(20_MiB);
    ASSERT_TRUE(big1.ok());
    const VirtAddr addr = big1->addr;
    ASSERT_TRUE(lake.deallocate(big1->id).ok());

    // Second time around: exact sBlock match, no new stitch.
    const std::uint64_t stitchesBefore = lake.strategy().stitches;
    const auto big2 = lake.allocate(20_MiB);
    ASSERT_TRUE(big2.ok());
    EXPECT_EQ(big2->addr, addr);
    EXPECT_EQ(lake.strategy().stitches, stitchesBefore);
    lake.checkConsistency();
}

TEST(GMLake, SplitServesSmallerRequest)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(20_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());

    const auto b = lake.allocate(8_MiB);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(lake.strategy().s2SingleBlock, 1u);
    EXPECT_GE(lake.strategy().splits, 1u);
    EXPECT_EQ(lake.physicalBytes(), 20_MiB); // no growth
    // The remainder is available for another request.
    const auto c = lake.allocate(12_MiB);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(lake.physicalBytes(), 20_MiB);
    lake.checkConsistency();
}

TEST(GMLake, RestitchAfterSplitPreservesOriginalSize)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(20_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());

    const auto b = lake.allocate(8_MiB);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(lake.deallocate(b->id).ok());

    // The original 20 MiB pattern still finds an exact (stitched)
    // match even though the pBlock was split.
    const Bytes before = lake.physicalBytes();
    const auto again = lake.allocate(20_MiB);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(lake.physicalBytes(), before);
    EXPECT_EQ(lake.strategy().s1ExactMatch, 1u);
    lake.checkConsistency();
}

TEST(GMLake, SBlockIneligibleWhileMemberActive)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(12_MiB);
    const auto spacer = lake.allocate(4_MiB);
    const auto c = lake.allocate(8_MiB);
    ASSERT_TRUE(a.ok() && spacer.ok() && c.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(c->id).ok());

    const auto big = lake.allocate(20_MiB); // stitches a+c
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(lake.deallocate(big->id).ok());

    // Take one member directly: the cached 20 MiB sBlock must not
    // serve a new request while its member is in use.
    const auto member = lake.allocate(12_MiB);
    ASSERT_TRUE(member.ok());
    const Bytes before = lake.physicalBytes();
    const auto big2 = lake.allocate(20_MiB);
    ASSERT_TRUE(big2.ok());
    EXPECT_GT(lake.physicalBytes(), before); // had to grow
    lake.checkConsistency();
}

TEST(GMLake, NearMatchHandsOutWholeBlock)
{
    GMLakeConfig cfg;
    cfg.fragLimit = 2_MiB;
    cfg.nearMatchTolerance = 0.25;
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, cfg);
    const auto a = lake.allocate(20_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());

    // 18 MiB is within 25% of 20 MiB: whole-block hand-out, no split.
    const auto b = lake.allocate(18_MiB);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(lake.strategy().s1ExactMatch, 1u);
    EXPECT_EQ(lake.strategy().splits, 0u);
    EXPECT_EQ(lake.stats().activeBytes(), 20_MiB); // whole block
    lake.checkConsistency();
}

TEST(GMLake, HugeScaleKnobsSaturate)
{
    // Both double knobs are bounded only to finite and >= 0. At 1e300
    // the VA cap and the near-match slack overflow Bytes and must
    // saturate (an unbounded cap; slack clamped to kNearMatchSlackCap)
    // instead of casting out of range.
    GMLakeConfig cfg;
    cfg.fragLimit = 2_MiB;
    cfg.nearMatchTolerance = 1e300;
    cfg.maxVaOverscribe = 1e300;
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, cfg);
    const auto a = lake.allocate(8_MiB);
    const auto b = lake.allocate(8_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(b->id).ok());

    // No single block within 64 MiB of slack: stitch both.
    const auto big = lake.allocate(16_MiB);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(lake.strategy().s3MultiBlocks, 1u);
    ASSERT_TRUE(lake.deallocate(big->id).ok());

    // 10 MiB is within the saturated slack of the 16 MiB sBlock.
    const auto near = lake.allocate(10_MiB);
    ASSERT_TRUE(near.ok());
    EXPECT_EQ(lake.strategy().s1ExactMatch, 1u);
    EXPECT_EQ(lake.stats().activeBytes(), 16_MiB);
    lake.checkConsistency();
}

TEST(GMLake, SmallRequestsUseSplittingPath)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(64_KiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(lake.strategy().smallPath, 1u);
    EXPECT_EQ(lake.pBlockCount(), 0u); // no VMS involvement
    // Reserved memory reflects the small pool's segment.
    EXPECT_EQ(lake.stats().reservedBytes(), 2_MiB);
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    EXPECT_EQ(lake.stats().activeBytes(), 0u);
    lake.checkConsistency();
}

TEST(GMLake, StitchFreeEvictsLruSBlocks)
{
    GMLakeConfig cfg = tightConfig();
    cfg.maxCachedSBlocks = 2;
    vmm::Device dev(smallDevice(512_MiB));
    GMLakeAllocator lake(dev, cfg);

    // Manufacture several distinct stitched blocks.
    for (int round = 0; round < 4; ++round) {
        const Bytes sz = (10 + 2 * round) * 1_MiB;
        const auto a = lake.allocate(sz);
        const auto sp = lake.allocate(2_MiB);
        const auto b = lake.allocate(sz + 2_MiB);
        ASSERT_TRUE(a.ok() && sp.ok() && b.ok());
        ASSERT_TRUE(lake.deallocate(a->id).ok());
        ASSERT_TRUE(lake.deallocate(b->id).ok());
        const auto big = lake.allocate(2 * sz + 2_MiB);
        ASSERT_TRUE(big.ok());
        ASSERT_TRUE(lake.deallocate(big->id).ok());
        ASSERT_TRUE(lake.deallocate(sp->id).ok());
    }
    // The cache got trimmed along the way.
    EXPECT_GT(lake.strategy().stitchFrees, 0u);
    lake.checkConsistency();
}

TEST(GMLake, EmptyCacheReturnsPhysicalMemory)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(20_MiB);
    const auto b = lake.allocate(10_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    lake.emptyCache();
    EXPECT_EQ(lake.physicalBytes(), 10_MiB); // only b remains
    EXPECT_EQ(dev.phys().inUse(), 10_MiB);
    EXPECT_EQ(lake.stats().reservedBytes(), 10_MiB);
    lake.checkConsistency();
}

TEST(GMLake, OomFallbackReleasesCacheAndRetries)
{
    vmm::Device dev(smallDevice(64_MiB));
    GMLakeAllocator lake(dev, tightConfig());
    // Fill the device, free everything, then ask for a block that
    // can be served by stitching the cached blocks.
    const auto a = lake.allocate(30_MiB);
    const auto b = lake.allocate(30_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(b->id).ok());
    const auto big = lake.allocate(60_MiB);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(lake.physicalBytes(), 60_MiB);
    lake.checkConsistency();
}

TEST(GMLake, HardOomReported)
{
    vmm::Device dev(smallDevice(32_MiB));
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(20_MiB);
    ASSERT_TRUE(a.ok());
    const auto b = lake.allocate(20_MiB);
    EXPECT_EQ(b.code(), Errc::outOfMemory);
    EXPECT_EQ(lake.strategy().s5Oom, 1u);
    lake.checkConsistency();
}

TEST(GMLake, S4StitchesPartialCandidatesWithFreshBlock)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    const auto a = lake.allocate(8_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());

    // 20 MiB needs 12 MiB of new memory stitched with the cached 8.
    const auto big = lake.allocate(20_MiB);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(lake.physicalBytes(), 20_MiB);
    EXPECT_EQ(lake.strategy().s4Insufficient, 2u); // first alloc + this
    EXPECT_EQ(lake.sBlockCount(), 1u);
    lake.checkConsistency();
}

TEST(GMLake, StitchingDisabledFallsBackToWholeAllocations)
{
    GMLakeConfig cfg = tightConfig();
    cfg.enableStitching = false;
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, cfg);
    const auto a = lake.allocate(12_MiB);
    const auto sp = lake.allocate(4_MiB);
    const auto c = lake.allocate(8_MiB);
    ASSERT_TRUE(a.ok() && sp.ok() && c.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(c->id).ok());
    const auto big = lake.allocate(20_MiB);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(lake.strategy().stitches, 0u);
    // Without stitching the allocator had to grow.
    EXPECT_EQ(lake.physicalBytes(), 44_MiB);
    lake.checkConsistency();
}

TEST(GMLake, UnknownIdRejected)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    EXPECT_EQ(lake.deallocate(99).code(), Errc::invalidValue);
}

TEST(GMLake, ZeroByteRejected)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    EXPECT_EQ(lake.allocate(0).code(), Errc::invalidValue);
}

TEST(GMLake, ReservedNeverBelowActive)
{
    vmm::Device dev(smallDevice(1_GiB));
    GMLakeAllocator lake(dev, tightConfig());
    std::vector<alloc::AllocId> live;
    std::uint64_t x = 1234;
    auto rnd = [&x]() {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 1500; ++i) {
        if (live.empty() || rnd() % 3 != 0) {
            const Bytes size = 1_MiB + rnd() % (24_MiB);
            const auto a = lake.allocate(size);
            if (!a.ok()) {
                ASSERT_EQ(a.code(), Errc::outOfMemory);
                for (std::size_t k = 0; k < live.size() / 2; ++k)
                    ASSERT_TRUE(lake.deallocate(live[k]).ok());
                live.erase(live.begin(),
                           live.begin() + static_cast<std::ptrdiff_t>(
                                              live.size() / 2));
                continue;
            }
            live.push_back(a->id);
        } else {
            const std::size_t idx = rnd() % live.size();
            ASSERT_TRUE(lake.deallocate(live[idx]).ok());
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        }
        EXPECT_GE(lake.stats().reservedBytes(),
                  lake.stats().activeBytes());
        if (i % 250 == 0)
            lake.checkConsistency();
    }
    lake.checkConsistency();
}

TEST(GMLakeAllocator, SteadyStateChurnRecyclesBlockNodes)
{
    // The stitch/free hot path must not construct block metadata:
    // after warmup, every pBlock/sBlock node comes from the slab
    // pool freelist (created() stands still, reused() advances).
    vmm::Device dev(smallDevice());
    GMLakeConfig gc = tightConfig();
    gc.restitchOnSplit = false;
    gc.maxCachedSBlocks = 0; // evict before every search: always re-stitch
    GMLakeAllocator lake(dev, gc);

    // Two cached fragments serve one double-size request per cycle.
    const auto a = lake.allocate(16_MiB);
    const auto spacer = lake.allocate(2_MiB);
    const auto b = lake.allocate(16_MiB);
    ASSERT_TRUE(a.ok() && spacer.ok() && b.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    ASSERT_TRUE(lake.deallocate(b->id).ok());

    auto cycle = [&] {
        const auto big = lake.allocate(32_MiB);
        ASSERT_TRUE(big.ok());
        ASSERT_TRUE(lake.deallocate(big->id).ok());
    };
    for (int i = 0; i < 8; ++i)
        cycle(); // warmup: pools reach their high-water mark

    const auto warm = lake.poolCounters();
    const auto stitchesBefore = lake.strategy().stitches;
    for (int i = 0; i < 64; ++i)
        cycle();
    const auto after = lake.poolCounters();

    // The churn really exercised the stitch path...
    EXPECT_GE(lake.strategy().stitches, stitchesBefore + 64);
    // ...yet no new node was ever constructed: all recycled.
    EXPECT_EQ(after.pCreated, warm.pCreated);
    EXPECT_EQ(after.sCreated, warm.sCreated);
    EXPECT_GE(after.sReused, warm.sReused + 64);
    lake.checkConsistency();
}

TEST(GMLakeAllocator, PoolCountersSurviveSplitChurn)
{
    // Split/restitch cycles also recycle: the halves and the
    // re-stitched sBlock reuse released nodes once warm.
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());

    auto cycle = [&] {
        const auto big = lake.allocate(24_MiB);
        ASSERT_TRUE(big.ok());
        ASSERT_TRUE(lake.deallocate(big->id).ok());
        const auto small = lake.allocate(8_MiB); // splits the 24 MiB
        ASSERT_TRUE(small.ok());
        ASSERT_TRUE(lake.deallocate(small->id).ok());
        lake.emptyCache(); // releases blocks: nodes hit the freelist
    };
    for (int i = 0; i < 4; ++i)
        cycle();
    const auto warm = lake.poolCounters();
    for (int i = 0; i < 16; ++i)
        cycle();
    const auto after = lake.poolCounters();
    EXPECT_EQ(after.pCreated, warm.pCreated);
    EXPECT_EQ(after.sCreated, warm.sCreated);
    EXPECT_GT(after.pReused, warm.pReused);
    lake.checkConsistency();
}

namespace
{

/**
 * Heap allocations per S1 hit + free, after warmup, of a cached
 * block: an sBlock stitched from @p members 2 MiB pBlocks, or a lone
 * 2 MiB pBlock when @p members is 0.
 */
std::uint64_t
heapAllocsPerS1Cycle(std::size_t members)
{
    vmm::Device dev(smallDevice());
    GMLakeAllocator lake(dev, tightConfig());
    std::vector<alloc::AllocId> ids;
    for (std::size_t i = 0; i < std::max<std::size_t>(members, 1); ++i)
        ids.push_back(lake.allocate(2_MiB).value().id);
    for (const alloc::AllocId id : ids)
        EXPECT_TRUE(lake.deallocate(id).ok());

    // The first request stitches the members (S3); every later one
    // is an S1 hit on the cached block.
    const Bytes size = members == 0 ? 2_MiB : members * 2_MiB;
    bool ok = true;
    const auto cycle = [&] {
        const auto a = lake.allocate(size);
        ok = ok && a.ok() && lake.deallocate(a->id).ok();
    };
    for (int i = 0; i < 8; ++i)
        cycle();
    constexpr std::uint64_t kCycles = 64;
    const auto hitsBefore = lake.strategy().s1ExactMatch;
    const auto before = gHeapAllocs.load();
    for (std::uint64_t i = 0; i < kCycles; ++i)
        cycle();
    const auto allocs = gHeapAllocs.load() - before;

    EXPECT_TRUE(ok);
    EXPECT_EQ(lake.strategy().s1ExactMatch, hitsBefore + kCycles);
    EXPECT_EQ(lake.sBlockCount(), members == 0 ? 0u : 1u);
    EXPECT_EQ(allocs % kCycles, 0u) << "uneven heap traffic per cycle";
    lake.checkConsistency();
    return allocs / kCycles;
}

} // namespace

TEST(GMLakeAllocator, S1HitsAndFreesAllocateOnlyTheLiveNode)
{
    // A hit on a cached sBlock takes it and its k members out of the
    // inactive pools, and the free puts them back. Each block keeps
    // its own index nodes, so neither direction searches for, frees
    // or allocates a node: the cycle's only heap allocation is the
    // live table's hash node, whatever k is.
    const std::uint64_t two = heapAllocsPerS1Cycle(2);
    const std::uint64_t many = heapAllocsPerS1Cycle(32);
    const std::uint64_t plain = heapAllocsPerS1Cycle(0);
    EXPECT_EQ(two, many);
    EXPECT_LE(two, 1u);
    EXPECT_LE(plain, 1u);
}

// ------------------------------------------------- S1 selection oracle

namespace
{

/** One block the oracle test built, as the S1 rule sees it. */
struct ModelBlock
{
    VirtAddr va = kNullAddr;
    Bytes size = 0;
    bool stitched = false;
    std::vector<std::size_t> members; //!< model indices, sBlocks only
    bool active = true;
    Tick lastUse = 0;
    StreamId stream = kDefaultStream;
};

/**
 * The S1 rule as a plain scan over every cached block: the tightest
 * size in [rounded, rounded + slack] wins; at one size the eligible
 * block with the largest lastUse, ties to the lowest id (blocks are
 * kept in creation order, which is id order within each kind); an
 * sBlock beats a pBlock of its size unless the pBlock is strictly
 * more recent.
 */
struct S1Model
{
    static constexpr std::size_t kMiss = ~std::size_t{0};

    std::vector<ModelBlock> blocks;
    Tick lag = 0;

    /** How often the cases the rule distinguishes came up. */
    struct
    {
        int withinLag = 0;  //!< another stream's block, lag running
        int lapsed = 0;     //!< another stream's block, lag lapsed
        int lastUseTie = 0; //!< the winner tied a rival of its kind
        int kindTie = 0;    //!< the winner tied a rival of the other kind
        int classes = 0;    //!< a rival of another size in the window
    } seen;

    bool
    streamOk(const ModelBlock &b, StreamId stream, Tick now)
    {
        if (b.stream == stream || b.stream == kAnyStream)
            return true;
        const bool lapsed = b.lastUse + lag <= now;
        ++(lapsed ? seen.lapsed : seen.withinLag);
        return lapsed;
    }

    bool
    eligible(const ModelBlock &b, StreamId stream, Tick now)
    {
        if (b.active || !streamOk(b, stream, now))
            return false;
        return std::all_of(b.members.begin(), b.members.end(),
                           [&](std::size_t m) {
                               return !blocks[m].active &&
                                      streamOk(blocks[m], stream, now);
                           });
    }

    /** Index of the block S1 must hand out, or kMiss. */
    std::size_t
    pick(Bytes rounded, Bytes slack, StreamId stream, Tick now)
    {
        std::vector<std::size_t> rivals;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            const ModelBlock &b = blocks[i];
            if (b.size >= rounded && b.size <= rounded + slack &&
                eligible(b, stream, now))
                rivals.push_back(i);
        }
        const auto best = [&](bool stitched) {
            std::size_t hit = kMiss;
            for (const std::size_t i : rivals) {
                const ModelBlock &b = blocks[i];
                if (b.stitched != stitched)
                    continue;
                if (hit == kMiss || b.size < blocks[hit].size ||
                    (b.size == blocks[hit].size &&
                     b.lastUse > blocks[hit].lastUse))
                    hit = i;
            }
            return hit;
        };
        const std::size_t s = best(true);
        const std::size_t p = best(false);
        if (s == kMiss && p == kMiss)
            return kMiss;
        const bool useS =
            s != kMiss &&
            (p == kMiss || blocks[s].size < blocks[p].size ||
             (blocks[s].size == blocks[p].size &&
              blocks[s].lastUse >= blocks[p].lastUse));
        const std::size_t hit = useS ? s : p;
        for (const std::size_t i : rivals) {
            const ModelBlock &b = blocks[i];
            if (i == hit)
                continue;
            if (b.size != blocks[hit].size)
                ++seen.classes;
            else if (b.lastUse == blocks[hit].lastUse)
                ++(b.stitched == blocks[hit].stitched ? seen.lastUseTie
                                                      : seen.kindTie);
        }
        return hit;
    }

    /** Block @p i and, for an sBlock, its members. */
    std::vector<ModelBlock *>
    group(std::size_t i)
    {
        std::vector<ModelBlock *> g{&blocks[i]};
        for (const std::size_t m : blocks[i].members)
            g.push_back(&blocks[m]);
        return g;
    }
    void
    take(std::size_t i, StreamId stream)
    {
        for (ModelBlock *b : group(i)) {
            b->active = true;
            b->stream = stream;
        }
    }
    void
    release(std::size_t i, Tick now)
    {
        for (ModelBlock *b : group(i)) {
            b->active = false;
            b->lastUse = now;
        }
    }
    /** streamSynchronize(@p stream); kAnyStream: deviceSynchronize. */
    void
    synchronize(StreamId stream)
    {
        for (ModelBlock &b : blocks) {
            if (!b.active && (stream == kAnyStream || b.stream == stream))
                b.stream = kAnyStream;
        }
    }
};

} // namespace

TEST(GMLakeRecency, S1ChoicesMatchTheScanModel)
{
    // Churn over 40 blocks in six sizes on three streams: after every
    // allocate() the block handed out must be the model's pick, and a
    // checkpoint restored midway must repeat the same picks.
    vmm::DeviceConfig dc = smallDevice(1_GiB);
    dc.cost.cachedOpNs = 0; // the clock moves only where the test says
    vmm::Device dev(dc);
    GMLakeConfig gc;
    gc.nearMatchTolerance = 0.25; // windows span several size classes
    GMLakeAllocator lake(dev, gc);
    const Tick lag = alloc::kStreamEventLagNs;
    S1Model model;
    model.lag = lag;
    Rng rng(12);
    const auto anyStream = [&] {
        return static_cast<StreamId>(rng.uniformInt(1, 3));
    };

    struct Held
    {
        alloc::AllocId id = 0;
        std::size_t block = 0;
    };
    std::vector<Held> held;

    // With every other block live, each request grows one pBlock.
    const std::vector<std::pair<Bytes, int>> population = {
        {4_MiB, 8}, {8_MiB, 10}, {10_MiB, 4},
        {16_MiB, 6}, {18_MiB, 3}, {20_MiB, 3}};
    for (const auto &[size, count] : population) {
        for (int i = 0; i < count; ++i) {
            const StreamId s = anyStream();
            const auto a = lake.allocate(size, s);
            ASSERT_TRUE(a.ok());
            ModelBlock b;
            b.va = a->addr;
            b.size = size;
            b.stream = s;
            model.blocks.push_back(b);
            held.push_back({a->id, model.blocks.size() - 1});
        }
    }
    ASSERT_EQ(lake.pBlockCount(), model.blocks.size());

    // Freeing two pBlocks and, once the lag has lapsed, asking for
    // their sum stitches exactly them.
    const auto stitch = [&](std::size_t m0, std::size_t m1) {
        for (const std::size_t m : {m0, m1}) {
            const auto it =
                std::find_if(held.begin(), held.end(),
                             [&](const Held &h) { return h.block == m; });
            ASSERT_NE(it, held.end());
            ASSERT_TRUE(lake.deallocate(it->id).ok());
            held.erase(it);
        }
        dev.clock().advance(lag);
        const StreamId s = anyStream();
        ModelBlock b;
        b.size = model.blocks[m0].size + model.blocks[m1].size;
        b.stitched = true;
        b.members = {m0, m1};
        const auto a = lake.allocate(b.size, s);
        ASSERT_TRUE(a.ok());
        b.va = a->addr;
        model.blocks.push_back(b);
        model.take(model.blocks.size() - 1, s);
        held.push_back({a->id, model.blocks.size() - 1});
    };
    // Four 8 MiB sBlocks over the 4 MiB pBlocks, two 16 MiB ones
    // over 8 MiB pBlocks.
    for (std::size_t m = 0; m < 8; m += 2)
        ASSERT_NO_FATAL_FAILURE(stitch(m, m + 1));
    ASSERT_NO_FATAL_FAILURE(stitch(8, 9));
    ASSERT_NO_FATAL_FAILURE(stitch(10, 11));
    ASSERT_EQ(lake.sBlockCount(), 6u);
    ASSERT_EQ(lake.strategy().s3MultiBlocks, 6u);

    while (!held.empty()) {
        const std::size_t k = rng.uniformInt(0, held.size() - 1);
        ASSERT_TRUE(lake.deallocate(held[k].id).ok());
        model.release(held[k].block, dev.now());
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        if (rng.chance(0.3)) {
            dev.clock().advance(static_cast<Tick>(
                rng.uniformInt(0, static_cast<std::uint64_t>(lag))));
        }
    }

    int hits = 0;
    const auto step = [&](std::vector<VirtAddr> *picks) {
        const auto op = rng.uniformInt(0, 99);
        if (op < 45) {
            const Bytes requests[] = {4_MiB,  7_MiB,  8_MiB,  9_MiB,
                                      10_MiB, 15_MiB, 16_MiB, 17_MiB,
                                      18_MiB, 20_MiB};
            const Bytes size =
                requests[rng.uniformInt(0, std::size(requests) - 1)];
            const Bytes rounded = roundUp(size, core::kChunkSize);
            const Bytes slack = roundDown(
                std::min(static_cast<Bytes>(gc.nearMatchTolerance *
                                            static_cast<double>(rounded)),
                         core::kNearMatchSlackCap),
                core::kChunkSize);
            const StreamId s = anyStream();
            const std::size_t want =
                model.pick(rounded, slack, s, dev.now());
            if (want == S1Model::kMiss)
                return; // a miss reshapes the pools: only hits are modelled
            const auto before = lake.strategy().s1ExactMatch;
            const auto a = lake.allocate(size, s);
            ASSERT_TRUE(a.ok());
            ASSERT_EQ(lake.strategy().s1ExactMatch, before + 1);
            ASSERT_EQ(a->addr, model.blocks[want].va);
            model.take(want, s);
            held.push_back({a->id, want});
            if (picks != nullptr)
                picks->push_back(a->addr);
            ++hits;
        } else if (op < 85) {
            if (held.empty())
                return;
            const std::size_t k = rng.uniformInt(0, held.size() - 1);
            ASSERT_TRUE(lake.deallocate(held[k].id).ok());
            model.release(held[k].block, dev.now());
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        } else if (op < 95) {
            const Tick steps[] = {1, lag / 2, lag - 1, lag, 2 * lag};
            dev.clock().advance(
                steps[rng.uniformInt(0, std::size(steps) - 1)]);
        } else if (op < 99) {
            const StreamId s = anyStream();
            lake.streamSynchronize(s);
            model.synchronize(s);
        } else {
            lake.deviceSynchronize();
            model.synchronize(kAnyStream);
        }
        lake.auditInvariants();
    };

    for (int i = 0; i < 1500; ++i)
        ASSERT_NO_FATAL_FAILURE(step(nullptr));

    // The checkpoint holds live sBlocks, so the restore has active
    // blocks to park index nodes for (auditInvariants checks them
    // after every step).
    ASSERT_TRUE(std::any_of(held.begin(), held.end(), [&](const Held &h) {
        return model.blocks[h.block].stitched;
    }));
    // The restored lists must come back in lastUse order: the
    // restored allocator repeats the original's picks, which keep
    // matching the model.
    const alloc::Checkpoint checkpoint = lake.saveState();
    const S1Model modelAt = model;
    const std::vector<Held> heldAt = held;
    const Rng rngAt = rng;
    std::vector<VirtAddr> first;
    for (int i = 0; i < 1000; ++i)
        ASSERT_NO_FATAL_FAILURE(step(&first));
    lake.restoreState(checkpoint);
    model = modelAt;
    held = heldAt;
    rng = rngAt;
    std::vector<VirtAddr> second;
    for (int i = 0; i < 1000; ++i)
        ASSERT_NO_FATAL_FAILURE(step(&second));
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);

    EXPECT_GT(hits, 1000);
    EXPECT_GT(model.seen.withinLag, 0);
    EXPECT_GT(model.seen.lapsed, 0);
    EXPECT_GT(model.seen.lastUseTie, 0);
    EXPECT_GT(model.seen.kindTie, 0);
    EXPECT_GT(model.seen.classes, 0);
}
