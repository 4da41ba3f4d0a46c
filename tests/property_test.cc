/**
 * @file
 * Property-based tests: randomized allocate/free workloads replayed
 * against every allocator on small devices, checking the invariants
 * that must hold regardless of the request sequence.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "alloc/caching_allocator.hh"
#include "alloc/compacting_allocator.hh"
#include "alloc/expandable_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "sim/runner.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;

namespace
{

struct Param
{
    std::uint64_t seed;
    Bytes capacity;
    Bytes maxRequest;
    double freeBias; //!< probability of freeing when possible
};

void
PrintTo(const Param &p, std::ostream *os)
{
    *os << "seed=" << p.seed << " cap=" << p.capacity
        << " maxReq=" << p.maxRequest << " freeBias=" << p.freeBias;
}

class AllocatorFuzz : public ::testing::TestWithParam<Param>
{
  protected:
    /**
     * Drive @p allocator with a random sequence; reports the number
     * of successful allocations via @p successes (gtest ASSERT
     * macros require a void-returning function). OOM results are
     * tolerated (the device is deliberately small), everything else
     * must succeed.
     */
    template <typename CheckFn>
    void
    drive(alloc::Allocator &allocator, CheckFn &&check,
          std::size_t &successes, bool checkAddresses = true)
    {
        Rng rng(GetParam().seed);
        std::vector<alloc::AllocId> live;
        std::map<VirtAddr, std::pair<Bytes, alloc::AllocId>> ranges;
        successes = 0;

        for (int i = 0; i < 3000; ++i) {
            const bool doFree =
                !live.empty() &&
                rng.chance(GetParam().freeBias);
            if (doFree) {
                const std::size_t idx = static_cast<std::size_t>(
                    rng.uniformInt(0, live.size() - 1));
                const alloc::AllocId id = live[idx];
                ASSERT_TRUE(allocator.deallocate(id).ok());
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(idx));
                for (auto it = ranges.begin(); it != ranges.end();
                     ++it) {
                    if (it->second.second == id) {
                        ranges.erase(it);
                        break;
                    }
                }
            } else {
                const Bytes size = static_cast<Bytes>(rng.uniformInt(
                    1, GetParam().maxRequest));
                const auto got = allocator.allocate(size);
                if (!got.ok()) {
                    ASSERT_EQ(got.code(), Errc::outOfMemory);
                    continue;
                }
                ++successes;
                live.push_back(got->id);
                if (!checkAddresses)
                    continue; // a moving allocator relocates blocks

                // Live VA ranges must never overlap: the request
                // rounds up to at most maxRequest*2 internally, use
                // the requested size as the minimum footprint.
                const auto [it, fresh] = ranges.emplace(
                    got->addr, std::make_pair(size, got->id));
                ASSERT_TRUE(fresh) << "address reused while live";
                if (it != ranges.begin()) {
                    const auto prev = std::prev(it);
                    ASSERT_LE(prev->first + prev->second.first,
                              it->first)
                        << "overlapping live allocations";
                }
                if (const auto next = std::next(it);
                    next != ranges.end()) {
                    ASSERT_LE(it->first + size, next->first)
                        << "overlapping live allocations";
                }
            }
            // Universal invariants.
            ASSERT_GE(allocator.stats().reservedBytes(),
                      allocator.stats().activeBytes());
            if (i % 250 == 0)
                check();
        }
        check();
    }

    static vmm::DeviceConfig
    device(Bytes capacity)
    {
        vmm::DeviceConfig cfg;
        cfg.capacity = capacity;
        return cfg;
    }
};

} // namespace

TEST_P(AllocatorFuzz, CachingAllocatorInvariants)
{
    vmm::Device dev(device(GetParam().capacity));
    alloc::CachingAllocator allocator(dev);
    std::size_t n = 0;
    drive(allocator, [&] { allocator.checkConsistency(); }, n);
    EXPECT_GT(n, 0u);
    // Device-level accounting agrees with the allocator.
    EXPECT_EQ(dev.phys().inUse(), allocator.stats().reservedBytes());
}

TEST_P(AllocatorFuzz, CompactingAllocatorInvariants)
{
    vmm::Device dev(device(GetParam().capacity));
    alloc::CompactingConfig cfg;
    cfg.slabSize = 32_MiB; // the fuzz devices are small
    alloc::CompactingAllocator allocator(dev, cfg);
    std::size_t n = 0;
    // Address-stability checks are skipped: compaction relocates
    // live blocks (exactly why it is not transparently deployable).
    drive(allocator, [&] { allocator.checkConsistency(); }, n,
          /*checkAddresses=*/false);
    EXPECT_GT(n, 0u);
    EXPECT_EQ(dev.phys().inUse(), allocator.stats().reservedBytes());
}

TEST_P(AllocatorFuzz, ExpandableInvariants)
{
    vmm::Device dev(device(GetParam().capacity));
    alloc::ExpandableSegmentsAllocator allocator(dev);
    std::size_t n = 0;
    drive(allocator, [&] { allocator.checkConsistency(); }, n);
    EXPECT_GT(n, 0u);
    EXPECT_EQ(dev.phys().inUse(), allocator.stats().reservedBytes());
}

TEST_P(AllocatorFuzz, GmlakeInvariants)
{
    vmm::Device dev(device(GetParam().capacity));
    core::GMLakeAllocator allocator(dev);
    std::size_t n = 0;
    drive(allocator, [&] { allocator.checkConsistency(); }, n);
    EXPECT_GT(n, 0u);
    // GMLake reserves physical chunks plus the small pool's segments.
    EXPECT_EQ(dev.phys().inUse(), allocator.stats().reservedBytes());
}

TEST_P(AllocatorFuzz, GmlakeEmptyCacheAlwaysSafe)
{
    vmm::Device dev(device(GetParam().capacity));
    core::GMLakeAllocator allocator(dev);
    Rng rng(GetParam().seed ^ 0xabcdef);
    std::vector<alloc::AllocId> live;
    for (int i = 0; i < 600; ++i) {
        if (!live.empty() && rng.chance(0.45)) {
            const std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            ASSERT_TRUE(allocator.deallocate(live[idx]).ok());
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        } else {
            const auto got = allocator.allocate(static_cast<Bytes>(
                rng.uniformInt(1, GetParam().maxRequest)));
            if (got.ok())
                live.push_back(got->id);
        }
        if (i % 97 == 0) {
            allocator.emptyCache();
            allocator.checkConsistency();
        }
    }
    // Everything still live must be deallocatable afterwards.
    for (const auto id : live)
        ASSERT_TRUE(allocator.deallocate(id).ok());
    allocator.emptyCache();
    EXPECT_EQ(allocator.physicalBytes(), 0u);
    allocator.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, AllocatorFuzz,
    ::testing::Values(
        Param{101, 128_MiB, 8_MiB, 0.40},
        Param{202, 128_MiB, 8_MiB, 0.55},
        Param{303, 256_MiB, 24_MiB, 0.45},
        Param{404, 64_MiB, 16_MiB, 0.50},  // high pressure
        Param{505, 512_MiB, 48_MiB, 0.35},
        Param{606, 256_MiB, 1_MiB, 0.45},  // small-path heavy
        Param{707, 96_MiB, 12_MiB, 0.60},
        Param{808, 1_GiB, 96_MiB, 0.30}));
