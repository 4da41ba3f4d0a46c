/**
 * @file
 * Virtual address space tests: reservation, alignment, hole reuse
 * and coalescing, containment queries.
 */

#include <gtest/gtest.h>

#include "support/units.hh"
#include "vmm/va_space.hh"

using namespace gmlake;
using namespace gmlake::literals;
using vmm::VaSpace;

TEST(VaSpace, ReserveReturnsAlignedDisjointRanges)
{
    VaSpace va;
    const auto a = va.reserve(4_MiB);
    const auto b = va.reserve(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NE(*a, *b);
    EXPECT_EQ(*a % (2_MiB), 0u);
    EXPECT_EQ(*b % (2_MiB), 0u);
    // Ranges must not overlap.
    const bool disjoint = *a + 4_MiB <= *b || *b + 4_MiB <= *a;
    EXPECT_TRUE(disjoint);
    EXPECT_EQ(va.reservedBytes(), 8_MiB);
}

TEST(VaSpace, RejectsBadArguments)
{
    VaSpace va;
    EXPECT_EQ(va.reserve(0).code(), Errc::invalidValue);
}

TEST(VaSpace, FreeAndReuseHole)
{
    VaSpace va;
    const auto a = va.reserve(4_MiB);
    const auto b = va.reserve(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(va.free(*a).ok());
    EXPECT_EQ(va.reservedBytes(), 4_MiB);
    // A same-size reservation reuses the hole (first fit).
    const auto c = va.reserve(4_MiB);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*c, *a);
}

TEST(VaSpace, HolesCoalesce)
{
    VaSpace va;
    const auto a = va.reserve(2_MiB);
    const auto b = va.reserve(2_MiB);
    const auto c = va.reserve(2_MiB);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_TRUE(va.free(*a).ok());
    EXPECT_TRUE(va.free(*c).ok());
    EXPECT_TRUE(va.free(*b).ok()); // merges with both neighbours
    const auto big = va.reserve(6_MiB);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(*big, *a); // the merged hole starts at a
}

TEST(VaSpace, FreeOfNonBaseFails)
{
    VaSpace va;
    const auto a = va.reserve(4_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(va.free(*a + 2_MiB).code(), Errc::invalidValue);
    EXPECT_EQ(va.free(0xdead).code(), Errc::invalidValue);
}

TEST(VaSpace, ContainingQueries)
{
    VaSpace va;
    const auto a = va.reserve(4_MiB);
    ASSERT_TRUE(a.ok());
    const auto whole = va.containing(*a, 4_MiB);
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(whole->base, *a);
    EXPECT_EQ(whole->size, 4_MiB);

    const auto inner = va.containing(*a + 1_MiB, 1_MiB);
    EXPECT_TRUE(inner.ok());

    EXPECT_EQ(va.containing(*a, 5_MiB).code(), Errc::notReserved);
    EXPECT_EQ(va.containing(*a - 1, 1).code(), Errc::notReserved);
}

TEST(VaSpace, LimitEnforced)
{
    VaSpace va(8_MiB);
    EXPECT_TRUE(va.reserve(8_MiB).ok());
    EXPECT_EQ(va.reserve(2_MiB).code(),
              Errc::addressSpaceFull);
}

TEST(VaSpace, PeakReservedTracksHighWater)
{
    VaSpace va;
    const auto a = va.reserve(6_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(va.free(*a).ok());
    (void)va.reserve(2_MiB);
    EXPECT_EQ(va.peakReservedBytes(), 6_MiB);
    EXPECT_EQ(va.reservedBytes(), 2_MiB);
}

TEST(VaSpace, ManyReservationsStayDisjoint)
{
    VaSpace va;
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 200; ++i) {
        const auto r = va.reserve((i % 7 + 1) * 2_MiB);
        ASSERT_TRUE(r.ok());
        addrs.push_back(*r);
    }
    // Free every other one and re-reserve; no overlap may appear.
    for (std::size_t i = 0; i < addrs.size(); i += 2)
        ASSERT_TRUE(va.free(addrs[i]).ok());
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(va.reserve(2_MiB).ok());
    EXPECT_GT(va.reservationCount(), 100u);
}
