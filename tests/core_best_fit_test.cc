/**
 * @file
 * Tests for Algorithm 1 (BestFit) past S1: state classification,
 * candidate selection, eligibility, the fragmentation limit, and the
 * exact-sum swap, run by bestFitOverPools over a test-local pool kept
 * in the allocator's order. S1 lives in the allocator (GMLakeRecency
 * and GMLake.ExactMatchReusesBlock in core_gmlake_test). Includes a
 * parameterized property sweep over random pools.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/best_fit.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;
using core::FitState;

namespace
{

constexpr Bytes kNoLimit = 0;

struct Block
{
    Bytes size = 0;
    std::size_t id = 0;
    bool eligible = true;
};

/** The allocator's pool order: size descending, then id. */
struct BlockCmp
{
    using is_transparent = void;

    bool
    operator()(const Block *a, const Block *b) const
    {
        return a->size != b->size ? a->size > b->size : a->id < b->id;
    }
    bool operator()(const Block *a, Bytes size) const
    {
        return a->size > size;
    }
    bool operator()(Bytes size, const Block *a) const
    {
        return size > a->size;
    }
};

/** A pool over @p sizes; ids are list positions. */
struct TestPool
{
    explicit TestPool(const std::vector<Bytes> &sizes)
    {
        for (std::size_t i = 0; i < sizes.size(); ++i)
            blocks.push_back(Block{sizes[i], i});
    }

    std::set<const Block *, BlockCmp>
    pool() const
    {
        std::set<const Block *, BlockCmp> set;
        for (const Block &b : blocks)
            set.insert(&b);
        return set;
    }

    std::vector<Block> blocks;
};

struct Fit
{
    FitState state;
    Bytes candidateBytes;
    std::vector<std::size_t> ids;
};

Fit
fit(Bytes want, const TestPool &pool, Bytes fragLimit = kNoLimit)
{
    std::vector<const Block *> candidates;
    const auto r = core::bestFitOverPools(
        want, pool.pool(), fragLimit,
        [](const Block *b) { return b->eligible; }, candidates);
    Fit f{r.state, r.candidateBytes, {}};
    for (const Block *b : candidates)
        f.ids.push_back(b->id);
    return f;
}

using Ids = std::vector<std::size_t>;

} // namespace

TEST(BestFit, SingleBlockPicksSmallestSufficient)
{
    const auto r =
        fit(6_MiB, TestPool({20_MiB, 12_MiB, 10_MiB, 4_MiB}));
    EXPECT_EQ(r.state, FitState::singleBlock);
    EXPECT_EQ(r.ids, Ids{2}); // the 10 MiB block
    EXPECT_EQ(r.candidateBytes, 10_MiB);
}

TEST(BestFit, MultiBlocksAccumulatesGreedily)
{
    const auto r = fit(10_MiB, TestPool({6_MiB, 4_MiB, 2_MiB}));
    EXPECT_EQ(r.state, FitState::multiBlocks);
    EXPECT_EQ(r.ids, (Ids{0, 1}));
    EXPECT_EQ(r.candidateBytes, 10_MiB);
}

TEST(BestFit, InsufficientReturnsAllUsableCandidates)
{
    const auto r = fit(20_MiB, TestPool({6_MiB, 4_MiB}));
    EXPECT_EQ(r.state, FitState::insufficient);
    EXPECT_EQ(r.ids, (Ids{0, 1}));
    EXPECT_EQ(r.candidateBytes, 10_MiB);
}

TEST(BestFit, EmptyPoolsAreInsufficient)
{
    const auto r = fit(2_MiB, TestPool({}));
    EXPECT_EQ(r.state, FitState::insufficient);
    EXPECT_TRUE(r.ids.empty());
}

TEST(BestFit, IneligibleBlocksAreSkippedByS2AndS3)
{
    // S2: the smallest larger block (10 MiB) may not serve this
    // request, so the next one up does.
    TestPool single({20_MiB, 12_MiB, 10_MiB, 4_MiB});
    single.blocks[2].eligible = false;
    const auto s2 = fit(6_MiB, single);
    EXPECT_EQ(s2.state, FitState::singleBlock);
    EXPECT_EQ(s2.ids, Ids{1});
    EXPECT_EQ(s2.candidateBytes, 12_MiB);

    // S3: no eligible larger block, and the stitch set steps over
    // the ineligible exact-size and 6 MiB blocks.
    TestPool multi({10_MiB, 8_MiB, 6_MiB, 4_MiB, 4_MiB});
    multi.blocks[0].eligible = false;
    multi.blocks[1].eligible = false;
    multi.blocks[2].eligible = false;
    const auto s3 = fit(8_MiB, multi);
    EXPECT_EQ(s3.state, FitState::multiBlocks);
    EXPECT_EQ(s3.ids, (Ids{3, 4}));
    EXPECT_EQ(s3.candidateBytes, 8_MiB);
}

TEST(BestFit, FragLimitSkipsSmallCandidates)
{
    // 4 MiB blocks are below the 8 MiB limit: not stitchable.
    const auto r =
        fit(12_MiB, TestPool({8_MiB, 4_MiB, 4_MiB, 4_MiB}), 8_MiB);
    // Only the 8 MiB block qualifies -> insufficient.
    EXPECT_EQ(r.state, FitState::insufficient);
    EXPECT_EQ(r.candidateBytes, 8_MiB);
    EXPECT_EQ(r.ids, Ids{0});
}

TEST(BestFit, ExactSumSwapAvoidsOvershoot)
{
    // Greedy picks 6+4=10 for an 8 MiB request (overshoot 2); a
    // 2 MiB block completes 6+2=8 exactly and must be swapped in.
    const auto r = fit(8_MiB, TestPool({6_MiB, 4_MiB, 2_MiB}));
    EXPECT_EQ(r.state, FitState::multiBlocks);
    EXPECT_EQ(r.ids, (Ids{0, 2})); // swapped from id 1 to id 2
    EXPECT_EQ(r.candidateBytes, 8_MiB);
}

TEST(BestFit, SingleBlockBeatsAccumulation)
{
    // 10 > 8: a single block exists, S2 wins over stitching smaller.
    const auto r = fit(8_MiB, TestPool({10_MiB, 6_MiB, 4_MiB}));
    EXPECT_EQ(r.state, FitState::singleBlock);
    EXPECT_EQ(r.candidateBytes, 10_MiB);
}

// ------------------------------------------------- property sweep

struct SweepParam
{
    std::uint64_t seed;
    Bytes fragLimit;
};

class BestFitSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(BestFitSweep, InvariantsHoldOnRandomPools)
{
    Rng rng(GetParam().seed);
    const Bytes fragLimit = GetParam().fragLimit;

    for (int round = 0; round < 200; ++round) {
        const Bytes want = 2_MiB * rng.uniformInt(1, 96);
        // The allocator answers eligible exact-size blocks (S1)
        // before it searches, so the pool never holds one.
        TestPool pool({});
        const int n = static_cast<int>(rng.uniformInt(0, 24));
        for (int i = 0; i < n; ++i) {
            Block b{2_MiB * rng.uniformInt(1, 64), pool.blocks.size(),
                    rng.uniformInt(0, 4) != 0};
            if (!(b.eligible && b.size == want))
                pool.blocks.push_back(b);
        }
        const auto r = fit(want, pool, fragLimit);

        Bytes usable = 0;
        Bytes largest = 0;
        for (const Block &b : pool.blocks) {
            if (!b.eligible)
                continue;
            if (fragLimit == 0 || b.size >= fragLimit)
                usable += b.size;
            largest = std::max(largest, b.size);
        }
        Bytes sum = 0;
        for (std::size_t i = 0; i < r.ids.size(); ++i) {
            const Block &b = pool.blocks[r.ids[i]];
            EXPECT_TRUE(b.eligible);
            EXPECT_EQ(std::count(r.ids.begin(), r.ids.end(), r.ids[i]),
                      1) << "duplicate candidate";
            sum += b.size;
        }
        EXPECT_EQ(sum, r.candidateBytes);

        switch (r.state) {
          case FitState::singleBlock: {
            ASSERT_EQ(r.ids.size(), 1u);
            const Bytes got = pool.blocks[r.ids[0]].size;
            EXPECT_GT(got, want);
            // The smallest eligible block that fits.
            for (const Block &b : pool.blocks)
                EXPECT_FALSE(b.eligible && b.size > want && b.size < got);
            break;
          }
          case FitState::multiBlocks:
            EXPECT_LE(largest, want) << "S2 should have answered";
            for (std::size_t i = 0; i < r.ids.size(); ++i) {
                const Bytes size = pool.blocks[r.ids[i]].size;
                EXPECT_LT(size, want);
                // Only the exact-sum swap may bring in a small block.
                if (fragLimit != 0 && i + 1 < r.ids.size()) {
                    EXPECT_GE(size, fragLimit);
                }
            }
            EXPECT_GE(sum, want);
            break;
          case FitState::insufficient:
            EXPECT_LE(largest, want) << "S2 should have answered";
            EXPECT_LT(r.candidateBytes, want);
            // The candidates really are everything usable.
            EXPECT_EQ(r.candidateBytes, usable);
            break;
          case FitState::exactMatch:
            ADD_FAILURE() << "S1 is the allocator's, not BestFit's";
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BestFitSweep,
    ::testing::Values(SweepParam{1, 0}, SweepParam{2, 0},
                      SweepParam{3, 8_MiB}, SweepParam{4, 8_MiB},
                      SweepParam{5, 32_MiB}, SweepParam{6, 2_MiB},
                      SweepParam{7, 128_MiB}, SweepParam{8, 0}));
