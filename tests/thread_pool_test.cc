/**
 * @file
 * parallelFor tests: every index runs exactly once, one thread stays
 * inline and ordered, and a call's exception surfaces to the caller.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/thread_pool.hh"

using namespace gmlake;

TEST(ParallelFor, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(defaultThreads(), 1u);
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(hits.size(), 8,
                [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SingleThreadRunsInlineInOrder)
{
    std::vector<std::size_t> order;
    parallelFor(16, 1,
                [&order](std::size_t i) { order.push_back(i); });
    std::vector<std::size_t> expected(16);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);
}

TEST(ParallelFor, PropagatesFirstException)
{
    // The other workers still finish every other index first.
    std::atomic<int> calls{0};
    EXPECT_THROW(
        parallelFor(64, 4,
                    [&calls](std::size_t i) {
                        ++calls;
                        if (i == 13)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    EXPECT_EQ(calls.load(), 64);
}

TEST(ParallelFor, HandlesEmptyAndSingleItem)
{
    int calls = 0;
    parallelFor(0, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}
