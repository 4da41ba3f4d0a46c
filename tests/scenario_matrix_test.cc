/**
 * @file
 * Parameterized scenario grid: the paper's headline property —
 * GMLake's utilization is never worse than the caching allocator's
 * and its throughput stays comparable — checked across the full
 * model x strategy x platform matrix, plus edge-case coverage that
 * the per-module suites do not reach.
 */

#include <gtest/gtest.h>

#include "alloc/caching_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "support/units.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;
using namespace gmlake::workload;

// ------------------------------------------------ scenario matrix

struct GridParam
{
    const char *model;
    const char *strategies;
    Platform platform;
    int gpus;
    int batch;
};

static void
PrintTo(const GridParam &p, std::ostream *os)
{
    *os << p.model << "/" << p.strategies << "/g" << p.gpus << "/b"
        << p.batch;
}

class ScenarioGrid : public ::testing::TestWithParam<GridParam>
{
};

TEST_P(ScenarioGrid, GmlakeDominatesCaching)
{
    const auto &p = GetParam();
    TrainConfig cfg;
    cfg.model = findModel(p.model);
    cfg.strategies = Strategies::parse(p.strategies);
    cfg.platform = p.platform;
    cfg.gpus = p.gpus;
    cfg.batchSize = p.batch;
    cfg.iterations = 6;

    const auto caching = runScenario(cfg, AllocatorKind::caching);
    const auto lake = runScenario(cfg, AllocatorKind::gmlake);
    ASSERT_FALSE(caching.oom);
    ASSERT_FALSE(lake.oom);

    // Utilization: never worse (small tolerance for rounding).
    EXPECT_GE(lake.utilization + 0.03, caching.utilization);
    // Reserved: never meaningfully more.
    EXPECT_LE(lake.peakReserved,
              caching.peakReserved + caching.peakReserved / 20);
    // Throughput: within 15% even on cold short runs.
    EXPECT_GT(lake.samplesPerSec, 0.85 * caching.samplesPerSec);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioGrid,
    ::testing::Values(
        GridParam{"OPT-1.3B", "N", Platform::ddp, 2, 16},
        GridParam{"OPT-1.3B", "LRO", Platform::deepspeedZero3, 4, 32},
        GridParam{"GPT-2", "R", Platform::colossalAi, 4, 32},
        GridParam{"GPT-2", "LR", Platform::fsdp, 2, 32},
        GridParam{"GLM-10B", "RO", Platform::fsdp, 4, 8},
        GridParam{"OPT-13B", "LR", Platform::deepspeedZero3, 4, 12},
        GridParam{"OPT-13B", "LRO", Platform::fsdp, 8, 12},
        GridParam{"Vicuna-13B", "R", Platform::deepspeedZero3, 8, 8},
        GridParam{"GPT-NeoX-20B", "LR", Platform::deepspeedZero3, 4,
                  24},
        GridParam{"GPT-NeoX-20B", "LRO", Platform::deepspeedZero3, 8,
                  16}));

// ------------------------------------------------ edge coverage

TEST(EdgeCases, ExactSmallThresholdGoesToVmsPath)
{
    vmm::Device dev;
    core::GMLakeAllocator lake(dev);
    // 2 MiB == kSmallThreshold: not "less than", so VMS handles it.
    const auto a = lake.allocate(2_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(lake.pBlockCount(), 1u);
    EXPECT_EQ(lake.strategy().smallPath, 0u);
    lake.checkConsistency();
}

TEST(EdgeCases, JustBelowThresholdGoesToSmallPath)
{
    vmm::Device dev;
    core::GMLakeAllocator lake(dev);
    const auto a = lake.allocate(2_MiB - 1);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(lake.pBlockCount(), 0u);
    EXPECT_EQ(lake.strategy().smallPath, 1u);
    lake.checkConsistency();
}

TEST(EdgeCases, VaOverscribeTriggersStitchFree)
{
    vmm::DeviceConfig dc;
    dc.capacity = 64_MiB;
    vmm::Device dev(dc);
    core::GMLakeConfig gc;
    gc.nearMatchTolerance = 0.0;
    gc.maxVaOverscribe = 0.5; // stitched VA may not exceed 32 MiB
    core::GMLakeAllocator lake(dev, gc);

    // Build several distinct stitched blocks worth > 32 MiB of VA.
    for (int round = 0; round < 3; ++round) {
        const Bytes sz = (8 + 2 * round) * 1_MiB;
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
    EXPECT_GT(lake.strategy().stitchFrees, 0u);
    EXPECT_LE(lake.stitchedVaBytes(), 32_MiB + 32_MiB); // bounded
    lake.checkConsistency();
}

TEST(EdgeCases, EngineSeriesBoundedByMaxPoints)
{
    // Ten times kMaxSeriesPoints events, nearly all allocs and frees:
    // every tenth event is sampled.
    constexpr int kIterations = 10;
    TraceBuilder tb;
    for (int it = 0; it < kIterations; ++it) {
        tb.iterationMark();
        for (std::size_t i = 0; i < kMaxSeriesPoints / 2; ++i)
            tb.free(tb.alloc(1_MiB));
    }
    const Trace trace = tb.take();
    ASSERT_GE(trace.size(), 10 * kMaxSeriesPoints);

    vmm::Device dev;
    alloc::CachingAllocator caching(dev);
    const RunResult r = runTrace(caching, dev, trace);
    // About kMaxSeriesPoints decimated samples, plus one forced
    // sample per iteration mark and the final one.
    EXPECT_GE(r.series.size(), kMaxSeriesPoints);
    EXPECT_LE(r.series.size(), kMaxSeriesPoints * 11 / 10);
}

TEST(EdgeCases, SnapshotFreeBytesMatchesStatsGap)
{
    vmm::Device dev;
    core::GMLakeAllocator lake(dev);
    const auto a = lake.allocate(24_MiB);
    const auto b = lake.allocate(12_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    const auto snap = lake.snapshot();
    EXPECT_EQ(snap.freeBlockBytes(),
              lake.stats().reservedBytes() -
                  lake.stats().activeBytes());
}

TEST(EdgeCases, DeterministicAcrossRuns)
{
    TrainConfig cfg;
    cfg.model = findModel("GPT-2");
    cfg.strategies = Strategies::parse("LRO");
    cfg.gpus = 4;
    cfg.batchSize = 16;
    cfg.iterations = 5;
    const auto a = runScenario(cfg, AllocatorKind::gmlake);
    const auto b = runScenario(cfg, AllocatorKind::gmlake);
    EXPECT_EQ(a.peakActive, b.peakActive);
    EXPECT_EQ(a.peakReserved, b.peakReserved);
    EXPECT_EQ(a.simTime, b.simTime);
    EXPECT_EQ(a.allocCount, b.allocCount);
}

TEST(EdgeCases, RestitchDisabledStillCorrect)
{
    vmm::Device dev;
    core::GMLakeConfig gc;
    gc.restitchOnSplit = false;
    gc.nearMatchTolerance = 0.0;
    core::GMLakeAllocator lake(dev, gc);
    const auto a = lake.allocate(20_MiB);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(lake.deallocate(a->id).ok());
    const auto b = lake.allocate(8_MiB);
    ASSERT_TRUE(b.ok());
    // Without re-stitching, the original 20 MiB footprint needs a
    // fresh stitch when requested again.
    const auto c = lake.allocate(20_MiB);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(lake.sBlockCount(), 1u); // only the new stitch
    lake.checkConsistency();
}
