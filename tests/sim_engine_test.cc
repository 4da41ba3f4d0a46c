/**
 * @file
 * Simulation engine tests: metric computation on hand-built traces,
 * OOM detection, time-series recording, throughput derivation and
 * the scenario runner.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "alloc/caching_allocator.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "support/logging.hh"
#include "support/units.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;
using namespace gmlake::workload;

namespace
{

vmm::DeviceConfig
smallDevice(Bytes capacity = 256_MiB)
{
    vmm::DeviceConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

Trace
tinyTrace()
{
    TraceBuilder tb;
    tb.iterationMark();
    const auto a = tb.alloc(30_MiB);
    tb.compute(1'000'000);
    const auto b = tb.alloc(10_MiB);
    tb.free(a);
    tb.free(b);
    return tb.take();
}

} // namespace

TEST(Engine, ComputesPeaksAndCounts)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    const auto r = runTrace(alloc, dev, tinyTrace());
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(r.allocCount, 2u);
    EXPECT_EQ(r.freeCount, 2u);
    EXPECT_EQ(r.peakActive, 40_MiB);
    EXPECT_GE(r.peakReserved, 40_MiB);
    EXPECT_EQ(r.iterationsDone, 1);
    EXPECT_GT(r.simTime, 1'000'000);
    EXPECT_GT(r.deviceApiTime, 0);
    EXPECT_NEAR(r.utilization, 1.0, 0.05);
}

TEST(Engine, RecordsTimeSeries)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    const auto r = runTrace(alloc, dev, tinyTrace());
    ASSERT_GE(r.series.size(), 2u);
    // Time is monotone and reserved >= active on every sample.
    for (std::size_t i = 0; i < r.series.size(); ++i) {
        if (i > 0) {
            EXPECT_GE(r.series[i].time, r.series[i - 1].time);
        }
        EXPECT_GE(r.series[i].reserved, r.series[i].active);
    }
}

TEST(Engine, SeriesCanBeDisabled)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    EngineOptions opts;
    opts.recordSeries = false;
    const auto r = runTrace(alloc, dev, tinyTrace(), nullptr, opts);
    EXPECT_TRUE(r.series.empty());
}

TEST(Engine, DetectsOom)
{
    vmm::Device dev(smallDevice(64_MiB));
    alloc::CachingAllocator alloc(dev);
    TraceBuilder tb;
    tb.iterationMark();
    (void)tb.alloc(40_MiB);
    tb.iterationMark();
    (void)tb.alloc(40_MiB); // cannot fit
    tb.freeAll();
    const auto r = runTrace(alloc, dev, tb.take());
    EXPECT_TRUE(r.oom);
    // The iteration that OOMed does not count as done.
    EXPECT_EQ(r.iterationsDone, 1);
}

TEST(Engine, ThroughputFromConfig)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    TrainConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.batchSize = 4;
    cfg.gpus = 2;
    const auto trace = tinyTrace();
    const auto r = runTrace(alloc, dev, trace, &cfg);
    // One iteration of 4 samples on 2 GPUs over simTime seconds.
    const double expect =
        8.0 / (static_cast<double>(r.simTime) * 1e-9);
    EXPECT_NEAR(r.samplesPerSec, expect, expect * 1e-6);
}

TEST(Engine, RejectsWhatValidateRejectsOnUnvalidatedInput)
{
    // Trace::append does not validate, just as a `.gmt` file or a
    // generator stream never passes through Trace::validate(): the
    // engine itself must refuse an alloc of a live tensor and a
    // negative compute instead of replaying them.
    Trace doubleAlloc;
    doubleAlloc.append(Event{EventKind::alloc, 7, 4_MiB, 0, 0});
    doubleAlloc.append(Event{EventKind::alloc, 7, 4_MiB, 0, 0});
    doubleAlloc.append(Event{EventKind::compute, 0, 0, 1'000'000, 0});
    doubleAlloc.append(Event{EventKind::free, 7, 0, 0, 0});
    Trace negativeCompute;
    negativeCompute.append(Event{EventKind::alloc, 1, 4_MiB, 0, 0});
    negativeCompute.append(
        Event{EventKind::compute, 0, 0, -5'000'000, 0});
    negativeCompute.append(Event{EventKind::free, 1, 0, 0, 0});

    const std::pair<const Trace *, const char *> cases[] = {
        {&doubleAlloc, "allocates live tensor 7"},
        {&negativeCompute, "negative compute"}};
    for (const auto &[trace, why] : cases) {
        EXPECT_THROW(trace->validate(), PanicError);
        vmm::Device dev(smallDevice());
        alloc::CachingAllocator alloc(dev);
        try {
            runTrace(alloc, dev, *trace);
            ADD_FAILURE() << "replayed a trace that " << why;
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what()).find(why),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Engine, ClockAccumulatesComputeAndApiTime)
{
    vmm::Device dev(smallDevice());
    alloc::CachingAllocator alloc(dev);
    const auto r = runTrace(alloc, dev, tinyTrace());
    EXPECT_GE(r.simTime, 1'000'000 + r.deviceApiTime);
}

TEST(Runner, AllKindsRunTheSameScenario)
{
    TrainConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.strategies = Strategies::parse("R");
    cfg.gpus = 2;
    cfg.batchSize = 2;
    cfg.iterations = 2;

    for (auto kind : {AllocatorKind::native, AllocatorKind::caching,
                      AllocatorKind::gmlake}) {
        const auto r = runScenario(cfg, kind);
        EXPECT_FALSE(r.oom) << allocatorKindName(kind);
        EXPECT_GT(r.peakActive, 0u);
        EXPECT_GE(r.peakReserved, r.peakActive);
        EXPECT_EQ(r.allocator, allocatorKindName(kind));
        EXPECT_GT(r.samplesPerSec, 0.0);
    }
}

TEST(Runner, SameTraceDifferentAllocatorsSeeSameActivePeakApprox)
{
    TrainConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.strategies = Strategies::parse("LR");
    cfg.gpus = 4;
    cfg.batchSize = 4;
    cfg.iterations = 3;

    const auto caching = runScenario(cfg, AllocatorKind::caching);
    const auto lake = runScenario(cfg, AllocatorKind::gmlake);
    // Both replay the same request stream; active peaks differ only
    // by rounding policy (512 B vs 2 MiB chunks, near-match slack).
    EXPECT_NEAR(static_cast<double>(lake.peakActive),
                static_cast<double>(caching.peakActive),
                0.15 * static_cast<double>(caching.peakActive));
}

TEST(Runner, MakeAllocatorProducesDistinctTypes)
{
    vmm::Device dev(smallDevice());
    EXPECT_EQ(makeAllocator(AllocatorKind::native, dev)->name(),
              "native");
    EXPECT_EQ(makeAllocator(AllocatorKind::caching, dev)->name(),
              "caching");
    EXPECT_EQ(makeAllocator(AllocatorKind::gmlake, dev)->name(),
              "gmlake");
}
