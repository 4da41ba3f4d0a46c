/**
 * @file
 * Tests for the host-wallclock measurement layer: the monotonic
 * stopwatch, the latency histogram's exact aggregates and
 * approximate quantiles, and the wallclock fields a replay attaches
 * to its RunResult. Includes a stress-allocator smoke run (the
 * scenario whose perf trajectory the measurements exist for).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "obs/recorder.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "support/stopwatch.hh"
#include "support/units.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;

TEST(Stopwatch, IsMonotonic)
{
    const std::uint64_t a = Stopwatch::nowNs();
    const std::uint64_t b = Stopwatch::nowNs();
    EXPECT_GE(b, a);

    Stopwatch watch;
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 10000; ++i)
        sink = sink + i;
    EXPECT_GT(watch.elapsedNs(), 0u);
}

TEST(Stopwatch, ResetRestartsTheWindow)
{
    // Load-immune formulation: after reset(), the watch's start is
    // later than `control`'s, so sampling the watch first must read
    // less elapsed time than the earlier-started control — however
    // long the scheduler stalls us in between.
    Stopwatch watch;
    const std::uint64_t t0 = Stopwatch::nowNs();
    while (Stopwatch::nowNs() - t0 < 2'000'000) {
        // burn >= 2 ms of real time on the construction window
    }
    const Stopwatch control;
    watch.reset();
    const std::uint64_t resetElapsed = watch.elapsedNs();
    const std::uint64_t controlElapsed = control.elapsedNs();
    // Holds for any scheduling: a no-op reset would instead report
    // the >= 2 ms burned above, while the control has only existed
    // for the sampling gap. With a working reset the inequality is
    // exact — start(watch) >= start(control), sample(watch) <=
    // sample(control).
    EXPECT_LE(resetElapsed, controlElapsed);
}

TEST(LatencyHistogram, EmptyHistogramIsZero)
{
    const LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.totalNs(), 0u);
    EXPECT_EQ(h.minNs(), 0u);
    EXPECT_EQ(h.maxNs(), 0u);
    EXPECT_EQ(h.quantileNs(0.5), 0u);
    EXPECT_DOUBLE_EQ(h.meanNs(), 0.0);
}

TEST(LatencyHistogram, ExactAggregates)
{
    LatencyHistogram h;
    h.add(100);
    h.add(300);
    h.add(200);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.totalNs(), 600u);
    EXPECT_EQ(h.minNs(), 100u);
    EXPECT_EQ(h.maxNs(), 300u);
    EXPECT_DOUBLE_EQ(h.meanNs(), 200.0);
}

TEST(LatencyHistogram, BucketsArePowerOfTwoRanges)
{
    LatencyHistogram h;
    h.add(0);    // bucket 0
    h.add(1);    // bucket 1: [1, 2)
    h.add(5);    // bucket 3: [4, 8)
    h.add(7);    // bucket 3
    h.add(1024); // bucket 11: [1024, 2048)
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.bucketCount(11), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
}

TEST(LatencyHistogram, QuantilesAreBucketAccurate)
{
    // 90 samples near 1 us, 10 near 1 ms: p50 must land in the fast
    // bucket, p99 in the slow one — the log2 buckets guarantee
    // 2x accuracy, which is what the p50/p99 reporting needs.
    LatencyHistogram h;
    for (int i = 0; i < 90; ++i)
        h.add(1000 + i);
    for (int i = 0; i < 10; ++i)
        h.add(1'000'000 + i);
    const std::uint64_t p50 = h.quantileNs(0.5);
    const std::uint64_t p99 = h.quantileNs(0.99);
    EXPECT_GE(p50, 1000u);
    EXPECT_LT(p50, 2048u);
    EXPECT_GE(p99, 524288u); // within the [2^19, 2^20) bucket
    EXPECT_LE(p99, 1'048'576u);
    EXPECT_LE(h.quantileNs(0.0), 2048u);
    EXPECT_EQ(h.quantileNs(1.0), h.maxNs());
}

TEST(LatencyHistogram, QuantileClampsToObservedRange)
{
    LatencyHistogram h;
    h.add(1000);
    // A single sample: every quantile is that sample (the bucket
    // interpolation must clamp to min/max).
    EXPECT_EQ(h.quantileNs(0.0), 1000u);
    EXPECT_EQ(h.quantileNs(0.5), 1000u);
    EXPECT_EQ(h.quantileNs(1.0), 1000u);
}

// ------------------------------------------------ replay wallclock

TEST(RunWallclock, ReplayRecordsAllocationWallTime)
{
    workload::TrainConfig cfg;
    cfg.model = workload::findModel("OPT-1.3B");
    cfg.strategies = workload::Strategies::parse("LR");
    cfg.gpus = 4;
    cfg.batchSize = 16;
    cfg.iterations = 2;

    const auto r = sim::runScenario(cfg, sim::AllocatorKind::gmlake);
    ASSERT_FALSE(r.oom);
    ASSERT_GT(r.allocCount, 0u);
    EXPECT_GT(r.allocWallNs, 0u);
    EXPECT_GT(r.runWallNs, 0u);
    EXPECT_GE(r.runWallNs, r.allocWallNs);
    EXPECT_GT(r.allocWallP50Ns, 0u);
    EXPECT_GE(r.allocWallP99Ns, r.allocWallP50Ns);
    // The total is consistent with the per-call quantiles.
    EXPECT_GE(r.allocWallNs, r.allocWallP50Ns);
}

// ---------------------------------------------- stress smoke

TEST(StressAllocator, SmokeRunExercisesDeepPools)
{
    const sim::Experiment *stress =
        sim::findExperiment("stress-allocator");
    ASSERT_NE(stress, nullptr);

    sim::ExperimentOptions options;
    options.iterations = 1;
    std::ostringstream sink;
    sim::ExperimentContext ctx(options, sink);
    stress->run(ctx);

    // Both allocators replayed the full trace.
    ASSERT_EQ(ctx.records().size(), 2u);
    for (const auto &r : ctx.records()) {
        EXPECT_FALSE(r.result.oom) << r.allocator;
        EXPECT_GT(r.result.allocCount, 2000u) << r.allocator;
        EXPECT_GT(r.result.allocWallNs, 0u) << r.allocator;
    }

    // The scenario actually reaches the deep-pool regime: the
    // gmlake run must report hundreds of pBlocks and have stitched.
    auto metric = [&](const char *label,
                      const char *name) -> double {
        for (const auto &m : ctx.metrics()) {
            if (m.label == label && m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << label << "/" << name;
        return 0.0;
    };
    EXPECT_GE(metric("gmlake", "pblocks"), 300.0);
    EXPECT_GT(metric("gmlake", "stitches"), 0.0);
    EXPECT_GT(metric("gmlake", "s3_multi_blocks"), 0.0);
    EXPECT_GT(metric("gmlake", "alloc_wall_ns"), 0.0);
}

// --------------------------------------------- extreme buckets

TEST(LatencyHistogram, SpansTheFullBucketRange)
{
    // The extreme buckets: a zero-ns sample (bucket 0) and the
    // largest representable one (bucket 64) land where they belong,
    // and the exact extremes do not drift.
    LatencyHistogram h;
    h.add(0);
    h.add(~std::uint64_t{0});
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.minNs(), 0u);
    EXPECT_EQ(h.maxNs(), ~std::uint64_t{0});
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(64), 1u);
    EXPECT_EQ(h.quantileNs(0.0), 0u);
    EXPECT_EQ(h.quantileNs(1.0), ~std::uint64_t{0});
}

// --------------------------------------- observability overhead

TEST(StressAllocator, RecorderOverheadIsBounded)
{
    // The observability satellite's perf guard. Two stress-allocator
    // runs: the null-sink run (recorder not installed — every
    // instrumentation site is one atomic load + untaken branch) and
    // a run with a live recorder draining every event. The alloc-path
    // p50 with recording ON must stay within a generous envelope of
    // the null-sink p50; anything past it means recording landed on
    // the allocation hot path rather than beside it. The bound is
    // deliberately loose (5x + 50 us) so CI noise cannot trip it —
    // the honest numbers live in PERFORMANCE.md.
    const sim::Experiment *stress =
        sim::findExperiment("stress-allocator");
    ASSERT_NE(stress, nullptr);

    const auto p50 = [&](obs::Recorder *recorder) {
        sim::ExperimentOptions options;
        options.iterations = 1;
        std::ostringstream sink;
        sim::ExperimentContext ctx(options, sink);
        if (recorder != nullptr) {
            ctx.setRecorder(recorder);
            recorder->activate();
        }
        stress->run(ctx);
        if (recorder != nullptr)
            recorder->deactivate();
        for (const auto &r : ctx.records()) {
            if (r.allocator == "gmlake")
                return r.result.allocWallP50Ns;
        }
        ADD_FAILURE() << "no gmlake record";
        return std::uint64_t{0};
    };

    const std::uint64_t nullSink = p50(nullptr);
    obs::Recorder recorder;
    const std::uint64_t recording = p50(&recorder);
    EXPECT_GT(nullSink, 0u);
    EXPECT_GT(recorder.snapshot().events.size(), 1000u)
        << "recorder saw no events; the guard below is vacuous";
    EXPECT_LE(recording, nullSink * 5 + 50'000u)
        << "recording p50 " << recording << " ns vs null-sink p50 "
        << nullSink << " ns";
}
